package frame

import (
	"encoding/binary"
	"errors"
)

// Replay batch wire format (the recovery replay fast path).
//
// Recovery replay is the dominant term of the paper's recovery cost model
// (§5.2, Fig 3.1), and a control message per replayed message would make it
// scale with message count: every record paying a full frame, a medium
// round trip and an end-to-end ack. A batch packs many replayed messages
// into one MTU-sized guaranteed frame to the target node's kernel process
// on ChanReplay, so it rides the transport's FIFO ordering, retransmission
// and backoff unchanged.
//
// In memory a records batch is a frame whose Body is the batch header and
// whose Recs are the replayed messages, each sharing its body with the
// recorder's store page it was read from, so the simulation never builds or
// parses the record layout below: like a Bundle's, it is the wire codec
// only, written by AppendEncode, read by DecodeInto (record bodies alias the
// decoded buffer) and counted by WireLen, Frame.String's len= and a bundle
// record's EncodedLen. A checkpoint chunk keeps its bytes in Body. On the
// wire the body is:
//
//	kind      u8   (BatchRecords | BatchCkChunk)
//	proc      u32+u32 (recovering process)
//	gen       u64  (recovery generation; stale batches are dropped)
//	seq       u64  (batch sequence 1.. / chunk index 0..)
//	kind = records:  count u32, then count records:
//	    id.sender u32+u32, id.seq u64, from u32+u32,
//	    channel u16, code u32, hasLink u8,
//	    [link: to u32+u32, channel u16, code u32, deliverToKernel u8,]
//	    bodyLen u32, body bytes
//	kind = ckChunk:  total u32, then the chunk bytes (rest of body)
//
// A message on ChanReplay whose body starts with a records header carries
// its records after it, in a frame or in a Bundle record alike.

// ChanReplay is the kernel-process channel carrying recovery replay batches
// and checkpoint chunks. The kernel dispatches on it before attempting a
// control decode.
const ChanReplay uint16 = 14

// The batch kinds, a ChanReplay body's first byte.
const (
	BatchRecords = 1
	BatchCkChunk = 2
)

// BatchHdrLen is the encoded size of the common batch header, which is the
// whole Body of a records batch.
const BatchHdrLen = 1 + 8 + 8 + 8 + 4 // kind, proc, gen, seq, count/total

// replayRecFixed is a replayed record's overhead excluding body and link; a
// passed link adds linkLen.
const replayRecFixed = 8 + 8 + 8 + 2 + 4 + 1 + 4

// BatchHdr identifies a batch (or checkpoint chunk) frame.
type BatchHdr struct {
	Kind byte
	Proc ProcID
	Gen  uint64
	Seq  uint64
	// Count is the record count (records) or the total chunk count (chunk).
	Count uint32
}

// AppendBatchHdr appends h's encoding onto buf: a records batch's Body, or
// the head of a checkpoint chunk.
func AppendBatchHdr(buf []byte, h BatchHdr) []byte {
	buf = append(buf, h.Kind)
	buf = appendProc(buf, h.Proc)
	buf = binary.BigEndian.AppendUint64(buf, h.Gen)
	buf = binary.BigEndian.AppendUint64(buf, h.Seq)
	return binary.BigEndian.AppendUint32(buf, h.Count)
}

// EncodeCkChunk appends one checkpoint chunk body onto buf: chunk seq of
// total, carrying data. Chunks precede the OpRecreate that references them
// on the same FIFO transport stream.
func EncodeCkChunk(buf []byte, proc ProcID, gen, seq uint64, total uint32, data []byte) []byte {
	buf = AppendBatchHdr(buf, BatchHdr{Kind: BatchCkChunk, Proc: proc, Gen: gen, Seq: seq, Count: total})
	return append(buf, data...)
}

// Batch header decoding errors.
var (
	ErrShortBatch = errors.New("frame: truncated replay batch")
	ErrBadBatch   = errors.New("frame: malformed replay batch")
)

// DecodeBatchHdr parses the common batch header.
func DecodeBatchHdr(b []byte) (BatchHdr, error) {
	if len(b) < BatchHdrLen {
		return BatchHdr{}, ErrShortBatch
	}
	var h BatchHdr
	h.Kind = b[0]
	if h.Kind != BatchRecords && h.Kind != BatchCkChunk {
		return BatchHdr{}, ErrBadBatch
	}
	h.Proc = getProc(b[1:])
	h.Gen = binary.BigEndian.Uint64(b[9:])
	h.Seq = binary.BigEndian.Uint64(b[17:])
	h.Count = binary.BigEndian.Uint32(b[25:])
	return h, nil
}

// DecodeCkChunk parses a checkpoint chunk. The returned data aliases b.
func DecodeCkChunk(b []byte) (BatchHdr, []byte, error) {
	h, err := DecodeBatchHdr(b)
	if err != nil {
		return h, nil, err
	}
	if h.Kind != BatchCkChunk {
		return h, nil, ErrBadBatch
	}
	return h, b[BatchHdrLen:], nil
}

// ReplayLen returns the record's encoded size inside a replay batch, what
// the recorder budgets a batch with.
func (rec *BundleRec) ReplayLen() int {
	n := replayRecFixed + len(rec.Body)
	if rec.HasLink {
		n += linkLen
	}
	return n
}

// replayLen is the encoded size of a batch's records.
func replayLen(recs []BundleRec) int {
	n := 0
	for i := range recs {
		n += recs[i].ReplayLen()
	}
	return n
}

// isBatch reports whether a message on ch whose body, or Body, is b is a
// records batch, so its records follow b on the wire.
func isBatch(ch uint16, b []byte) bool {
	return ch == ChanReplay && len(b) >= BatchHdrLen && b[0] == BatchRecords
}

func getProc(b []byte) ProcID {
	return ProcID{Node: NodeID(int32(binary.BigEndian.Uint32(b))), Local: binary.BigEndian.Uint32(b[4:])}
}

// appendReplayRecs appends a batch's records onto buf.
func appendReplayRecs(buf []byte, recs []BundleRec) []byte {
	for i := range recs {
		rec := &recs[i]
		buf = appendProc(buf, rec.ID.Sender)
		buf = binary.BigEndian.AppendUint64(buf, rec.ID.Seq)
		buf = appendProc(buf, rec.From)
		buf = binary.BigEndian.AppendUint16(buf, rec.Channel)
		buf = binary.BigEndian.AppendUint32(buf, rec.Code)
		buf = appendBool(buf, rec.HasLink)
		if rec.HasLink {
			buf = appendProc(buf, rec.Link.To)
			buf = binary.BigEndian.AppendUint16(buf, rec.Link.Channel)
			buf = binary.BigEndian.AppendUint32(buf, rec.Link.Code)
			buf = appendBool(buf, rec.Link.DeliverToKernel)
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(rec.Body)))
		buf = append(buf, rec.Body...)
	}
	return buf
}

// splitBatch cuts a records batch's wire body into its header, which
// becomes Body, and its records, parsed onto recs[:0] (reusing its
// capacity) with bodies aliasing b. Records must account for every byte
// after the header; anything else is ErrShortFrame, as for a Bundle.
func splitBatch(b []byte, recs []BundleRec) (hdr []byte, _ []BundleRec, _ error) {
	count := int(binary.BigEndian.Uint32(b[BatchHdrLen-4:]))
	pos := BatchHdrLen
	recs = recs[:0]
	for i := 0; i < count; i++ {
		if len(b)-pos < replayRecFixed {
			return nil, nil, ErrShortFrame
		}
		var rec BundleRec
		rec.ID.Sender = getProc(b[pos:])
		rec.ID.Seq = binary.BigEndian.Uint64(b[pos+8:])
		rec.From = getProc(b[pos+16:])
		rec.Channel = binary.BigEndian.Uint16(b[pos+24:])
		rec.Code = binary.BigEndian.Uint32(b[pos+26:])
		rec.HasLink = b[pos+30] != 0
		pos += 31
		if rec.HasLink {
			if len(b)-pos < linkLen {
				return nil, nil, ErrShortFrame
			}
			rec.Link.To = getProc(b[pos:])
			rec.Link.Channel = binary.BigEndian.Uint16(b[pos+8:])
			rec.Link.Code = binary.BigEndian.Uint32(b[pos+10:])
			rec.Link.DeliverToKernel = b[pos+14] != 0
			pos += linkLen
		}
		if len(b)-pos < 4 {
			return nil, nil, ErrShortFrame
		}
		bodyLen := int(binary.BigEndian.Uint32(b[pos:]))
		pos += 4
		if len(b)-pos < bodyLen {
			return nil, nil, ErrShortFrame
		}
		if bodyLen > 0 {
			rec.Body = b[pos : pos+bodyLen : pos+bodyLen]
		}
		pos += bodyLen
		recs = append(recs, rec)
	}
	if pos != len(b) {
		return nil, nil, ErrShortFrame
	}
	return b[:BatchHdrLen:BatchHdrLen], recs, nil
}

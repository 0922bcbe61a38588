package demos

import (
	"encoding/binary"
	"errors"

	"publishing/internal/frame"
)

// Replay-batch wire format (the OpReplayBatch fast path).
//
// Recovery replay is the dominant term of the paper's recovery cost model
// (§5.2, Fig 3.1), and a gob-encoded CtlMsg per replayed message makes it
// scale with message *count*: every record pays a full frame, a medium
// round-trip, and an end-to-end ack. Batches pack many replay records into
// one MTU-sized frame body with a fixed binary layout — no gob — so the
// kernel can unpack them with zero extra copies, the same discipline as
// frame.DecodeInto: decoded record bodies alias the frame body.
//
// Batch frames travel as ordinary guaranteed traffic to the target node's
// kernel process on ChanReplay, so they reuse the transport's FIFO
// ordering, retransmission, and backoff machinery unchanged. The body is:
//
//	kind      u8   (batchKindRecords | batchKindCkChunk)
//	proc      u32+u32 (recovering process)
//	gen       u64  (recovery generation; stale batches are dropped)
//	seq       u64  (batch sequence 1.. / chunk index 0..)
//	kind = records:  count u32, then count records:
//	    id.sender u32+u32, id.seq u64, from u32+u32,
//	    channel u16, code u32, hasLink u8,
//	    [link: to u32+u32, channel u16, code u32, deliverToKernel u8,]
//	    bodyLen u32, body bytes
//	kind = ckChunk:  total u32, then the chunk bytes (rest of body)

// ChanReplay is the kernel-process channel carrying recovery replay batches
// and checkpoint chunks. The kernel dispatches on it before attempting a
// gob decode.
const ChanReplay uint16 = 14

const (
	batchKindRecords = 1
	batchKindCkChunk = 2
)

// batchHeaderLen is the encoded size of the common batch header.
const batchHeaderLen = 1 + 8 + 8 + 8 + 4 // kind, proc, gen, seq, count/total

// replayRecFixed is the per-record overhead excluding body and link.
const replayRecFixed = 8 + 8 + 8 + 2 + 4 + 1 + 4

// replayRecLink is the additional per-record overhead of a passed link.
const replayRecLink = 8 + 2 + 4 + 1

// ReplayRec is one replayed message inside a batch. After decoding, Body
// aliases the batch frame's body; the kernel queues it without copying
// because a delivered body is read-only (Msg.Body).
type ReplayRec struct {
	ID      frame.MsgID
	From    frame.ProcID
	Channel uint16
	Code    uint32
	Body    []byte
	Link    *frame.Link
}

// EncodedLen returns the record's encoded size, for batch budgeting.
func (rec *ReplayRec) EncodedLen() int {
	n := replayRecFixed + len(rec.Body)
	if rec.Link != nil {
		n += replayRecLink
	}
	return n
}

// ReplayBatchHdr identifies a batch (or checkpoint chunk) frame.
type ReplayBatchHdr struct {
	Kind byte
	Proc frame.ProcID
	Gen  uint64
	Seq  uint64
	// Count is the record count (records) or the total chunk count (chunk).
	Count uint32
}

func appendBatchProc(buf []byte, p frame.ProcID) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.Node))
	return binary.BigEndian.AppendUint32(buf, p.Local)
}

// BeginReplayBatch appends a records-batch header with a zero count onto
// buf (which must be the start of the batch body). The sender appends
// records with AppendReplayRec and patches the count with FinishReplayBatch.
func BeginReplayBatch(buf []byte, proc frame.ProcID, gen, seq uint64) []byte {
	buf = append(buf, batchKindRecords)
	buf = appendBatchProc(buf, proc)
	buf = binary.BigEndian.AppendUint64(buf, gen)
	buf = binary.BigEndian.AppendUint64(buf, seq)
	return binary.BigEndian.AppendUint32(buf, 0)
}

// AppendReplayRec appends one record to a batch body.
func AppendReplayRec(buf []byte, rec *ReplayRec) []byte {
	buf = appendBatchProc(buf, rec.ID.Sender)
	buf = binary.BigEndian.AppendUint64(buf, rec.ID.Seq)
	buf = appendBatchProc(buf, rec.From)
	buf = binary.BigEndian.AppendUint16(buf, rec.Channel)
	buf = binary.BigEndian.AppendUint32(buf, rec.Code)
	if rec.Link != nil {
		buf = append(buf, 1)
		buf = appendBatchProc(buf, rec.Link.To)
		buf = binary.BigEndian.AppendUint16(buf, rec.Link.Channel)
		buf = binary.BigEndian.AppendUint32(buf, rec.Link.Code)
		if rec.Link.DeliverToKernel {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	} else {
		buf = append(buf, 0)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(rec.Body)))
	return append(buf, rec.Body...)
}

// FinishReplayBatch patches the record count into a body started with
// BeginReplayBatch.
func FinishReplayBatch(buf []byte, count int) {
	binary.BigEndian.PutUint32(buf[batchHeaderLen-4:batchHeaderLen], uint32(count))
}

// EncodeCkChunk appends one checkpoint chunk body onto buf: chunk seq of
// total, carrying data. Chunks precede the OpRecreate that references them
// on the same FIFO transport stream.
func EncodeCkChunk(buf []byte, proc frame.ProcID, gen, seq uint64, total uint32, data []byte) []byte {
	buf = append(buf, batchKindCkChunk)
	buf = appendBatchProc(buf, proc)
	buf = binary.BigEndian.AppendUint64(buf, gen)
	buf = binary.BigEndian.AppendUint64(buf, seq)
	buf = binary.BigEndian.AppendUint32(buf, total)
	return append(buf, data...)
}

// Batch decoding errors.
var (
	ErrShortBatch = errors.New("demos: truncated replay batch")
	ErrBadBatch   = errors.New("demos: malformed replay batch")
)

// DecodeBatchHdr parses the common batch header.
func DecodeBatchHdr(b []byte) (ReplayBatchHdr, error) {
	if len(b) < batchHeaderLen {
		return ReplayBatchHdr{}, ErrShortBatch
	}
	var h ReplayBatchHdr
	h.Kind = b[0]
	if h.Kind != batchKindRecords && h.Kind != batchKindCkChunk {
		return ReplayBatchHdr{}, ErrBadBatch
	}
	h.Proc = frame.ProcID{Node: frame.NodeID(int32(binary.BigEndian.Uint32(b[1:]))), Local: binary.BigEndian.Uint32(b[5:])}
	h.Gen = binary.BigEndian.Uint64(b[9:])
	h.Seq = binary.BigEndian.Uint64(b[17:])
	h.Count = binary.BigEndian.Uint32(b[25:])
	return h, nil
}

// DecodeReplayBatch parses a records batch, appending the records onto recs
// (pass recs[:0] of a reused slice for an allocation-free steady state).
// Record bodies alias b — the caller owns the frame and must keep it alive
// while the records are in use.
func DecodeReplayBatch(b []byte, recs []ReplayRec) (ReplayBatchHdr, []ReplayRec, error) {
	h, err := DecodeBatchHdr(b)
	if err != nil {
		return h, recs, err
	}
	if h.Kind != batchKindRecords {
		return h, recs, ErrBadBatch
	}
	pos := batchHeaderLen
	for i := uint32(0); i < h.Count; i++ {
		if len(b)-pos < replayRecFixed {
			return h, recs, ErrShortBatch
		}
		var rec ReplayRec
		rec.ID.Sender = frame.ProcID{Node: frame.NodeID(int32(binary.BigEndian.Uint32(b[pos:]))), Local: binary.BigEndian.Uint32(b[pos+4:])}
		rec.ID.Seq = binary.BigEndian.Uint64(b[pos+8:])
		rec.From = frame.ProcID{Node: frame.NodeID(int32(binary.BigEndian.Uint32(b[pos+16:]))), Local: binary.BigEndian.Uint32(b[pos+20:])}
		rec.Channel = binary.BigEndian.Uint16(b[pos+24:])
		rec.Code = binary.BigEndian.Uint32(b[pos+26:])
		hasLink := b[pos+30]
		pos += 31
		if hasLink != 0 {
			if len(b)-pos < replayRecLink {
				return h, recs, ErrShortBatch
			}
			rec.Link = &frame.Link{
				To:              frame.ProcID{Node: frame.NodeID(int32(binary.BigEndian.Uint32(b[pos:]))), Local: binary.BigEndian.Uint32(b[pos+4:])},
				Channel:         binary.BigEndian.Uint16(b[pos+8:]),
				Code:            binary.BigEndian.Uint32(b[pos+10:]),
				DeliverToKernel: b[pos+14] != 0,
			}
			pos += replayRecLink
		}
		if len(b)-pos < 4 {
			return h, recs, ErrShortBatch
		}
		bodyLen := int(binary.BigEndian.Uint32(b[pos:]))
		pos += 4
		if len(b)-pos < bodyLen {
			return h, recs, ErrShortBatch
		}
		rec.Body = b[pos : pos+bodyLen : pos+bodyLen]
		pos += bodyLen
		recs = append(recs, rec)
	}
	if pos != len(b) {
		return h, recs, ErrBadBatch
	}
	return h, recs, nil
}

// DecodeCkChunk parses a checkpoint chunk. The returned data aliases b.
func DecodeCkChunk(b []byte) (ReplayBatchHdr, []byte, error) {
	h, err := DecodeBatchHdr(b)
	if err != nil {
		return h, nil, err
	}
	if h.Kind != batchKindCkChunk {
		return h, nil, ErrBadBatch
	}
	return h, b[batchHeaderLen:], nil
}

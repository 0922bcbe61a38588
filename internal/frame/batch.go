package frame

import "errors"

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
// In memory a records batch is a frame whose Body is the batch header
// (codeBatchHdr) and whose Recs are the replayed messages, each sharing its
// body with the recorder's store page it was read from. So the simulation
// never runs the record layout (codeReplayRec): like a Bundle's, it is the
// wire codec only (codeMsgBody), counted by WireLen, Frame.String's len=
// and a bundle record's EncodedLen. A checkpoint chunk (codeCkChunk) keeps
// its bytes in Body.

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

// codeBatchHdr codes a batch header in wire mode:
//
//	kind      u8   (BatchRecords | BatchCkChunk)
//	proc      u32+u32 (recovering process)
//	gen       u64  (recovery generation; stale batches are dropped)
//	seq       u64  (batch sequence 1.. / chunk index 0..)
//	count     u32  (records: the record count; ckChunk: the chunk count)
func codeBatchHdr(c *Coder, h *BatchHdr) {
	if Uint(c, &h.Kind); h.Kind != BatchRecords && h.Kind != BatchCkChunk {
		c.Fail()
	}
	c.Proc(&h.Proc)
	Uint(c, &h.Gen)
	Uint(c, &h.Seq)
	Uint(c, &h.Count)
}

// AppendBatchHdr appends h's encoding onto buf: a records batch's Body, or
// the head of a checkpoint chunk.
func AppendBatchHdr(buf []byte, h BatchHdr) []byte {
	c := Coder{b: buf, wire: true}
	codeBatchHdr(&c, &h)
	return c.b
}

// codeCkChunk codes a checkpoint chunk: its header, then its bytes to the
// end of the body.
func codeCkChunk(c *Coder, h *BatchHdr, data *[]byte) {
	if codeBatchHdr(c, h); h.Kind != BatchCkChunk {
		c.Fail()
	}
	if !c.dec {
		c.b = append(c.b, *data...)
	} else {
		*data = c.next(uint64(len(c.b)))
	}
}

// EncodeCkChunk appends one checkpoint chunk body onto buf: chunk seq of
// total, carrying data. Chunks precede the OpRecreate that references them
// on the same FIFO transport stream.
func EncodeCkChunk(buf []byte, proc ProcID, gen, seq uint64, total uint32, data []byte) []byte {
	c := Coder{b: buf, wire: true}
	codeCkChunk(&c, &BatchHdr{Kind: BatchCkChunk, Proc: proc, Gen: gen, Seq: seq, Count: total}, &data)
	return c.b
}

// ErrBadBatch is the error of a body that does not start with the batch
// header asked for: cut short, or of an unknown or another kind.
var ErrBadBatch = errors.New("frame: malformed replay batch")

// DecodeBatchHdr parses the batch header a body starts with.
func DecodeBatchHdr(b []byte) (h BatchHdr, _ error) {
	c := Coder{b: b, dec: true, wire: true}
	if codeBatchHdr(&c, &h); c.bad {
		return BatchHdr{}, ErrBadBatch
	}
	return h, nil
}

// DecodeCkChunk parses a checkpoint chunk. The returned data aliases b.
func DecodeCkChunk(b []byte) (h BatchHdr, data []byte, _ error) {
	c := Coder{b: b, dec: true, wire: true}
	if codeCkChunk(&c, &h, &data); c.bad {
		return BatchHdr{}, nil, ErrBadBatch
	}
	return h, data, nil
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

// codeReplayRec codes one replayed record of a records batch:
//
//	id.sender u32+u32, id.seq u64, from u32+u32, channel u16, code u32,
//	hasLink u8,
//	[link: to u32+u32, channel u16, code u32, deliverToKernel u8,]
//	bodyLen u32, body bytes
func codeReplayRec(c *Coder, r *BundleRec) {
	c.MsgID(&r.ID)
	c.Proc(&r.From)
	Uint(c, &r.Channel)
	Uint(c, &r.Code)
	if c.Bool(&r.HasLink); r.HasLink {
		c.Link(&r.Link)
	}
	c.Blob(&r.Body)
}

// codeMsgBody codes the body of a message of type t on channel ch, n bytes
// on the wire. A Bundle's is its records (codeBundle). Any other message's
// is Body, then, when Body is a records batch's header, the batch's records
// (codeReplayRec), as many as the header counts. A decoder aliases Body and
// the records' bodies to the input and reuses recs's array; the records must
// account for every byte after the header.
func codeMsgBody(c *Coder, t Type, ch uint16, n uint32, body *[]byte, recs *[]BundleRec) {
	if !c.dec {
		if t == Bundle {
			codeBundle(c, recs)
			return
		}
		c.b = append(c.b, *body...)
		for i := range *recs {
			codeReplayRec(c, &(*recs)[i])
		}
		return
	}
	b := c.next(uint64(n))
	d := Coder{b: b, dec: true, wire: true}
	var h BatchHdr
	if t != Bundle && ch == ChanReplay {
		codeBatchHdr(&d, &h)
	}
	switch {
	case t == Bundle:
		*body = nil
		codeBundle(&d, recs)
	case !d.bad && h.Kind == BatchRecords:
		k := len(b) - len(d.b)
		*body = b[:k:k]
		*recs = resize(&d, *recs, int(h.Count), replayRecFixed)
		for i := range *recs {
			codeReplayRec(&d, &(*recs)[i])
		}
	default: // no records batch: the body is all Body
		*body, *recs = b, nil
		return
	}
	c.bad = c.bad || d.bad || len(d.b) != 0
}

package frame

import "encoding/binary"

// Bundle body wire format (the steady-state coalescing fast path).
//
// A Bundle frame packs several small guaranteed/unguaranteed messages for
// one destination node into a single MTU-sized frame, amortizing the fixed
// per-frame cost (header, checksum, interframe gap — on the paper's 10 Mb
// Ethernet the 1.6 ms interpacket delay dwarfs a small payload's clock-out
// time). In memory a Bundle holds its messages as records (Frame.Recs),
// each sharing its message's body, so the simulation never builds or
// parses the layout below: it is the wire codec only, written by
// AppendEncode, read by DecodeInto (record bodies alias the decoded buffer)
// and counted by WireLen, which is what the media charge for.
//
// The body is:
//
//	count u16, then count records:
//	    type u8 (Guaranteed | Unguaranteed)
//	    id.sender u32+u32, id.seq u64, from u32+u32, to u32+u32,
//	    channel u16, code u32, xseq u64, deliverToKernel u8, hasLink u8,
//	    bodyLen u32,
//	    [link: to u32+u32, channel u16, code u32, deliverToKernel u8,]
//	    body bytes
//
// The enclosing frame's XLow applies to every guaranteed record: all records
// of one bundle belong to the same src->dst transport stream.

// BundleHdrLen is the encoded size of the bundle body header.
const BundleHdrLen = 2

// BundleRecFixed is the per-record overhead excluding body and link.
const BundleRecFixed = 1 + 8 + 8 + 8 + 8 + 2 + 4 + 8 + 1 + 1 + 4

// BundleRecLink is the additional per-record overhead of a passed link.
const BundleRecLink = linkLen

// BundleRec is one message inside a Bundle frame, or a replayed message
// inside a replay batch (Frame.Recs), which uses only its ID, From,
// Channel, Code, link and Body. Body is the message's body, shared with its
// sender (RecOf) or, after decoding, aliasing the decoded bytes: a body is
// read-only once sent, so no copy is needed before handing records upward.
// Recs are the records of a replay batch riding in a Bundle: on the wire
// they follow Body inside the record's body.
type BundleRec struct {
	Type            Type // Guaranteed or Unguaranteed
	ID              MsgID
	From, To        ProcID
	Channel         uint16
	Code            uint32
	XSeq            uint64
	DeliverToKernel bool
	HasLink         bool
	Link            Link
	Body            []byte
	Recs            []BundleRec
}

// EncodedLen returns the record's encoded size, for bundle budgeting.
func (rec *BundleRec) EncodedLen() int {
	n := BundleRecFixed + len(rec.Body) + replayLen(rec.Recs)
	if rec.HasLink {
		n += BundleRecLink
	}
	return n
}

// RecOf fills rec from a single-message frame, the inverse of Expand.
func (rec *BundleRec) RecOf(f *Frame) {
	rec.Type = f.Type
	rec.ID = f.ID
	rec.From = f.From
	rec.To = f.To
	rec.Channel = f.Channel
	rec.Code = f.Code
	rec.XSeq = f.XSeq
	rec.DeliverToKernel = f.DeliverToKernel
	if f.PassedLink != nil {
		rec.HasLink = true
		rec.Link = *f.PassedLink
	} else {
		rec.HasLink = false
		rec.Link = Link{}
	}
	rec.Body, rec.Recs = f.Body, f.Recs
}

// Expand reconstitutes the record as a standalone frame carrying the
// enclosing bundle's addressing and stream low-water mark. The frame's Body
// still aliases the record.
func (rec *BundleRec) Expand(bundle *Frame) *Frame {
	f := new(Frame)
	rec.ExpandInto(f, bundle)
	return f
}

// ExpandInto is Expand into a frame the caller supplies, overwriting every
// field. A passed link is a new Link of its own, so a listener that keeps
// the link (never the frame) keeps one nobody reuses.
func (rec *BundleRec) ExpandInto(f *Frame, bundle *Frame) {
	*f = Frame{
		Type:            rec.Type,
		Src:             bundle.Src,
		Dst:             bundle.Dst,
		ID:              rec.ID,
		From:            rec.From,
		To:              rec.To,
		Channel:         rec.Channel,
		Code:            rec.Code,
		XSeq:            rec.XSeq,
		XLow:            bundle.XLow,
		DeliverToKernel: rec.DeliverToKernel,
		Body:            rec.Body,
		Recs:            rec.Recs,
	}
	if rec.HasLink {
		l := rec.Link
		f.PassedLink = &l
	}
}

// cloneRecs copies recs, their bodies into one new buffer as long as the
// records' bodies; a record's own records are cloned likewise.
func cloneRecs(recs []BundleRec) []BundleRec {
	out := append([]BundleRec(nil), recs...)
	n := 0
	for i := range out {
		n += len(out[i].Body)
	}
	buf := make([]byte, 0, n)
	for i := range out {
		if b := out[i].Body; b != nil {
			buf = append(buf, b...)
			out[i].Body = buf[len(buf)-len(b) : len(buf) : len(buf)]
		}
		if out[i].Recs != nil {
			out[i].Recs = cloneRecs(out[i].Recs)
		}
	}
	return out
}

// appendBundle appends the bundle body encoding recs onto buf.
func appendBundle(buf []byte, recs []BundleRec) []byte {
	start := len(buf)
	buf = BeginBundle(buf)
	for i := range recs {
		buf = AppendBundleRec(buf, &recs[i])
	}
	return FinishBundle(buf, start, len(recs))
}

// BeginBundle appends a bundle body header with a zero count onto buf. The
// sender appends records with AppendBundleRec and patches the count with
// FinishBundle.
func BeginBundle(buf []byte) []byte {
	return binary.BigEndian.AppendUint16(buf, 0)
}

// AppendBundleRec appends one record to a bundle body.
func AppendBundleRec(buf []byte, rec *BundleRec) []byte {
	buf = append(buf, uint8(rec.Type))
	buf = appendProc(buf, rec.ID.Sender)
	buf = binary.BigEndian.AppendUint64(buf, rec.ID.Seq)
	buf = appendProc(buf, rec.From)
	buf = appendProc(buf, rec.To)
	buf = binary.BigEndian.AppendUint16(buf, rec.Channel)
	buf = binary.BigEndian.AppendUint32(buf, rec.Code)
	buf = binary.BigEndian.AppendUint64(buf, rec.XSeq)
	buf = appendBool(buf, rec.DeliverToKernel)
	buf = appendBool(buf, rec.HasLink)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(rec.Body)+replayLen(rec.Recs)))
	if rec.HasLink {
		buf = appendProc(buf, rec.Link.To)
		buf = binary.BigEndian.AppendUint16(buf, rec.Link.Channel)
		buf = binary.BigEndian.AppendUint32(buf, rec.Link.Code)
		buf = appendBool(buf, rec.Link.DeliverToKernel)
	}
	return appendReplayRecs(append(buf, rec.Body...), rec.Recs)
}

// FinishBundle patches the record count into a body started at start.
func FinishBundle(buf []byte, start, count int) []byte {
	binary.BigEndian.PutUint16(buf[start:], uint16(count))
	return buf
}

// DecodeBundle parses a bundle body into recs (reusing its capacity) and
// returns the filled slice. Record bodies alias b; the caller owns b for the
// records' lifetime. Bundles travel inside checksummed frames, so a decode
// failure means a software bug or trailing garbage, not wire noise; it is
// still reported (ErrShortFrame / ErrBadType) rather than trusted.
func DecodeBundle(b []byte, recs []BundleRec) ([]BundleRec, error) {
	if len(b) < BundleHdrLen {
		return nil, ErrShortFrame
	}
	count := int(binary.BigEndian.Uint16(b))
	pos := BundleHdrLen
	recs = recs[:0]
	for i := 0; i < count; i++ {
		if len(b)-pos < BundleRecFixed {
			return nil, ErrShortFrame
		}
		var rec BundleRec
		rec.Type = Type(b[pos])
		pos++
		if rec.Type != Guaranteed && rec.Type != Unguaranteed {
			return nil, ErrBadType
		}
		rec.ID.Sender = ProcID{Node: NodeID(int32(binary.BigEndian.Uint32(b[pos:]))), Local: binary.BigEndian.Uint32(b[pos+4:])}
		rec.ID.Seq = binary.BigEndian.Uint64(b[pos+8:])
		rec.From = ProcID{Node: NodeID(int32(binary.BigEndian.Uint32(b[pos+16:]))), Local: binary.BigEndian.Uint32(b[pos+20:])}
		rec.To = ProcID{Node: NodeID(int32(binary.BigEndian.Uint32(b[pos+24:]))), Local: binary.BigEndian.Uint32(b[pos+28:])}
		rec.Channel = binary.BigEndian.Uint16(b[pos+32:])
		rec.Code = binary.BigEndian.Uint32(b[pos+34:])
		rec.XSeq = binary.BigEndian.Uint64(b[pos+38:])
		rec.DeliverToKernel = b[pos+46] != 0
		rec.HasLink = b[pos+47] != 0
		bodyLen := int(binary.BigEndian.Uint32(b[pos+48:]))
		pos += BundleRecFixed - 1 // type byte already consumed
		if rec.HasLink {
			if len(b)-pos < BundleRecLink {
				return nil, ErrShortFrame
			}
			rec.Link.To = ProcID{Node: NodeID(int32(binary.BigEndian.Uint32(b[pos:]))), Local: binary.BigEndian.Uint32(b[pos+4:])}
			rec.Link.Channel = binary.BigEndian.Uint16(b[pos+8:])
			rec.Link.Code = binary.BigEndian.Uint32(b[pos+10:])
			rec.Link.DeliverToKernel = b[pos+14] != 0
			pos += BundleRecLink
		}
		if len(b)-pos < bodyLen {
			return nil, ErrShortFrame
		}
		body := b[pos : pos+bodyLen : pos+bodyLen]
		if isBatch(rec.Channel, body) {
			var err error
			if body, rec.Recs, err = splitBatch(body, nil); err != nil {
				return nil, err
			}
		}
		if len(body) > 0 {
			rec.Body = body
		}
		pos += bodyLen
		recs = append(recs, rec)
	}
	if pos != len(b) {
		return nil, ErrShortFrame
	}
	return recs, nil
}

// Recorder-ack id lists. A RecorderAck frame with a non-empty Body covers a
// whole batch of stored messages: the Body is a packed sequence of message
// ids (sender u32+u32, seq u64), no count prefix. An empty Body keeps the
// legacy single-id semantics (the frame's ID field).

// AckIDLen is the encoded size of one message id in a recorder-ack batch.
const AckIDLen = 4 + 4 + 8

// AppendAckID appends one message id to a recorder-ack batch body.
func AppendAckID(buf []byte, id MsgID) []byte {
	buf = appendProc(buf, id.Sender)
	return binary.BigEndian.AppendUint64(buf, id.Seq)
}

// DecodeAckIDs parses a recorder-ack batch body into ids (reusing its
// capacity).
func DecodeAckIDs(b []byte, ids []MsgID) ([]MsgID, error) {
	if len(b)%AckIDLen != 0 {
		return nil, ErrShortFrame
	}
	ids = ids[:0]
	for pos := 0; pos < len(b); pos += AckIDLen {
		ids = append(ids, MsgID{
			Sender: ProcID{Node: NodeID(int32(binary.BigEndian.Uint32(b[pos:]))), Local: binary.BigEndian.Uint32(b[pos+4:])},
			Seq:    binary.BigEndian.Uint64(b[pos+8:]),
		})
	}
	return ids, nil
}

package frame

import "slices"

// Bundle body wire format (the steady-state coalescing fast path).
//
// A Bundle frame packs several small guaranteed/unguaranteed messages for
// one destination node into a single MTU-sized frame, amortizing the fixed
// per-frame cost (header, checksum, interframe gap — on the paper's 10 Mb
// Ethernet the 1.6 ms interpacket delay dwarfs a small payload's clock-out
// time). In memory a Bundle holds its messages as records (Frame.Recs),
// each sharing its message's body, so the simulation never builds or
// parses the layout (codeBundle below): it is the wire codec only, run by
// AppendEncode and DecodeInto (record bodies alias the decoded buffer) and
// counted by WireLen, which is what the media charge for.
//
// The enclosing frame's XLow applies to every guaranteed record: all records
// of one bundle belong to the same src->dst transport stream.

// BundleHdrLen is the encoded size of the bundle body header.
const BundleHdrLen = 2

// BundleRecFixed is the per-record overhead excluding body and link.
const BundleRecFixed = 1 + 8 + 8 + 8 + 8 + 2 + 4 + 8 + 1 + 1 + 4

// BundleRecLink is the additional per-record overhead of a passed link.
const BundleRecLink = linkLen

// BundleRec is one message: a member of a Bundle frame (Frame.Recs), and
// the recorder's one record of a published message. The recorder's tap
// holds the record it heard while it waits for the acknowledgement, its
// stable store codes the record's ID, From, Channel, Code, link and Body,
// and a replay batch's records (Frame.Recs), a shard handoff's streams,
// Recorder.StreamMessages and the debugger's session are the records read
// back from the store, which use those fields only. Body is the message's
// body, shared with its sender (RecOf) or, after decoding, aliasing the
// decoded bytes or the store's page: a body is read-only once sent, so no
// copy is needed before handing records upward. Recs are the records of a
// replay batch riding in a Bundle: on the wire they follow Body inside the
// record's body.
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

// RecOf fills rec from a single-message frame, the inverse of ExpandInto.
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

// ExpandInto reconstitutes the record as a standalone frame, overwriting
// every field of f, carrying the enclosing bundle's addressing and stream
// low-water mark. The frame's Body still aliases the record. A passed link
// is a new Link of its own, so a listener that keeps the link (never the
// frame) keeps one nobody reuses.
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

// codeBundle codes a Bundle's body in wire mode, its records behind a
// count:
//
//	count u16, then count records (codeBundleRec)
//
// A decoder reuses recs's array.
func codeBundle(c *Coder, recs *[]BundleRec) {
	n := uint16(len(*recs))
	if Uint(c, &n); c.dec {
		*recs = resize(c, *recs, int(n), BundleRecFixed)
	}
	for i := range *recs {
		codeBundleRec(c, &(*recs)[i])
	}
}

// codeBundleRec codes one bundle record:
//
//	type u8 (Guaranteed | Unguaranteed)
//	id.sender u32+u32, id.seq u64, from u32+u32, to u32+u32,
//	channel u16, code u32, xseq u64, deliverToKernel u8, hasLink u8,
//	bodyLen u32,
//	[link: to u32+u32, channel u16, code u32, deliverToKernel u8,]
//	body (codeMsgBody)
func codeBundleRec(c *Coder, r *BundleRec) {
	Uint(c, &r.Type)
	c.MsgID(&r.ID)
	c.Proc(&r.From)
	c.Proc(&r.To)
	Uint(c, &r.Channel)
	Uint(c, &r.Code)
	Uint(c, &r.XSeq)
	c.Bool(&r.DeliverToKernel)
	c.Bool(&r.HasLink)
	n := uint32(len(r.Body) + replayLen(r.Recs))
	Uint(c, &n)
	if r.HasLink {
		c.Link(&r.Link)
	}
	codeMsgBody(c, r.Type, r.Channel, n, &r.Body, &r.Recs)
}

// msgRecs reports whether every record of a decoded Bundle is a message;
// one that is not is ErrBadType.
func msgRecs(recs []BundleRec) bool {
	for i := range recs {
		if t := recs[i].Type; t != Guaranteed && t != Unguaranteed {
			return false
		}
	}
	return true
}

// BeginBundle appends a bundle body header with a zero count onto buf. The
// sender appends records with AppendBundleRec and patches the count with
// FinishBundle.
func BeginBundle(buf []byte) []byte {
	return FinishBundle(slices.Grow(buf, BundleHdrLen)[:len(buf)+BundleHdrLen], len(buf), 0)
}

// AppendBundleRec appends one record to a bundle body.
func AppendBundleRec(buf []byte, rec *BundleRec) []byte {
	c := Coder{b: buf, wire: true}
	codeBundleRec(&c, rec)
	return c.b
}

// FinishBundle patches the record count into a body started at start.
func FinishBundle(buf []byte, start, count int) []byte {
	c := Coder{b: buf[start:start], wire: true} // codes over BeginBundle's count
	n := uint16(count)
	Uint(&c, &n)
	return buf
}

// DecodeBundle parses a bundle body into recs (reusing its capacity) and
// returns the filled slice. Record bodies alias b; the caller owns b for the
// records' lifetime. Bundles travel inside checksummed frames, so a decode
// failure means a software bug or trailing garbage, not wire noise; it is
// still reported (ErrShortFrame / ErrBadType) rather than trusted.
func DecodeBundle(b []byte, recs []BundleRec) ([]BundleRec, error) {
	c := Coder{b: b, dec: true, wire: true}
	if codeBundle(&c, &recs); c.bad || len(c.b) != 0 {
		return nil, ErrShortFrame
	}
	if !msgRecs(recs) {
		return nil, ErrBadType
	}
	return recs, nil
}

// Recorder-ack id lists. A RecorderAck frame with a non-empty Body covers a
// whole batch of stored messages: the Body is its message ids, each coded
// by MsgID in wire mode (sender u32+u32, seq u64), with no count. An empty
// Body keeps the legacy single-id semantics (the frame's ID field).

// AckIDLen is the encoded size of one message id in a recorder-ack batch.
const AckIDLen = 4 + 4 + 8

// AppendAckID appends one message id to a recorder-ack batch body.
func AppendAckID(buf []byte, id MsgID) []byte {
	c := Coder{b: buf, wire: true}
	c.MsgID(&id)
	return c.b
}

// DecodeAckIDs parses a recorder-ack batch body into ids (reusing its
// capacity).
func DecodeAckIDs(b []byte, ids []MsgID) ([]MsgID, error) {
	c := Coder{b: b, dec: true, wire: true}
	Tail(&c, &ids, AckIDLen)
	for i := range ids {
		c.MsgID(&ids[i])
	}
	if c.bad || len(c.b) != 0 {
		return nil, ErrShortFrame
	}
	return ids, nil
}

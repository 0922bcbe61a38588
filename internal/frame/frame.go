// Package frame defines the wire vocabulary shared by every layer of the
// reproduced system: process and message identifiers, link capabilities as
// they appear inside messages, and the network frame format with its
// link-layer rotating checksum (§4.3.3 of the paper).
//
// The paper's network is strictly layered (media, link, transport); this
// package is the part every layer agrees on. Frames can be serialized to a
// byte stream (used by cmd/starhub to run the star configuration over real
// TCP) and carry enough metadata for the recorder to publish them passively.
package frame

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// NodeID identifies a processor on the network. The recorder is a node too.
type NodeID int32

// Broadcast is the destination for frames addressed to every station.
const Broadcast NodeID = -1

// ProcID names a process uniquely network-wide. Following §4.3.1, it is the
// single-processor id made unique by appending the id of the node the
// process was created on; a process keeps its ProcID even if it migrates.
type ProcID struct {
	Node  NodeID // creating node
	Local uint32 // id unique within the creating node
}

// Nil is the zero ProcID, meaning "no process".
var NilProc ProcID

// IsNil reports whether p names no process.
func (p ProcID) IsNil() bool { return p == NilProc }

// Compare orders process ids by node, then local id.
func (p ProcID) Compare(q ProcID) int {
	return cmp.Or(cmp.Compare(p.Node, q.Node), cmp.Compare(p.Local, q.Local))
}

// String formats the ProcID as node.local.
func (p ProcID) String() string {
	if p.IsNil() {
		return "<nil-proc>"
	}
	return fmt.Sprintf("p%d.%d", p.Node, p.Local)
}

// ParseProcID parses a process id's text, what String prints for a non-nil
// id: "p<node>.<local>" in decimal, the node signed. It accepts nothing
// else: no plus sign, leading zero or minus zero, so every string it
// accepts is the String of the id it returns.
func ParseProcID(s string) (ProcID, bool) {
	rest, ok := strings.CutPrefix(s, "p")
	nodeStr, localStr, cut := strings.Cut(rest, ".")
	if !ok || !cut || !decimal(strings.TrimPrefix(nodeStr, "-")) || nodeStr == "-0" || !decimal(localStr) {
		return NilProc, false
	}
	node, err := strconv.ParseInt(nodeStr, 10, 32)
	local, err2 := strconv.ParseUint(localStr, 10, 32)
	p := ProcID{Node: NodeID(node), Local: uint32(local)}
	if err != nil || err2 != nil || p.IsNil() {
		return NilProc, false
	}
	return p, true
}

// decimal reports whether d is an unsigned decimal as fmt prints one: digits
// only, and no leading zero unless it is "0".
func decimal(d string) bool {
	for i := 0; i < len(d); i++ {
		if d[i] < '0' || d[i] > '9' {
			return false
		}
	}
	return d != "" && (d[0] != '0' || d == "0")
}

// MsgID uniquely identifies a guaranteed message (§4.3.3): "The identifier
// is made up of two fields: the unique identifier of the sending process and
// a number from that process's state block. This number is increased every
// time a message is sent by that process."
type MsgID struct {
	Sender ProcID
	Seq    uint64
}

// IsNil reports whether the id is unset.
func (m MsgID) IsNil() bool { return m.Sender.IsNil() && m.Seq == 0 }

// String formats the message id.
func (m MsgID) String() string { return fmt.Sprintf("%s#%d", m.Sender, m.Seq) }

// Marks holds one acceptance mark per sender, as the id of the highest
// sequence taken from it, in sender order. One sender's messages reach one
// process in sequence order, so an id at or below its sender's mark was
// taken already, or is older than one that was.
type Marks []MsgID

// procKey packs p into one integer ordered as Compare orders ids: the node
// in the high half, its sign bit flipped so -1 sorts below 0, and the local
// id in the low half.
func procKey(p ProcID) uint64 {
	return uint64(uint32(p.Node)^1<<31)<<32 | uint64(p.Local)
}

// find returns the position of sender's mark, or where it would go: a
// binary search comparing one packed key per probe.
func (m Marks) find(sender ProcID) (int, bool) {
	k := procKey(sender)
	lo, hi := 0, len(m)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if procKey(m[h].Sender) < k {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo, lo < len(m) && m[lo].Sender == sender
}

// Covers reports whether id is at or below its sender's mark.
func (m Marks) Covers(id MsgID) bool {
	i, ok := m.find(id.Sender)
	return ok && id.Seq <= m[i].Seq
}

// Note raises id's sender's mark to id.
func (m *Marks) Note(id MsgID) {
	switch i, ok := m.find(id.Sender); {
	case !ok:
		*m = slices.Insert(*m, i, id)
	case id.Seq > (*m)[i].Seq:
		(*m)[i].Seq = id.Seq
	}
}

// Take is Covers then, for an id not covered, Note, in one search: it
// reports whether id was taken already and otherwise takes it.
func (m *Marks) Take(id MsgID) (taken bool) {
	switch i, ok := m.find(id.Sender); {
	case !ok:
		*m = slices.Insert(*m, i, id)
	case id.Seq > (*m)[i].Seq:
		(*m)[i].Seq = id.Seq
	default:
		return true
	}
	return false
}

// Mark returns sender's mark, the highest sequence taken from it; ok is
// false when nothing has been.
func (m Marks) Mark(sender ProcID) (seq uint64, ok bool) {
	if i, ok := m.find(sender); ok {
		return m[i].Seq, true
	}
	return 0, false
}

// Link is a capability to send messages to a process (§4.2.2.1). Links live
// outside process address spaces — in kernel link tables or inside messages;
// this type is the in-message/wire representation. Channel and Code are
// stamped into the header of every message sent over the link.
type Link struct {
	// To is the process the link points at.
	To ProcID
	// Channel selects the receive channel at the destination (§4.2.2.2).
	Channel uint16
	// Code lets the receiver tell its links apart (§4.2.2.1).
	Code uint32
	// DeliverToKernel marks the process-control links of §4.4.3: messages
	// sent over such a link are handed to the kernel process on the
	// destination node, which acts on behalf of the addressed process.
	DeliverToKernel bool
}

// IsNil reports whether the link is unset.
func (l Link) IsNil() bool { return l.To.IsNil() }

// String formats the link.
func (l Link) String() string {
	k := ""
	if l.DeliverToKernel {
		k = " kernel"
	}
	return fmt.Sprintf("link(->%s ch=%d code=%d%s)", l.To, l.Channel, l.Code, k)
}

// Type classifies frames on the wire.
type Type uint8

const (
	// Unguaranteed frames carry dated/statistical traffic (routing tables,
	// "I'm alive" hints). Lost ones are never retransmitted.
	Unguaranteed Type = iota + 1
	// Guaranteed frames carry process messages; the transport layer
	// retransmits them until the destination node acknowledges end-to-end.
	Guaranteed
	// Ack is the end-to-end acknowledgement for a guaranteed frame. The
	// recorder also listens to these: an ack tells it the order in which
	// messages were accepted (queued) at the destination (§4.4.1).
	Ack
	// RecorderAck is the recorder's own acknowledgement, used by media or
	// transports that enforce publish-before-use (§3.3.4, §6.1): a receiver
	// must not use a guaranteed frame until the recorder has stored it.
	RecorderAck
	// Token is the circulating token of the ring medium (§6.1.2); it never
	// leaves the media layer.
	Token
	// Bundle coalesces several small guaranteed/unguaranteed messages for
	// the same destination node into one frame (the steady-state analogue
	// of the recovery replay batches). Its Recs are the messages; the
	// frame-level XLow applies to every guaranteed record, as they all
	// belong to the one src->dst transport stream.
	Bundle
)

var typeNames = map[Type]string{
	Unguaranteed: "unguaranteed",
	Guaranteed:   "guaranteed",
	Ack:          "ack",
	RecorderAck:  "recorder-ack",
	Token:        "token",
	Bundle:       "bundle",
}

// String returns the frame type name.
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Valid reports whether t is a known frame type; the link layer discards
// frames with invalid types (§4.3.3: "checking the message type for
// validity").
func (t Type) Valid() bool { _, ok := typeNames[t]; return ok }

// Frame is one transmission on the network medium. The flags sit beside
// Type and Slot beside Dst, in what would otherwise be padding, so a Frame,
// held by value in every flight, send-queue slot and free list, stays 160
// bytes.
type Frame struct {
	Type Type

	// DeliverToKernel routes the message to the destination node's kernel
	// process instead of directly to To (§4.4.3).
	DeliverToKernel bool

	// AckCumSet marks AckCum valid (see AckRecs).
	AckCumSet bool

	// Corrupt marks a frame whose checksum has been invalidated — either by
	// injected noise or deliberately by the ring recorder when it failed to
	// store the message (§6.1.2). The link layer discards corrupt frames.
	Corrupt bool

	// Src and Dst are station (node) addresses. Dst may be Broadcast.
	Src, Dst NodeID

	// Slot is the sending endpoint's own bookkeeping: which entry of its
	// table of frames out on the medium this one is, so handing the frame
	// back finds its owner without a lookup. It is never encoded, and means
	// nothing to anyone else.
	Slot uint32

	// ID identifies the guaranteed message this frame carries, or — for Ack
	// and RecorderAck frames — the message being acknowledged.
	ID MsgID

	// From and To are the endpoint processes for Guaranteed/Unguaranteed
	// frames. For control traffic generated on behalf of another process
	// (§4.4.3) From is the impersonated process, so the recorder attributes
	// the message correctly.
	From, To ProcID

	// Channel and Code are copied from the sending link (§4.2.2.3).
	Channel uint16
	Code    uint32

	// XSeq is the transport-layer stream sequence number used to preserve
	// per-processor message order (§4.3.3 anticipates "a windowing scheme
	// that will continue to preserve message ordering"). Layout: bits 63..48
	// hold the sender's boot epoch, bits 47..0 the per-destination sequence.
	XSeq uint64
	// XLow is the lowest XSeq still unacknowledged at the sender when this
	// frame (or retransmission) was put on the wire. The receiver syncs its
	// in-order delivery expectation to it: sequences below XLow were
	// acknowledged before and will never be resent.
	XLow uint64

	// PassedLink is the (at most one) link included in the message
	// (§4.2.2.3). Nil when no link is passed.
	PassedLink *Link

	// Body is uninterpreted payload. A Bundle has none: its records are its
	// body. A replay batch's is the batch header, its records following it.
	Body []byte

	// Recs are a Bundle's messages, in order, or a replay batch's replayed
	// messages. On the wire a Bundle's records are the frame's body, laid
	// out as bundle.go describes, and a batch's follow Body, laid out as
	// batch.go describes; in memory each record holds its message's header
	// and shares its body, so building or reading either copies no body.
	// No other frame has records.
	Recs []BundleRec

	// AckCum/AckRecs, with AckCumSet, are the piggybacked acknowledgement
	// block. Any gated frame may carry it in the reverse direction of a data
	// stream, so steady-state traffic needs no dedicated ack frames (the
	// delayed/cumulative scheme the LLFT line of systems uses). AckCum,
	// valid when AckCumSet, is a cumulative stream acknowledgement in XSeq
	// layout (epoch<<48 | seq): every guaranteed frame the sender put on
	// the Dst->Src stream with that epoch and a sequence <= seq is
	// acknowledged. AckRecs lists individually acknowledged messages in the
	// order they were accepted at the receiver — the recorder snoops the
	// list to learn arrival order exactly as it did standalone Ack frames
	// (§4.4.1).
	AckCum  uint64
	AckRecs []AckRec
}

// AckRec is one piggybacked end-to-end acknowledgement: the message id and
// the process that accepted it (the legacy standalone Ack frame's From).
type AckRec struct {
	ID  MsgID
	Rcv ProcID
}

// headerLen is the encoded size of codeFrame's fields up to bodyLen: all
// but Body, PassedLink, and the optional ack block.
const headerLen = 1 + 4 + 4 + 16 + 8 + 8 + 2 + 4 + 8 + 8 + 1 + 1 + 1 + 4

// linkLen is the encoded size of a passed link.
const linkLen = 4 + 4 + 2 + 4 + 1

// ackBlockLen is the fixed part of an encoded ack block (cumSet, cum,
// record count); AckRecLen is each piggybacked acknowledgement record.
const ackBlockLen = 1 + 8 + 2

// AckRecLen is the encoded size of one AckRec, exported so the transport
// can budget how many acknowledgements fit beside a data payload.
const AckRecLen = 4 + 4 + 8 + 4 + 4

// checksumLen is the trailing rotating checksum.
const checksumLen = 4

// MTU is the largest frame the simulated media carry, the classic Ethernet
// maximum the paper's 10 Mb network used.
const MTU = 1500

// MaxBody is the largest Body that fits in one MTU-sized frame alongside
// the header, a passed link, and the checksum. Senders that pack multiple
// records into one frame (the recovery replay pipeline) size their batches
// against this.
const MaxBody = MTU - headerLen - linkLen - checksumLen

// WireLen returns the number of bytes this frame occupies on the medium,
// used by the media simulations to compute transmission time. Acks and
// tokens are minimal frames.
func (f *Frame) WireLen() int {
	n := headerLen + f.BodyLen() + checksumLen
	if f.PassedLink != nil {
		n += linkLen
	}
	if f.hasAcks() {
		n += ackBlockLen + len(f.AckRecs)*AckRecLen
	}
	return n
}

// BodyLen is the encoded length of the frame's body: a Bundle's is its
// records' encoding, and a replay batch's is its header and its records'.
func (f *Frame) BodyLen() int {
	if f.Type != Bundle {
		return len(f.Body) + replayLen(f.Recs)
	}
	n := BundleHdrLen
	for i := range f.Recs {
		n += f.Recs[i].EncodedLen()
	}
	return n
}

// hasAcks reports whether the frame carries an ack block on the wire.
func (f *Frame) hasAcks() bool { return f.AckCumSet || len(f.AckRecs) > 0 }

// Clone returns a deep copy. A sent frame is shared by every listener,
// valid for each only during its Receive or Observe, and reused by its
// sender once the medium hands it back (lan.Releaser). A body is read-only
// from the sender's Send through every receiver and the recorder's log. So
// whoever keeps a frame, or starts a new transmission from one, copies only
// its header: each transport attempt and a kernel forward share the body.
// Clone is for a bridge crossing, whose far medium may mark its frame
// corrupt, and for callers that go on writing a frame they send. Records
// are copied, with their bodies (cloneRecs).
func (f *Frame) Clone() *Frame {
	g := *f
	if f.Body != nil {
		g.Body = append([]byte(nil), f.Body...)
	}
	if f.Recs != nil {
		g.Recs = cloneRecs(f.Recs)
	}
	if f.PassedLink != nil {
		l := *f.PassedLink
		g.PassedLink = &l
	}
	if f.AckRecs != nil {
		g.AckRecs = append([]AckRec(nil), f.AckRecs...)
	}
	return &g
}

// String summarizes the frame for traces.
func (f *Frame) String() string {
	switch f.Type {
	case Ack, RecorderAck:
		return fmt.Sprintf("%s(%s) n%d->n%d", f.Type, f.ID, f.Src, f.Dst)
	case Bundle:
		return fmt.Sprintf("bundle n%d->n%d len=%d acks=%d", f.Src, f.Dst, f.BodyLen(), len(f.AckRecs))
	case Token:
		return "token"
	default:
		return fmt.Sprintf("%s %s %s->%s ch=%d len=%d", f.Type, f.ID, f.From, f.To, f.Channel, f.BodyLen())
	}
}

// Checksum computes the link-layer rotating checksum over the encoded
// header and body (§4.3.3: "wrapping all messages with a rotating
// checksum"). It rotates the accumulator left one bit per byte and XORs, so
// byte transpositions are detected, unlike a plain additive sum.
func Checksum(b []byte) uint32 {
	var c uint32
	for _, x := range b {
		c = (c << 1) | (c >> 31) // rotate left 1
		c ^= uint32(x)
	}
	return c
}

// Encode serializes the frame including its trailing checksum. A Corrupt
// frame is encoded with its checksum complemented, exactly how the ring
// recorder invalidates a message it failed to store (§6.1.2).
func (f *Frame) Encode() []byte {
	return f.AppendEncode(make([]byte, 0, f.WireLen()))
}

// AppendEncode serializes the frame (checksum included) onto buf and
// returns the extended slice. Passing a reused buffer (`buf[:0]` of a
// previous call) makes encoding allocation-free — the media and starhub hot
// paths depend on this. The checksum covers only the bytes this call
// appends, so buf may already hold unrelated data.
func (f *Frame) AppendEncode(buf []byte) []byte {
	c := Coder{b: buf, wire: true}
	codeFrame(&c, f)
	sum := Checksum(c.b[len(buf):])
	if f.Corrupt {
		sum = ^sum
	}
	Uint(&c, &sum)
	return c.b
}

// codeFrame codes a frame, all but its checksum, in wire mode:
//
//	type u8, src u32, dst u32, id.sender u32+u32, id.seq u64,
//	from u32+u32, to u32+u32, channel u16, code u32, xseq u64, xlow u64,
//	deliverToKernel u8, hasLink u8, hasAcks u8, bodyLen u32,
//	[link: to u32+u32, channel u16, code u32, deliverToKernel u8,]
//	[acks: cumSet u8, cum u64, count u16,
//	    count × (id.sender u32+u32, id.seq u64, rcv u32+u32),]
//	body (codeMsgBody), to the end of the frame
//
// A decoder reuses f's link and its record arrays. A frame has one
// encoding: an ack block carries a cumulative ack or a record, and an
// unset cumulative ack is 0.
func codeFrame(c *Coder, f *Frame) {
	Uint(c, &f.Type)
	Int(c, &f.Src)
	Int(c, &f.Dst)
	c.MsgID(&f.ID)
	c.Proc(&f.From)
	c.Proc(&f.To)
	Uint(c, &f.Channel)
	Uint(c, &f.Code)
	Uint(c, &f.XSeq)
	Uint(c, &f.XLow)
	c.Bool(&f.DeliverToKernel)
	hasLink, hasAcks, n := f.PassedLink != nil, f.hasAcks(), uint32(f.BodyLen())
	c.Bool(&hasLink)
	c.Bool(&hasAcks)
	Uint(c, &n)
	switch {
	case hasLink:
		if f.PassedLink == nil {
			f.PassedLink = new(Link)
		}
		c.Link(f.PassedLink)
	case c.dec:
		f.PassedLink = nil
	}
	switch {
	case hasAcks:
		c.Bool(&f.AckCumSet)
		cum, k := f.AckCum, uint16(len(f.AckRecs))
		if !f.AckCumSet {
			cum = 0
		}
		Uint(c, &cum)
		if Uint(c, &k); c.dec {
			c.bad = c.bad || !f.AckCumSet && (cum != 0 || k == 0)
			f.AckCum, f.AckRecs = cum, resize(c, f.AckRecs, int(k), AckRecLen)
		}
		for i := range f.AckRecs {
			c.MsgID(&f.AckRecs[i].ID)
			c.Proc(&f.AckRecs[i].Rcv)
		}
	case c.dec:
		f.AckCumSet, f.AckCum, f.AckRecs = false, 0, nil
	}
	codeMsgBody(c, f.Type, f.Channel, n, &f.Body, &f.Recs)
}

// Decoding errors.
var (
	ErrShortFrame  = errors.New("frame: truncated")
	ErrBadChecksum = errors.New("frame: checksum mismatch")
	ErrBadType     = errors.New("frame: invalid type")
)

// Decode parses an encoded frame, verifying the checksum. A checksum
// mismatch returns ErrBadChecksum — the link layer's cue to discard the
// frame silently and let the transport layer retransmit.
func Decode(b []byte) (*Frame, error) {
	f := &Frame{}
	if err := DecodeInto(f, b); err != nil {
		return nil, err
	}
	return f, nil
}

// DecodeInto parses an encoded frame into f, verifying the checksum like
// Decode. It reuses f's existing Body and Recs capacity (and PassedLink
// allocation) where possible, so a caller decoding a stream of frames into
// one reused Frame allocates nothing in steady state. A Bundle's body, and
// a replay batch's after its header, is parsed into Recs, whose bodies
// alias b, so the caller keeps b as long as it keeps them. Bytes that are
// not codeFrame's one encoding of a frame are ErrShortFrame, or ErrBadType
// for an unknown type or a record that is no message. Every field of f is
// overwritten; on error f is left in an unspecified state.
func DecodeInto(f *Frame, b []byte) error {
	if len(b) < headerLen+checksumLen {
		return ErrShortFrame
	}
	payload := b[:len(b)-checksumLen]
	c := Coder{b: b[len(payload):], dec: true, wire: true}
	var sum uint32
	if Uint(&c, &sum); Checksum(payload) != sum {
		return ErrBadChecksum
	}
	body := f.Body[:0]
	c = Coder{b: payload, dec: true, wire: true}
	codeFrame(&c, f)
	f.Corrupt = false
	switch {
	case !f.Type.Valid():
		return ErrBadType
	case c.bad || len(c.b) != 0:
		return ErrShortFrame
	case f.Type == Bundle && !msgRecs(f.Recs):
		return ErrBadType
	}
	f.Body = append(body, f.Body...)
	return nil
}

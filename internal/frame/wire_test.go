package frame

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"
)

// wireHex is the wire encoding of each frameCorpus frame, captured before
// the layouts became code functions: every byte of it is wire time.
var wireHex = []string{
	"0200000000000000010000000000000001000000000000000700000000000000010000000100000002000300000063000100000000000c000100000000000a0000000000000d737465703d372073756d3d3432d8a82946",
	"0200000002ffffffff0000000200000005000000000000000100000002000000050000000100000000000000000000000000000000000000000000000000000101000000000100000002000000050009000000040100242783f2",
	"0300000001000000000000000000000001000000000000000700000000000000000000000000000000000000000000000000000000000c0000000000000000000000000000000026e062",
	"03000000010000000000000000000000010000000000000007000000000000000000000000000000000000000000000000000000000000000000000000000000000100000000010001000000000006000200000000000000010000000000000007000000010000000200000000000000030000000000000002000000010000000287180416",
	"0200000001000000000000000100000004000000000000000300000001000000040000000000000001000000000000000000000000000300000000000000000000010000000c0000000000000000000001000000000000000100000000000000090000000100000002726576657273652064617461e1fc951d",
	"06000000000000000100000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000100000000000a000000000000be0003020000000000000001000000000000000700000000000000010000000100000002000300000063000100000000000c00000000000d737465703d372073756d3d3432020000000000000001000000000000000800000000000000010000000100000002000000000000000100000000000d0101000000000000000000000001000900000004010100000000000000000000000000000000000000000000000000000001000000000000000000000000000000000000000000000001fea201de28",
	"06000000010000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000100000000000300000100000038010001000000000006000100000000000000010000000000000009000000010000000200010100000000000000000000000000000000000000000000000000000001000000000000000000000000000000000000000000000001fe457900fe",
	"06000000020000000300000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000002000080000319",
	"0400000003ffffffff00000000000000010000000000000008000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000a0210026",
	"01000000000000000200000000000000000000000000000000000000000000000000000002000000000000000000000000000000000000000000000000000000000000000001018000004b",
	"05000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000a0",
	"0200000000000000010000000000000001000000000000000900000000000000010000000100000002000000000000000000000000000000000000000000000000000000000c6e6f69736520676f74206d65edfb47f2",
}

// TestWireEncodingsUnchanged is the byte-identity proof of the wire code
// functions: every layout encodes as the hand-packed codec it replaced did,
// hex captured from that codec, and every size constant the transport, the
// recorder and the media budget with is what its code function writes.
func TestWireEncodingsUnchanged(t *testing.T) {
	pin := func(name string, got []byte, want string) {
		t.Helper()
		if h := hex.EncodeToString(got); h != want {
			t.Errorf("%s encodes as\n%s\nwant\n%s", name, h, want)
		}
	}
	for i, f := range frameCorpus() {
		pin(fmt.Sprintf("frameCorpus()[%d]", i), f.Encode(), wireHex[i])
	}
	batch := batchFrame(sampleRecs()[:2], 2, 4)
	batch.XSeq, batch.XLow = 1<<48|5, 1<<48|5
	var rec BundleRec
	rec.RecOf(batch)
	pin("a bundle carrying a batch", (&Frame{Type: Bundle, Src: 3, Dst: 1, XLow: 1<<48 | 5, Recs: []BundleRec{rec, bundleCorpus()[2]}}).Encode(),
		"060000000300000001000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000001000000000005000000000000e40002020000000300000001000000000000000400000003000000010000000100000000000e00000000000100000000000500000000007701000000010000000500000000000000020000000000000004000000020000000000000007000000000000002900000000000000070003000000090000000005666972737400000002000000010000000000000001000000020000000100000000000001000000010000000400010000004d01000000000100000000000000000000000000000000000000000000000000000001000000000000000000000000000000000000000000000001fea88f6e87")
	pin("a records batch", batchFrame(sampleRecs(), 3, 12).Encode(),
		"0200000003000000010000000300000001000000000000000c00000003000000010000000100000000000e0000000000000000000000000000000000000000000000000001c60100000001000000050000000000000003000000000000000c000000030000000000000007000000000000002900000000000000070003000000090000000005666972737400000002000000010000000000000001000000020000000100000000000001000000010000000400010000004d0100000000000000010000000200000000000023280000000100000002ffff80000000000000012c"+
			string(bytes.Repeat([]byte("ab"), 300))+"b30ed4c8")
	pin("a checkpoint chunk", EncodeCkChunk(nil, sampleProc, 2, 0, 3, []byte("checkpoint bytes")),
		"0200000001000000050000000000000002000000000000000000000003636865636b706f696e74206279746573")
	var ids []byte
	for _, id := range []MsgID{{Sender: ProcID{Node: 0, Local: 1}, Seq: 7}, {Sender: ProcID{Node: -1, Local: 5}, Seq: 1}, {Sender: ProcID{Node: 2, Local: 1 << 31}, Seq: 1<<63 | 9}} {
		ids = AppendAckID(ids, id)
	}
	pin("a 3-id recorder-ack list", ids, "00000000000000010000000000000007ffffffff00000005000000000000000100000002800000008000000000000009")

	// Each size constant is its code function's output.
	wire := func(code func(*Coder)) int {
		c := Coder{wire: true}
		code(&c)
		return len(c.b)
	}
	link := &Link{To: ProcID{Node: 1, Local: 2}, Channel: 3, Code: 4}
	ack := AckRec{ID: MsgID{Sender: ProcID{Node: 1, Local: 2}, Seq: 3}, Rcv: ProcID{Node: 4, Local: 5}}
	for _, k := range []struct {
		name      string
		got, want int
	}{
		{"headerLen", wire(func(c *Coder) { codeFrame(c, &Frame{Type: Ack}) }), headerLen},
		{"linkLen", wire(func(c *Coder) { c.Link(link) }), linkLen},
		{"checksumLen", len((&Frame{Type: Ack}).Encode()) - headerLen, checksumLen},
		{"ackBlockLen", wire(func(c *Coder) { codeFrame(c, &Frame{Type: Ack, AckCumSet: true}) }) - headerLen, ackBlockLen},
		{"AckRecLen", wire(func(c *Coder) { codeFrame(c, &Frame{Type: Ack, AckRecs: []AckRec{ack, ack}}) }) - headerLen - ackBlockLen, 2 * AckRecLen},
		{"BundleHdrLen", wire(func(c *Coder) { codeBundle(c, new([]BundleRec)) }), BundleHdrLen},
		{"BundleRecFixed", wire(func(c *Coder) { codeBundleRec(c, &BundleRec{Type: Guaranteed}) }), BundleRecFixed},
		{"BundleRecLink", wire(func(c *Coder) { codeBundleRec(c, &BundleRec{HasLink: true}) }) - BundleRecFixed, BundleRecLink},
		{"BatchHdrLen", wire(func(c *Coder) { codeBatchHdr(c, &BatchHdr{Kind: BatchRecords}) }), BatchHdrLen},
		{"replayRecFixed", wire(func(c *Coder) { codeReplayRec(c, &BundleRec{}) }), replayRecFixed},
		{"AckIDLen", len(AppendAckID(nil, MsgID{Seq: 1})), AckIDLen},
		{"MaxBody", len((&Frame{Type: Guaranteed, PassedLink: link, Body: make([]byte, MaxBody)}).Encode()), MTU},
	} {
		if k.got != k.want {
			t.Errorf("%s: the code function writes %d bytes, the constant is %d", k.name, k.got, k.want)
		}
	}
}

// reseal returns enc with byte i set to v and the checksum recomputed: a
// frame the link layer passes, whatever its fields.
func reseal(enc []byte, i int, v byte) []byte {
	b := append([]byte(nil), enc...)
	b[i] = v
	n := len(b) - checksumLen
	c := Coder{b: b[:n], wire: true}
	sum := Checksum(b[:n])
	Uint(&c, &sum)
	return c.b
}

// TestWireDecodeRejectsNonCanonical: a frame has one encoding. Each case is
// a validly checksummed frame whose fields decode to a frame that encodes to
// other bytes: a bool byte of 2, or an ack block's cumulative ack given
// though unset, or an ack block that carries nothing. Decode rejects each as
// ErrShortFrame, as it does a frame cut short.
func TestWireDecodeRejectsNonCanonical(t *testing.T) {
	// Byte offsets in the header (codeFrame): deliverToKernel, hasLink,
	// hasAcks sit before the 4-byte body length at its end; a link follows
	// the header and ends with its deliverToKernel.
	const (
		dtk     = headerLen - 4 - 3
		hasLink = dtk + 1
		hasAcks = dtk + 2
		linkDTK = headerLen + linkLen - 1
		// A Bundle's first record's hasLink: after the count, then type, id,
		// from, to, channel, code, xseq and deliverToKernel.
		bundleHasLink = headerLen + BundleHdrLen + 1 + 16 + 8 + 8 + 2 + 4 + 8 + 1
		// A batch's first record's hasLink: after the batch header, then
		// id, from, channel and code.
		replayHasLink = headerLen + BatchHdrLen + 16 + 8 + 2 + 4
	)
	withLink := frameCorpus()[1].Encode() // DeliverToKernel set, a link that delivers to the kernel
	withAcks := frameCorpus()[3].Encode() // AckCumSet, two records
	cumZero := (&Frame{Type: Ack, Src: 1, Dst: 0, AckCumSet: true}).Encode()
	bundle := (&Frame{Type: Bundle, Src: 0, Dst: 1, Recs: bundleCorpus()[1:]}).Encode()
	batch := batchFrame(sampleRecs()[1:2], 3, 12).Encode()
	cases := []struct {
		name string
		b    []byte
	}{
		{"deliverToKernel 2", reseal(withLink, dtk, 2)},
		{"hasLink 2", reseal(withLink, hasLink, 2)},
		{"hasAcks 2", reseal(withAcks, hasAcks, 2)},
		{"the link's deliverToKernel 2", reseal(withLink, linkDTK, 2)},
		{"a bundle record's hasLink 2", reseal(bundle, bundleHasLink, 2)},
		{"a replay record's hasLink 2", reseal(batch, replayHasLink, 2)},
		{"an unset cumulative ack given", reseal(withAcks, headerLen, 0)},
		{"an ack block with nothing in it", reseal(cumZero, headerLen, 0)},
	}
	// The untouched frames decode: only the byte a case changes is at odds.
	for _, ok := range [][]byte{withLink, withAcks, cumZero, bundle, batch} {
		if _, err := Decode(ok); err != nil {
			t.Fatalf("a canonical frame does not decode: %v", err)
		}
	}
	for _, k := range cases {
		if g, err := Decode(k.b); !errors.Is(err, ErrShortFrame) {
			t.Errorf("%s: decoded to %v, err %v; want ErrShortFrame", k.name, g, err)
		}
	}
}

package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

func bundleCorpus() []BundleRec {
	return []BundleRec{
		{
			Type: Guaranteed,
			ID:   MsgID{Sender: ProcID{Node: 0, Local: 1}, Seq: 7},
			From: ProcID{Node: 0, Local: 1}, To: ProcID{Node: 1, Local: 2},
			Channel: 3, Code: 99, XSeq: 1<<48 | 12,
			Body: []byte("step=7 sum=42"),
		},
		{
			Type: Guaranteed,
			ID:   MsgID{Sender: ProcID{Node: 0, Local: 1}, Seq: 8},
			From: ProcID{Node: 0, Local: 1}, To: ProcID{Node: 1, Local: 2},
			XSeq: 1<<48 | 13, DeliverToKernel: true,
			HasLink: true,
			Link:    Link{To: ProcID{Node: 0, Local: 1}, Channel: 9, Code: 4, DeliverToKernel: true},
		},
		{
			Type: Unguaranteed,
			From: ProcID{Node: 0, Local: 0}, To: ProcID{Node: 1, Local: 0},
			Body: []byte{0xfe},
		},
	}
}

func TestBundleRoundTrip(t *testing.T) {
	recs := bundleCorpus()
	body := BeginBundle(nil)
	want := BundleHdrLen
	for i := range recs {
		body = AppendBundleRec(body, &recs[i])
		want += recs[i].EncodedLen()
	}
	body = FinishBundle(body, 0, len(recs))
	if len(body) != want {
		t.Fatalf("encoded %d bytes, EncodedLen sums to %d", len(body), want)
	}

	got, err := DecodeBundle(body, nil)
	if err != nil {
		t.Fatalf("DecodeBundle: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		g, w := got[i], recs[i]
		if len(g.Body) == 0 {
			g.Body = nil
		}
		if !bytes.Equal(g.Body, w.Body) {
			t.Errorf("record %d body mismatch: %q vs %q", i, g.Body, w.Body)
		}
		g.Body, w.Body = nil, nil
		if !reflect.DeepEqual(g, w) {
			t.Errorf("record %d mismatch:\n got %+v\nwant %+v", i, g, w)
		}
	}
	// Zero-copy: decoded bodies alias the batch body.
	if len(got[0].Body) > 0 && &got[0].Body[0] != &body[BundleHdrLen+BundleRecFixed] {
		t.Error("decoded record body does not alias the bundle body")
	}
}

func TestBundleRecExpand(t *testing.T) {
	bundle := &Frame{Type: Bundle, Src: 0, Dst: 1, XLow: 1<<48 | 10}
	rec := bundleCorpus()[1]
	f := new(Frame)
	rec.ExpandInto(f, bundle)
	if f.Type != Guaranteed || f.Src != 0 || f.Dst != 1 || f.XLow != bundle.XLow {
		t.Fatalf("expanded frame lost addressing: %+v", f)
	}
	if f.ID != rec.ID || f.XSeq != rec.XSeq || !f.DeliverToKernel {
		t.Fatalf("expanded frame lost record fields: %+v", f)
	}
	if f.PassedLink == nil || *f.PassedLink != rec.Link {
		t.Fatalf("expanded frame lost the passed link: %+v", f.PassedLink)
	}

	// RecOf is the inverse.
	var back BundleRec
	back.RecOf(f)
	if !reflect.DeepEqual(back, rec) {
		t.Fatalf("RecOf(ExpandInto(rec)) != rec:\n got %+v\nwant %+v", back, rec)
	}
}

// TestBundleDecodeRejectsGarbage: a malformed bundle body is an error, from
// DecodeBundle and from DecodeInto, which parses a checksummed Bundle's body
// whatever its header says.
func TestBundleDecodeRejectsGarbage(t *testing.T) {
	recs := bundleCorpus()
	body := BeginBundle(nil)
	for i := range recs {
		body = AppendBundleRec(body, &recs[i])
	}
	body = FinishBundle(body, 0, len(recs))

	cases := [][]byte{
		nil,
		{0},
		body[:len(body)-1],                       // truncated record
		append(body[:len(body):len(body)], 0xaa), // trailing garbage
	}
	for i, b := range cases {
		if _, err := DecodeBundle(b, nil); err == nil {
			t.Errorf("case %d: decode accepted malformed body", i)
		} else if !errors.Is(err, ErrShortFrame) && !errors.Is(err, ErrBadType) {
			t.Errorf("case %d: undocumented error %v", i, err)
		}
		if _, err := Decode(asBundle((&Frame{Type: Unguaranteed, Body: b}).Encode())); !errors.Is(err, ErrShortFrame) {
			t.Errorf("case %d: a Bundle frame with this body decoded: err=%v", i, err)
		}
	}

	bad := append([]byte(nil), body...)
	bad[BundleHdrLen] = uint8(Token) // records cannot be control frames
	if _, err := DecodeBundle(bad, nil); !errors.Is(err, ErrBadType) {
		t.Errorf("bad record type not rejected: %v", err)
	}
	if _, err := Decode(asBundle((&Frame{Type: Unguaranteed, Body: bad}).Encode())); !errors.Is(err, ErrBadType) {
		t.Errorf("a Bundle frame with a bad record type decoded: err=%v", err)
	}
}

// asBundle rewrites an encoded frame's type byte to Bundle and re-checksums
// it, so its body reaches the bundle parser as it is.
func asBundle(enc []byte) []byte {
	b := append([]byte(nil), enc...)
	b[0] = byte(Bundle)
	n := len(b) - checksumLen
	binary.BigEndian.PutUint32(b[n:], Checksum(b[:n]))
	return b
}

// randomRecs returns up to 12 records: guaranteed members and unguaranteed
// riders, with and without a passed link, with nil, empty and full bodies.
func randomRecs(rng *rand.Rand) []BundleRec {
	proc := func() ProcID { return ProcID{Node: NodeID(rng.Intn(5) - 1), Local: rng.Uint32()} }
	recs := make([]BundleRec, rng.Intn(13))
	for i := range recs {
		r := &recs[i]
		r.Type = Guaranteed
		if rng.Intn(3) == 0 {
			r.Type = Unguaranteed
		}
		r.ID = MsgID{Sender: proc(), Seq: rng.Uint64()}
		r.From, r.To = proc(), proc()
		r.Channel, r.Code, r.XSeq = uint16(rng.Uint32()), rng.Uint32(), rng.Uint64()
		r.DeliverToKernel = rng.Intn(2) == 0
		if r.HasLink = rng.Intn(2) == 0; r.HasLink {
			r.Link = Link{To: proc(), Channel: uint16(rng.Uint32()), Code: rng.Uint32(), DeliverToKernel: rng.Intn(2) == 0}
		}
		switch rng.Intn(3) {
		case 0:
			r.Body = []byte{}
		case 1:
			r.Body = make([]byte, 1+rng.Intn(100))
			rng.Read(r.Body)
		}
	}
	return recs
}

// TestBundleCodecEquivalence: a Bundle carries its records, and its wire
// bytes are the bundle layout of them. Over random record sets, AppendEncode
// writes exactly the frame whose body BeginBundle, AppendBundleRec and
// FinishBundle build from the same records; WireLen counts it, String reports
// its length as it always has, DecodeInto gives the records back aliasing
// the bytes it read, and Clone's copy encodes the same while sharing no
// body.
func TestBundleCodecEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var g Frame
	for i := 0; i < 500; i++ {
		f := &Frame{Type: Bundle, Src: NodeID(rng.Intn(4)), Dst: NodeID(rng.Intn(4)), XLow: rng.Uint64(), Recs: randomRecs(rng)}
		if rng.Intn(2) == 0 {
			f.AckCumSet, f.AckCum = true, rng.Uint64()
			for k := rng.Intn(4); k > 0; k-- {
				f.AckRecs = append(f.AckRecs, AckRec{ID: MsgID{Sender: ProcID{Node: 1, Local: rng.Uint32()}, Seq: rng.Uint64()}})
			}
		}
		body := BeginBundle(nil)
		for k := range f.Recs {
			body = AppendBundleRec(body, &f.Recs[k])
		}
		body = FinishBundle(body, 0, len(f.Recs))
		opaque := *f
		opaque.Type, opaque.Recs, opaque.Body = Unguaranteed, nil, body
		wire := asBundle(opaque.Encode())

		enc := f.Encode()
		if !bytes.Equal(enc, wire) {
			t.Fatalf("run %d: AppendEncode differs from the bundle codec's body:\n got %x\nwant %x", i, enc, wire)
		}
		if f.WireLen() != len(enc) {
			t.Fatalf("run %d: WireLen %d, encoded %d bytes", i, f.WireLen(), len(enc))
		}
		if s, w := f.String(), fmt.Sprintf("bundle n%d->n%d len=%d acks=%d", f.Src, f.Dst, len(body), len(f.AckRecs)); s != w {
			t.Fatalf("run %d: String %q, want %q", i, s, w)
		}

		if err := DecodeInto(&g, enc); err != nil {
			t.Fatalf("run %d: DecodeInto: %v", i, err)
		}
		for k := range g.Recs {
			if b := g.Recs[k].Body; len(b) > 0 && !aliases(enc, b) {
				t.Fatalf("run %d: record %d's body does not alias the decoded bytes", i, k)
			}
		}
		got, want := g, *f
		got.Recs = append([]BundleRec(nil), g.Recs...)
		want.Recs = append([]BundleRec(nil), f.Recs...)
		normalizeBody(&got)
		normalizeBody(&want)
		if !reflect.DeepEqual(&got, &want) {
			t.Fatalf("run %d: DecodeInto did not round-trip:\n got %+v\nwant %+v", i, got, want)
		}

		c := f.Clone()
		if !bytes.Equal(c.Encode(), enc) {
			t.Fatalf("run %d: the clone encodes differently", i)
		}
		for k := range c.Recs {
			if b := c.Recs[k].Body; len(b) > 0 && &b[0] == &f.Recs[k].Body[0] {
				t.Fatalf("run %d: the clone shares record %d's body", i, k)
			}
		}
	}
}

// aliases reports whether b lies inside buf.
func aliases(buf, b []byte) bool {
	for i := range buf {
		if &buf[i] == &b[0] {
			return true
		}
	}
	return false
}

func TestAckIDListRoundTrip(t *testing.T) {
	ids := []MsgID{
		{Sender: ProcID{Node: 0, Local: 1}, Seq: 7},
		{Sender: ProcID{Node: 2, Local: 5}, Seq: 1},
	}
	var body []byte
	for _, id := range ids {
		body = AppendAckID(body, id)
	}
	if len(body) != len(ids)*AckIDLen {
		t.Fatalf("encoded %d bytes, want %d", len(body), len(ids)*AckIDLen)
	}
	got, err := DecodeAckIDs(body, nil)
	if err != nil {
		t.Fatalf("DecodeAckIDs: %v", err)
	}
	if !reflect.DeepEqual(got, ids) {
		t.Fatalf("round trip mismatch: %v vs %v", got, ids)
	}
	if _, err := DecodeAckIDs(body[:AckIDLen+3], nil); err == nil {
		t.Fatal("truncated id list not rejected")
	}
}

func TestAckBlockRoundTrip(t *testing.T) {
	f := &Frame{
		Type: Guaranteed, Src: 1, Dst: 0,
		ID:   MsgID{Sender: ProcID{Node: 1, Local: 4}, Seq: 3},
		From: ProcID{Node: 1, Local: 4}, To: ProcID{Node: 0, Local: 1},
		XSeq: 3, Body: []byte("reverse data"),
		AckCumSet: true, AckCum: 1<<48 | 6,
		AckRecs: []AckRec{
			{ID: MsgID{Sender: ProcID{Node: 0, Local: 1}, Seq: 7}, Rcv: ProcID{Node: 1, Local: 2}},
		},
	}
	enc := f.Encode()
	if len(enc) != f.WireLen() {
		t.Fatalf("WireLen %d but encoded %d bytes", f.WireLen(), len(enc))
	}
	g, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !g.AckCumSet || g.AckCum != f.AckCum || !reflect.DeepEqual(g.AckRecs, f.AckRecs) {
		t.Fatalf("ack block did not round trip: %+v", g)
	}
	// Clone must deep-copy the records.
	c := f.Clone()
	c.AckRecs[0].ID.Seq = 999
	if f.AckRecs[0].ID.Seq == 999 {
		t.Fatal("Clone shares AckRecs storage")
	}
}

package frame

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

func sampleFrame() *Frame {
	return &Frame{
		Type:    Guaranteed,
		Src:     2,
		Dst:     5,
		ID:      MsgID{Sender: ProcID{Node: 2, Local: 7}, Seq: 42},
		From:    ProcID{Node: 2, Local: 7},
		To:      ProcID{Node: 5, Local: 3},
		Channel: 9,
		Code:    1234,
		PassedLink: &Link{
			To:      ProcID{Node: 5, Local: 3},
			Channel: 1,
			Code:    88,
		},
		Body: []byte("read block 12 of file foo"),
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := sampleFrame()
	g, err := Decode(f.Encode())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(f, g) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", g, f)
	}
}

// TestSlotStaysLocal: Slot is the sending endpoint's bookkeeping. It is not
// on the wire, and it costs the header no room: a Frame, held by value in
// every flight, send-queue slot and free list, stays 160 bytes.
func TestSlotStaysLocal(t *testing.T) {
	if s := unsafe.Sizeof(Frame{}); s != 160 {
		t.Errorf("a Frame is %d bytes; want 160", s)
	}
	f := sampleFrame()
	f.Slot = 12345
	if !bytes.Equal(f.Encode(), sampleFrame().Encode()) {
		t.Fatal("Slot changed the encoding")
	}
	g, err := Decode(f.Encode())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if g.Slot != 0 {
		t.Fatalf("decoded Slot = %d; want 0", g.Slot)
	}
}

func TestEncodeDecodeNoLinkNoBody(t *testing.T) {
	f := &Frame{Type: Ack, Src: 1, Dst: 2, ID: MsgID{Sender: ProcID{Node: 1, Local: 1}, Seq: 9}}
	g, err := Decode(f.Encode())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(f, g) {
		t.Fatalf("round trip mismatch: %+v vs %+v", g, f)
	}
}

func TestDecodeRejectsCorruptChecksum(t *testing.T) {
	f := sampleFrame()
	f.Corrupt = true
	if _, err := Decode(f.Encode()); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("corrupt frame decoded: err=%v", err)
	}
}

func TestDecodeRejectsBitFlips(t *testing.T) {
	enc := sampleFrame().Encode()
	for i := 0; i < len(enc); i++ {
		b := append([]byte(nil), enc...)
		b[i] ^= 0x40
		if _, err := Decode(b); err == nil {
			t.Fatalf("bit flip at byte %d went undetected", i)
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	enc := sampleFrame().Encode()
	for _, n := range []int{0, 1, headerLen - 1, headerLen, len(enc) - 1} {
		if _, err := Decode(enc[:n]); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", n)
		}
	}
}

func TestDecodeRejectsInvalidType(t *testing.T) {
	f := sampleFrame()
	f.PassedLink = nil
	enc := f.Encode()
	// Overwrite type byte and re-checksum so only the type is wrong.
	payload := append([]byte(nil), enc[:len(enc)-checksumLen]...)
	payload[0] = 200
	g := &Frame{}
	_ = g
	sum := Checksum(payload)
	var b []byte
	b = append(b, payload...)
	b = append(b, byte(sum>>24), byte(sum>>16), byte(sum>>8), byte(sum))
	if _, err := Decode(b); !errors.Is(err, ErrBadType) {
		t.Fatalf("invalid type accepted: err=%v", err)
	}
}

func TestChecksumDetectsTransposition(t *testing.T) {
	a := Checksum([]byte{1, 2, 3, 4})
	b := Checksum([]byte{1, 3, 2, 4})
	if a == b {
		t.Fatal("rotating checksum failed to detect transposition")
	}
}

func TestWireLenMatchesEncoding(t *testing.T) {
	cases := []*Frame{
		sampleFrame(),
		{Type: Ack, Src: 1, Dst: 2},
		{Type: Unguaranteed, Src: 0, Dst: Broadcast, Body: make([]byte, 1024)},
		{Type: Token},
	}
	for _, f := range cases {
		if got := len(f.Encode()); got != f.WireLen() {
			t.Errorf("WireLen=%d but encoding is %d bytes (%v)", f.WireLen(), got, f.Type)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	f := sampleFrame()
	g := f.Clone()
	g.Body[0] = 'X'
	g.PassedLink.Code = 999
	if f.Body[0] == 'X' || f.PassedLink.Code == 999 {
		t.Fatal("Clone shares storage with the original")
	}
	if !reflect.DeepEqual(f, sampleFrame()) {
		t.Fatal("original mutated")
	}
}

func TestProcIDAndMsgIDHelpers(t *testing.T) {
	if !NilProc.IsNil() {
		t.Fatal("NilProc not nil")
	}
	p := ProcID{Node: 3, Local: 4}
	if p.IsNil() || p.String() != "p3.4" {
		t.Fatalf("ProcID helpers: %v", p)
	}
	var m MsgID
	if !m.IsNil() {
		t.Fatal("zero MsgID not nil")
	}
	a := MsgID{Sender: p, Seq: 1}
	if q := (ProcID{Node: 3, Local: 5}); p.Compare(q) >= 0 || q.Compare(p) <= 0 || p.Compare(p) != 0 {
		t.Fatal("ProcID.Compare local ordering wrong")
	}
	if q := (ProcID{Node: 1, Local: 9}); q.Compare(p) >= 0 {
		t.Fatal("ProcID.Compare node ordering wrong")
	}
	if a.String() != "p3.4#1" {
		t.Fatalf("MsgID.String = %q", a.String())
	}
}

func TestLinkString(t *testing.T) {
	l := Link{To: ProcID{Node: 1, Local: 2}, Channel: 3, Code: 4, DeliverToKernel: true}
	if l.IsNil() {
		t.Fatal("non-nil link reported nil")
	}
	if s := l.String(); s != "link(->p1.2 ch=3 code=4 kernel)" {
		t.Fatalf("Link.String = %q", s)
	}
}

// Property: encode/decode round-trips for arbitrary frames.
func TestEncodeDecodeProperty(t *testing.T) {
	gen := func(r *rand.Rand) *Frame {
		f := &Frame{
			Type:            []Type{Unguaranteed, Guaranteed, Ack, RecorderAck}[r.Intn(4)],
			Src:             NodeID(r.Intn(100)),
			Dst:             NodeID(r.Intn(100) - 1),
			ID:              MsgID{Sender: ProcID{Node: NodeID(r.Intn(10)), Local: r.Uint32()}, Seq: r.Uint64()},
			From:            ProcID{Node: NodeID(r.Intn(10)), Local: r.Uint32()},
			To:              ProcID{Node: NodeID(r.Intn(10)), Local: r.Uint32()},
			Channel:         uint16(r.Uint32()),
			Code:            r.Uint32(),
			DeliverToKernel: r.Intn(2) == 0,
		}
		if n := r.Intn(200); n > 0 {
			f.Body = make([]byte, n)
			r.Read(f.Body)
		}
		if r.Intn(2) == 0 {
			f.PassedLink = &Link{
				To:      ProcID{Node: NodeID(r.Intn(10)), Local: r.Uint32()},
				Channel: uint16(r.Uint32()),
				Code:    r.Uint32(),
			}
		}
		return f
	}
	cfg := &quick.Config{MaxCount: 500}
	if err := quick.Check(func(seed int64) bool {
		f := gen(rand.New(rand.NewSource(seed)))
		g, err := Decode(f.Encode())
		return err == nil && reflect.DeepEqual(f, g)
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: any single-byte corruption of the encoding is rejected.
func TestCorruptionDetectionProperty(t *testing.T) {
	enc := sampleFrame().Encode()
	if err := quick.Check(func(pos int, mask byte) bool {
		if mask == 0 {
			return true
		}
		i := pos % len(enc)
		if i < 0 {
			i += len(enc)
		}
		b := append([]byte(nil), enc...)
		b[i] ^= mask
		_, err := Decode(b)
		return err != nil
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestTypeStrings(t *testing.T) {
	for ty, want := range map[Type]string{
		Unguaranteed: "unguaranteed",
		Guaranteed:   "guaranteed",
		Ack:          "ack",
		RecorderAck:  "recorder-ack",
		Token:        "token",
	} {
		if ty.String() != want {
			t.Errorf("Type(%d).String() = %q, want %q", ty, ty.String(), want)
		}
		if !ty.Valid() {
			t.Errorf("Type %v not Valid", ty)
		}
	}
	if Type(0).Valid() || Type(99).Valid() {
		t.Error("invalid types reported valid")
	}
}

func TestFrameString(t *testing.T) {
	f := sampleFrame()
	if s := f.String(); !bytes.Contains([]byte(s), []byte("guaranteed")) {
		t.Fatalf("String = %q", s)
	}
	ack := &Frame{Type: Ack, Src: 1, Dst: 2, ID: MsgID{Sender: ProcID{Node: 1, Local: 1}, Seq: 3}}
	if s := ack.String(); !bytes.Contains([]byte(s), []byte("ack")) {
		t.Fatalf("ack String = %q", s)
	}
	if (&Frame{Type: Token}).String() != "token" {
		t.Fatal("token String")
	}
}

func TestAppendEncodeMatchesEncode(t *testing.T) {
	for _, f := range []*Frame{
		sampleFrame(),
		{Type: Ack, Src: 1, Dst: 2, ID: MsgID{Sender: ProcID{Node: 1, Local: 1}, Seq: 9}},
		{Type: Token},
	} {
		if !bytes.Equal(f.Encode(), f.AppendEncode(nil)) {
			t.Fatalf("AppendEncode(nil) differs from Encode for %v", f)
		}
		// Appending after a prefix must checksum only the frame bytes.
		pre := []byte{0xde, 0xad}
		out := f.AppendEncode(append([]byte(nil), pre...))
		if !bytes.Equal(out[:2], pre) {
			t.Fatal("AppendEncode clobbered the prefix")
		}
		if g, err := Decode(out[2:]); err != nil {
			t.Fatalf("Decode after prefix: %v", err)
		} else if g.ID != f.ID {
			t.Fatalf("round trip after prefix mismatch: %v vs %v", g.ID, f.ID)
		}
	}
}

func TestDecodeIntoReusesBuffers(t *testing.T) {
	f := sampleFrame()
	enc := f.Encode()
	var g Frame
	if err := DecodeInto(&g, enc); err != nil {
		t.Fatalf("DecodeInto: %v", err)
	}
	if !reflect.DeepEqual(f, &g) {
		t.Fatalf("DecodeInto mismatch:\n got %+v\nwant %+v", &g, f)
	}
	// Second decode into the same frame must reuse Body and PassedLink.
	body, link := &g.Body[0], g.PassedLink
	if err := DecodeInto(&g, enc); err != nil {
		t.Fatalf("DecodeInto (reuse): %v", err)
	}
	if &g.Body[0] != body || g.PassedLink != link {
		t.Fatal("DecodeInto did not reuse buffers")
	}
	// A link-less frame must clear the reused link, and stale fields must
	// not leak through.
	h := &Frame{Type: Unguaranteed, Src: 3, Dst: 4}
	if err := DecodeInto(&g, h.Encode()); err != nil {
		t.Fatalf("DecodeInto (link-less): %v", err)
	}
	if g.PassedLink != nil || len(g.Body) != 0 || g.DeliverToKernel {
		t.Fatalf("stale state leaked: %+v", &g)
	}
}

func TestEncodeDecodeSteadyStateAllocFree(t *testing.T) {
	f := sampleFrame()
	var buf []byte
	var g Frame
	buf = f.AppendEncode(buf[:0])
	if err := DecodeInto(&g, buf); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		buf = f.AppendEncode(buf[:0])
		if err := DecodeInto(&g, buf); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Fatalf("steady-state encode/decode allocates %.1f allocs/run, want 0", avg)
	}
}

// ParseProcID reads back what String prints for every process id, and
// rejects what String never prints, among it what a scanf-style parse of
// "p%d.%d" would take.
func TestParseProcID(t *testing.T) {
	for _, p := range []ProcID{{Node: 3, Local: 44}, {Node: 0, Local: 1}, {Node: 7, Local: 0},
		{Node: -1, Local: 5}, {Node: math.MinInt32, Local: math.MaxUint32}, {Node: math.MaxInt32}} {
		if got, ok := ParseProcID(p.String()); !ok || got != p {
			t.Errorf("ParseProcID(%q) = %v, %v", p.String(), got, ok)
		}
	}
	for _, s := range []string{"", "p", "p.", "p1", "p1.", "p.1", "3.44", "P3.44", "zork", "<nil-proc>",
		"p0.0", "p+1.2", "p01.2", "p1.02", "p-0.1", "p1.+2", "p1.-2", "p 1.2", "p1.2 ", "p1.2.3", "p1.2x",
		"p2147483648.1", "p1.4294967296", "p1_0.2"} {
		if p, ok := ParseProcID(s); ok {
			t.Errorf("ParseProcID(%q) accepted %v", s, p)
		}
	}
}

// FuzzParseProcID: whatever ParseProcID accepts is what String prints for
// the id it returns, and every id's String parses back to it.
func FuzzParseProcID(f *testing.F) {
	for _, s := range []string{"p3.44", "p-1.5", "p01.2", "p+1.2", "<nil-proc>", "p0.0"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if p, ok := ParseProcID(s); ok && (p.IsNil() || p.String() != s) {
			t.Fatalf("ParseProcID(%q) = %v, which prints %q", s, p, p.String())
		}
		var p ProcID
		for i := 0; i < len(s); i++ {
			p.Local = p.Local*31 + uint32(s[i])
			p.Node = p.Node*37 - NodeID(s[i])
		}
		if got, ok := ParseProcID(p.String()); ok != !p.IsNil() || ok && got != p {
			t.Fatalf("ParseProcID(%q) = %v, %v", p.String(), got, ok)
		}
	})
}

package gobx

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
)

type inner struct {
	A uint64
	B [12]byte
}

// sample stands in for the types that go through a Codec in the product —
// demos.CtlMsg, demos.Notice and demos.CtlReply (wire bodies), the
// recorder's procMeta and ckMeta (store records) — which this package cannot
// import. It has their field shapes: integers, a string, a byte slice, a
// pointer to a struct, a nested struct with an array, a bool.
type sample struct {
	Kind  uint8
	Name  string
	Body  []byte
	Seq   uint64
	Ptr   *inner
	Fixed inner
	Flag  bool
}

func oneShot(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("one-shot encode: %v", err)
	}
	return buf.Bytes()
}

func samples() []sample {
	return []sample{
		{},
		{Kind: 3, Name: "alpha", Body: []byte("payload"), Seq: 1},
		{Name: "", Body: nil, Seq: ^uint64(0), Flag: true},
		{Ptr: &inner{A: 9, B: [12]byte{1, 2, 3}}, Fixed: inner{A: 7}},
		{Kind: 255, Name: "trailing", Body: make([]byte, 300), Seq: 42,
			Ptr: &inner{}, Flag: true},
	}
}

// TestEncodeMatchesOneShot is the byte-identity pin: every Encode must
// produce exactly the stream a fresh gob encoder would, in any call order.
func TestEncodeMatchesOneShot(t *testing.T) {
	var c Codec[sample]
	for round := 0; round < 3; round++ {
		for i, v := range samples() {
			v := v
			got, err := c.Encode(nil, &v)
			if err != nil {
				t.Fatalf("round %d sample %d: %v", round, i, err)
			}
			want := oneShot(t, &v)
			if !bytes.Equal(got, want) {
				t.Fatalf("round %d sample %d: stream mismatch\n got %x\nwant %x", round, i, got, want)
			}
		}
	}
}

// TestEncodeAppends verifies Encode appends to dst rather than clobbering.
func TestEncodeAppends(t *testing.T) {
	var c Codec[sample]
	v := samples()[1]
	got, err := c.Encode([]byte("head"), &v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, []byte("head")) {
		t.Fatalf("dst prefix lost: %q", got[:8])
	}
	if !bytes.Equal(got[4:], oneShot(t, &v)) {
		t.Fatal("appended stream differs from one-shot encoding")
	}
}

// TestDecodeRoundTrip runs both decode paths: fast (our own streams) and
// fallback (a stream with an unexpected descriptor section).
func TestDecodeRoundTrip(t *testing.T) {
	var c Codec[sample]
	for i, v := range samples() {
		v := v
		b, err := c.Encode(nil, &v)
		if err != nil {
			t.Fatal(err)
		}
		var got sample
		if err := c.Decode(b, &got); err != nil {
			t.Fatalf("sample %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Fatalf("sample %d: got %+v want %+v", i, got, v)
		}
	}
}

// TestDecodeForeignStream feeds a gob stream for a *different* struct type
// that sample can still legally decode from (gob matches fields by name);
// its descriptor section differs, forcing the fallback path.
func TestDecodeForeignStream(t *testing.T) {
	type sampleSubset struct {
		Name string
		Seq  uint64
	}
	var c Codec[sample]
	b := oneShot(t, &sampleSubset{Name: "foreign", Seq: 5})
	var got sample
	if err := c.Decode(b, &got); err != nil {
		t.Fatalf("foreign decode: %v", err)
	}
	if got.Name != "foreign" || got.Seq != 5 {
		t.Fatalf("foreign decode got %+v", got)
	}
	// The codec must still work on its own streams afterwards.
	v := samples()[1]
	b, err := c.Encode(nil, &v)
	if err != nil {
		t.Fatal(err)
	}
	var again sample
	if err := c.Decode(b, &again); err != nil {
		t.Fatalf("post-foreign decode: %v", err)
	}
	if !reflect.DeepEqual(again, v) {
		t.Fatalf("post-foreign decode got %+v want %+v", again, v)
	}
}

// TestDecodeCorrupt verifies corrupt input errors without wedging the codec.
func TestDecodeCorrupt(t *testing.T) {
	var c Codec[sample]
	v := samples()[4]
	b, err := c.Encode(nil, &v)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), b...)
	bad[len(bad)-1] ^= 0xff
	bad = bad[:len(bad)-3]
	var got sample
	if err := c.Decode(bad, &got); err == nil {
		t.Fatal("corrupt stream decoded without error")
	}
	// Healthy streams must still decode after the failure re-primed state.
	var again sample
	if err := c.Decode(b, &again); err != nil {
		t.Fatalf("decode after corruption: %v", err)
	}
	if !reflect.DeepEqual(again, v) {
		t.Fatalf("decode after corruption got %+v want %+v", again, v)
	}
}

func TestZeroAllocPrefixReuse(t *testing.T) {
	var c Codec[inner]
	v := inner{A: 1}
	b1, err := c.Encode(nil, &v)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := c.Encode(nil, &v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("repeated encodes differ")
	}
}

package chaos

import (
	"bytes"
	"reflect"
	"testing"

	"publishing/internal/frame"
)

func TestGenerateIsDeterministicAndValid(t *testing.T) {
	lim := DefaultLimits()
	distinct := map[string]bool{}
	for seed := uint64(1); seed <= 60; seed++ {
		a := Generate(seed, lim)
		b := Generate(seed, lim)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two generations differ:\n%s\n%s", seed, a, b)
		}
		if len(a.Faults) == 0 {
			t.Fatalf("seed %d: empty schedule", seed)
		}
		if err := Validate(a, lim); err != nil {
			t.Fatalf("seed %d: generated schedule invalid: %v\n%s", seed, err, a)
		}
		distinct[a.Hex()] = true
	}
	if len(distinct) < 55 {
		t.Fatalf("only %d distinct schedules from 60 seeds", len(distinct))
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		s := Generate(seed, DefaultLimits())
		got, err := Decode(s.Encode())
		if err != nil {
			t.Fatalf("seed %d: decode failed: %v", seed, err)
		}
		if !reflect.DeepEqual(s, got) {
			t.Fatalf("seed %d: roundtrip mismatch:\n%s\n%s", seed, s, got)
		}
		viaHex, err := DecodeHex(s.Hex())
		if err != nil || !reflect.DeepEqual(s, viaHex) {
			t.Fatalf("seed %d: hex roundtrip mismatch (%v)", seed, err)
		}
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	good := Generate(3, DefaultLimits()).Encode()
	cases := map[string][]byte{
		"empty":        nil,
		"short header": good[:5],
		"ragged tail":  good[:len(good)-3],
		"zero kind":    append(append([]byte{}, good...), make([]byte, faultLen)...),
		"big kind": append(append([]byte{}, good...), func() []byte {
			r := make([]byte, faultLen)
			r[0] = byte(kindMax) + 1
			return r
		}()...),
	}
	for name, in := range cases {
		if _, err := Decode(in); err == nil {
			t.Errorf("%s: decode accepted malformed input", name)
		}
	}
	// But a bare seed with no faults is a valid (empty) schedule.
	s, err := Decode(make([]byte, 8))
	if err != nil || len(s.Faults) != 0 {
		t.Fatalf("bare seed rejected: %v", err)
	}
}

func TestSanitizeTamesArbitraryValues(t *testing.T) {
	lim := DefaultLimits()
	wild := Schedule{Seed: 9, Faults: []Fault{
		{Kind: KindLossBurst, AtMs: 4_000_000_000, DurMs: 4_000_000_000, Prob: 255},
		{Kind: KindProcCrash, AtMs: 0, DurMs: 77},
		{Kind: KindRecorderOutage, AtMs: 7999, DurMs: 0},
		{Kind: Kind(200)}, // invalid kind: dropped
		{Kind: KindLinkLoss, A: 255, B: 255, Prob: 1},
	}}
	s := Sanitize(wild, lim)
	if err := Validate(s, lim); err != nil {
		t.Fatalf("sanitized schedule invalid: %v\n%s", err, s)
	}
	if len(s.Faults) != 4 {
		t.Fatalf("kept %d faults, want 4 (invalid kind dropped)", len(s.Faults))
	}
	for _, f := range s.Faults {
		if p := f.EffProb(); p < 0 || p > probCap(f.Kind) {
			t.Fatalf("fault %s: effective prob %v beyond cap", f, p)
		}
	}
}

func TestMinimizeShrinksToCulprit(t *testing.T) {
	s := Generate(11, DefaultLimits())
	// Ensure at least one dup burst is present, then define failure as "any
	// dup burst in the schedule" — the minimizer must strip everything else.
	s.Faults = append(s.Faults, Fault{Kind: KindDupBurst, AtMs: 500, DurMs: 400, Prob: 128})
	fails := func(c Schedule) bool {
		for _, f := range c.Faults {
			if f.Kind == KindDupBurst {
				return true
			}
		}
		return false
	}
	min := Minimize(s, fails)
	if len(min.Faults) != 1 || min.Faults[0].Kind != KindDupBurst {
		t.Fatalf("minimized to %s", min)
	}
	if min.Seed != s.Seed {
		t.Fatal("minimization changed the seed")
	}
}

// FuzzChaosSchedule fuzzes the schedule wire format: any input either fails
// Decode, or decodes to a schedule whose re-encoding is byte-identical and
// whose sanitized form passes Validate and round-trips too. This is the
// contract the failure reproducer depends on (a printed hex token must
// replay the identical schedule).
func FuzzChaosSchedule(f *testing.F) {
	for seed := uint64(1); seed <= 5; seed++ {
		f.Add(Generate(seed, DefaultLimits()).Encode())
	}
	f.Add(make([]byte, 8))
	f.Add([]byte("not a schedule"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		if enc := s.Encode(); !bytes.Equal(enc, data) {
			t.Fatalf("decode/encode not identity:\n in=%x\nout=%x", data, enc)
		}
		lim := DefaultLimits()
		san := Sanitize(s, lim)
		if err := Validate(san, lim); err != nil {
			t.Fatalf("sanitized schedule invalid: %v\nfrom %x", err, data)
		}
		back, err := Decode(san.Encode())
		if err != nil {
			t.Fatalf("sanitized schedule does not re-decode: %v", err)
		}
		if !reflect.DeepEqual(san, back) {
			t.Fatalf("sanitized schedule round-trip mismatch")
		}
	})
}

// TestWireEncodingsUnchanged pins the reproducer tokens of the first five
// generated schedules, captured before the schedule became a code function:
// a token printed by an older run must replay the identical schedule. A
// fault record is faultLen bytes, as codeFault writes it.
func TestWireEncodingsUnchanged(t *testing.T) {
	want := []string{
		"000000000000000104000006400000052c817eb60600001421000000eac5a1de0900000637000008d1a5a2ef010000081000000000adafb30c00000ab6000003639fb2c1080000150b000008a56e77f90a0000155a0000020e62e098",
		"00000000000000020b000006ac000001762f07e60300001dbd0000015ca527c309000015720000062e735dc40a00000a900000076274d145",
		"00000000000000030100001058000000009812f606000014a000000639f4897603000007670000071499acfe0500000c4200000701a24d9d0b00000ca3000001830ba3aa02000005b200000000da5c8404000008e50000078f758ef6",
		"00000000000000040500000529000008e25bc5c7050000177400000785ddaa9f0c000018420000013dfe73ca",
		"00000000000000050700000f500000090399e151080000122800000356bb30ef",
	}
	for i, w := range want {
		if got := Generate(uint64(i+1), DefaultLimits()).Hex(); got != w {
			t.Errorf("seed %d encodes as\n%s\nwant\n%s", i+1, got, w)
		}
	}
	if n := len(frame.AppendWire(nil, &Fault{Kind: KindLossBurst}, codeFault)); n != faultLen {
		t.Errorf("a fault record codes to %d bytes, faultLen is %d", n, faultLen)
	}
}

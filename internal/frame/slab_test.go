package frame

import (
	"bytes"
	"testing"
)

// A slab hands out byte strings that never share a byte: each carved
// body keeps its contents however many are carved after it, an append to
// one cannot reach the next, and a body that outgrows its room leaves the
// chunk to the next one.
func TestSlabCarvesDisjointBodies(t *testing.T) {
	var s Slab
	var bodies [][]byte
	for i := range 3 * slabLen / 8 {
		bodies = append(bodies, s.Keep(append(s.Room(8), byte(i), byte(i>>8), 1, 2)))
		if i%50 == 0 {
			// Room for 4 bytes, 6 appended: the append's own allocation.
			b := s.Keep(append(s.Room(4), 9, 9, 9, 9, 9, 9))
			if len(b) != 6 || cap(b) != 6 {
				t.Fatalf("an outgrown body has length %d and capacity %d, want 6 and 6", len(b), cap(b))
			}
		}
	}
	for i, b := range bodies {
		if want := []byte{byte(i), byte(i >> 8), 1, 2}; !bytes.Equal(b, want) || cap(b) != len(b) {
			t.Fatalf("body %d reads %v (capacity %d), want %v capped at its length", i, b, cap(b), want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { s.Keep(append(s.Room(8), 1, 2, 3, 4)) }); n > 0.01 {
		t.Errorf("carving a 4-byte body allocated %.3f objects; want one chunk per %d bytes", n, slabLen)
	}
}

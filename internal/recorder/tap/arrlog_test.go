package tap

import (
	"testing"

	"publishing/internal/frame"
)

// A log of n entries holds ceil(n/ArrChunkLen) chunks, and keeping none
// frees them all.
func TestArrLogChunks(t *testing.T) {
	for _, n := range []int{0, 1, ArrChunkLen - 1, ArrChunkLen, ArrChunkLen + 1, 3*ArrChunkLen + 5} {
		var l ArrLog
		for i := 0; i < n; i++ {
			l.Push(ArrEntry{ID: frame.MsgID{Seq: uint64(i + 1)}})
		}
		if want := (n + ArrChunkLen - 1) / ArrChunkLen; len(l.chunks) != want {
			t.Fatalf("n=%d: %d chunks, want %d", n, len(l.chunks), want)
		}
		if l.Keep(nil); l.Len() != 0 || len(l.chunks) != 0 {
			t.Fatalf("n=%d: keep(nil) left %d records in %d chunks", n, l.Len(), len(l.chunks))
		}
	}
}

package tap

import "testing"

// A log of n entries holds ceil(n/ArrChunkLen) chunks, and keeping none
// frees them all.
func TestArrLogChunks(t *testing.T) {
	for _, n := range []int{0, 1, ArrChunkLen - 1, ArrChunkLen, ArrChunkLen + 1, 3*ArrChunkLen + 5} {
		var l ArrLog
		for i := 0; i < n; i++ {
			l.Push(uint64(i), Ref{Off: uint32(i)})
		}
		if want := (n + ArrChunkLen - 1) / ArrChunkLen; len(l.chunks) != want {
			t.Fatalf("n=%d: %d chunks, want %d", n, len(l.chunks), want)
		}
		if l.Keep(nil); l.Len() != 0 || len(l.chunks) != 0 {
			t.Fatalf("n=%d: keep(nil) left %d records in %d chunks", n, l.Len(), len(l.chunks))
		}
	}
}

// Consecutive arrival seqs share one run; a gap opens another, and so does
// each kept entry that does not follow the one kept before it.
func TestArrLogSeqRuns(t *testing.T) {
	var l ArrLog
	var want []uint64
	for _, seq := range []uint64{0, 1, 2, 3, 4, 5, 9, 10, 11, 40} {
		l.Push(seq, Ref{Off: uint32(seq)})
		want = append(want, seq)
	}
	check := func(what string, runs int) {
		t.Helper()
		if len(l.runs) != runs {
			t.Fatalf("%s: %d runs, want %d", what, len(l.runs), runs)
		}
		for i, w := range want {
			if seq, ref := l.At(i); seq != w || ref.Off != uint32(w) {
				t.Fatalf("%s: at(%d) = %d, %+v, want seq %d", what, i, seq, ref, w)
			}
		}
		if got := l.Seqs(); len(got) != len(want) {
			t.Fatalf("%s: seqs %v, want %v", what, got, want)
		} else {
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: seqs %v, want %v", what, got, want)
				}
			}
		}
	}
	check("pushed", 3)
	// Kept: 10, 11 (one run), 3 (a new one), 4, 5 (following it), 0.
	l.Keep([]int{7, 8, 3, 4, 5, 0})
	want = []uint64{10, 11, 3, 4, 5, 0}
	check("kept", 3)
}

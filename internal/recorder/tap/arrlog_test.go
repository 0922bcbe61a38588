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
		if l.Keep(nil, false); l.Len() != 0 || len(l.chunks) != 0 {
			t.Fatalf("n=%d: keep(nil) left %d records in %d chunks", n, l.Len(), len(l.chunks))
		}
	}
}

// Consecutive arrival seqs share one run; a gap opens another, and so does
// each kept entry that does not follow the one kept before it, whether Keep
// builds the log afresh or in place.
func TestArrLogSeqRuns(t *testing.T) {
	for _, reuse := range []bool{false, true} {
		arrLogSeqRuns(t, reuse)
	}
}

func arrLogSeqRuns(t *testing.T, reuse bool) {
	var l ArrLog
	var want []uint64
	for _, seq := range []uint64{0, 1, 2, 3, 4, 5, 9, 10, 11, 40} {
		l.Push(seq, Ref{Off: uint32(seq)})
		want = append(want, seq)
	}
	check := func(what string, runs int) {
		t.Helper()
		if len(l.runs) != runs {
			t.Fatalf("%s (reuse %v): %d runs, want %d", what, reuse, len(l.runs), runs)
		}
		for i, w := range want {
			if seq, ref := l.At(i); seq != w || ref.Off != uint32(w) {
				t.Fatalf("%s: at(%d) = %d, %+v, want seq %d", what, i, seq, ref, w)
			}
		}
		if got := l.AppendSeqs(nil); len(got) != len(want) {
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
	l.Keep([]int{7, 8, 3, 4, 5, 0}, reuse)
	want = []uint64{10, 11, 3, 4, 5, 0}
	check("kept", 3)
}

// A Keep with no snapshot read rebuilds the log in its own chunks, and Push
// refills the chunks the log held before it makes new ones: a stream
// checkpointed every few chunks' worth of arrivals allocates nothing once
// warm, and keeps what it was keeping.
func TestArrLogKeepReuses(t *testing.T) {
	const per = 3*ArrChunkLen + 5 // arrivals between checkpoints
	var l ArrLog
	seq := uint64(0)
	interval := func() {
		for range per {
			l.Push(seq, Ref{Off: uint32(seq)})
			seq++
		}
		// Keep the last two, newest first, as a checkpoint keeps its queue.
		l.Keep([]int{l.Len() - 1, l.Len() - 2}, true)
	}
	interval()
	if n := testing.AllocsPerRun(20, interval); n != 0 {
		t.Errorf("an interval of %d arrivals and a reusing keep allocated %.1f objects; want 0", per, n)
	}
	if l.Len() != 2 {
		t.Fatalf("kept %d arrivals, want 2", l.Len())
	}
	for i, want := range []uint64{seq - 1, seq - 2} {
		if got, ref := l.At(i); got != want || ref.Off != uint32(want) {
			t.Errorf("at(%d) = %d, %+v, want %d", i, got, ref, want)
		}
	}
}

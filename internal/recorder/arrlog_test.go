package recorder

import (
	"testing"
)

// logOf builds an arrival log holding msgs in order.
func logOf(msgs []storedMsg) arrLog {
	var l arrLog
	for _, sm := range msgs {
		l.push(sm)
	}
	return l
}

func logSeqs(l arrLog) []uint64 {
	out := make([]uint64, 0, l.len())
	for _, sm := range reconstruct(l, nil) {
		out = append(out, sm.ID.Seq)
	}
	return out
}

func wantSeqs(t *testing.T, what string, got []uint64, want ...uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %v, want %v", what, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: %v, want %v", what, got, want)
		}
	}
}

// Push, ordered reads and keep across chunk boundaries, and the snapshot
// property replay depends on: a copy of the log taken earlier reads the same
// records whatever is pushed or kept afterwards.
func TestArrLogAcrossChunkBoundaries(t *testing.T) {
	for _, n := range []int{0, 1, arrChunkLen - 1, arrChunkLen, arrChunkLen + 1, 3*arrChunkLen + 5} {
		var l arrLog
		for i := 0; i < n; i++ {
			if l.len() != i {
				t.Fatalf("n=%d: len %d after %d pushes", n, l.len(), i)
			}
			l.push(storedMsg{ID: mid(1, uint64(i+1)), ArrSeq: uint64(i)})
		}
		if want := (n + arrChunkLen - 1) / arrChunkLen; len(l.chunks) != want {
			t.Fatalf("n=%d: %d chunks, want %d", n, len(l.chunks), want)
		}
		for i := 0; i < n; i++ {
			if got := l.at(i); got.ID.Seq != uint64(i+1) || got.ArrSeq != uint64(i) {
				t.Fatalf("n=%d: at(%d) = %+v", n, i, *got)
			}
		}
		if seqs := l.seqs(); len(seqs) != n || (n > 0 && seqs[n-1] != uint64(n-1)) {
			t.Fatalf("n=%d: seqs %v", n, seqs)
		}

		snap := l
		before := logSeqs(snap)
		l.push(storedMsg{ID: mid(1, 1000)})
		// Keep every other record, last first: an order keep must honour.
		var pos []int
		for i := l.len() - 1; i >= 0; i -= 2 {
			pos = append(pos, i)
		}
		want := make([]uint64, len(pos))
		for k, i := range pos {
			want[k] = l.at(i).ID.Seq
		}
		l.keep(pos)
		wantSeqs(t, "kept", logSeqs(l), want...)
		l.push(storedMsg{ID: mid(1, 2000)})
		if got := l.at(l.len() - 1).ID.Seq; got != 2000 {
			t.Fatalf("n=%d: push after keep landed %d", n, got)
		}
		wantSeqs(t, "snapshot after push+keep+push", logSeqs(snap), before...)
	}

	var l arrLog
	l.push(storedMsg{ID: mid(1, 1)})
	l.keep(nil)
	if l.len() != 0 || len(l.chunks) != 0 {
		t.Fatalf("keep(nil) left %d records in %d chunks", l.len(), len(l.chunks))
	}
}

// Recording an arrival allocates one chunk per arrChunkLen pushes (plus the
// chunk table's rare growth) and never copies the stream.
func TestArrLogPushAllocatesPerChunk(t *testing.T) {
	var l arrLog
	sm := storedMsg{ID: mid(1, 1), Body: []byte("x")}
	const perRun = 4 * arrChunkLen
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < perRun; i++ {
			l.push(sm)
		}
	})
	// 4 chunks per run, and the table doubles ever more rarely.
	if perPush := allocs / perRun; perPush > 1.25/arrChunkLen {
		t.Fatalf("%.4f allocations per push, want at most %.4f", perPush, 1.25/arrChunkLen)
	}
}

package recorder

import (
	"fmt"
	"reflect"
	"testing"

	"publishing/internal/stablestore"
)

// testStream is an arrival log over a real store, as a recorder holds one:
// each message's record is appended under the stream's key and the log
// indexes it.
type testStream struct {
	store *stablestore.Paged
	key   stablestore.Key
	log   arrLog
	next  uint64 // next arrival seq
}

func newTestStream() *testStream {
	s := stablestore.New()
	return &testStream{store: s, key: s.Key("msg:p1.3")}
}

// push records sm as the stream's next arrival, numbering its ArrSeq.
func (st *testStream) push(sm storedMsg) {
	sm.ArrSeq = st.next
	st.next++
	pm := pendingMsg{storedMsg: sm}
	ref, err := st.store.AppendKey(st.key, stablestore.KindMessage, sm.ArrSeq, appendStoredMsg(nil, &pm))
	if err != nil {
		panic(err)
	}
	st.log.push(arrEntry{ID: sm.ID, ArrSeq: sm.ArrSeq, Ref: ref})
}

// reconstruct is the package's reconstruct over log, a snapshot of st's.
func (st *testStream) reconstruct(log arrLog, advs []advisory) []storedMsg {
	return reconstruct(st.store, st.key, log, advs)
}

// reconstructAll is reconstruct over the whole stream.
func (st *testStream) reconstructAll(advs []advisory) []storedMsg {
	return st.reconstruct(st.log, advs)
}

// logOf builds a stream holding msgs in arrival order.
func logOf(msgs []storedMsg) *testStream {
	st := newTestStream()
	for _, sm := range msgs {
		st.push(sm)
	}
	return st
}

// logSeqs reads log back from st's store and returns the message seqs,
// checking each body is the one pushed (its seq's low byte).
func logSeqs(t *testing.T, st *testStream, log arrLog) []uint64 {
	t.Helper()
	out := make([]uint64, 0, log.len())
	for _, sm := range st.reconstruct(log, nil) {
		if len(sm.Body) != 1 || sm.Body[0] != byte(sm.ID.Seq) {
			t.Fatalf("message %v reads back body %v", sm.ID, sm.Body)
		}
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
// records back from the store whatever is pushed or kept afterwards.
func TestArrLogAcrossChunkBoundaries(t *testing.T) {
	for _, n := range []int{0, 1, arrChunkLen - 1, arrChunkLen, arrChunkLen + 1, 3*arrChunkLen + 5} {
		st := newTestStream()
		l := &st.log
		for i := 0; i < n; i++ {
			if l.len() != i {
				t.Fatalf("n=%d: len %d after %d pushes", n, l.len(), i)
			}
			st.push(storedMsg{ID: mid(1, uint64(i+1)), Body: []byte{byte(i + 1)}})
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

		snap := *l
		before := logSeqs(t, st, snap)
		st.push(storedMsg{ID: mid(1, 1000), Body: []byte{byte(1000 % 256)}})
		// Keep every other entry, last first: an order keep must honour.
		var pos []int
		for i := l.len() - 1; i >= 0; i -= 2 {
			pos = append(pos, i)
		}
		want := make([]uint64, len(pos))
		for k, i := range pos {
			want[k] = l.at(i).ID.Seq
		}
		l.keep(pos)
		wantSeqs(t, "kept", logSeqs(t, st, *l), want...)
		st.push(storedMsg{ID: mid(1, 2000), Body: []byte{byte(2000 % 256)}})
		if got := l.at(l.len() - 1).ID.Seq; got != 2000 {
			t.Fatalf("n=%d: push after keep landed %d", n, got)
		}
		wantSeqs(t, "snapshot after push+keep+push", logSeqs(t, st, snap), before...)
	}

	var l arrLog
	l.push(arrEntry{ID: mid(1, 1)})
	l.keep(nil)
	if l.len() != 0 || len(l.chunks) != 0 {
		t.Fatalf("keep(nil) left %d records in %d chunks", l.len(), len(l.chunks))
	}
}

// Recording an arrival allocates one chunk per arrChunkLen pushes (plus the
// chunk table's rare growth) and never copies the stream.
func TestArrLogPushAllocatesPerChunk(t *testing.T) {
	var l arrLog
	a := arrEntry{ID: mid(1, 1)}
	const perRun = 4 * arrChunkLen
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < perRun; i++ {
			l.push(a)
		}
	})
	// 4 chunks per run, and the table doubles ever more rarely.
	if perPush := allocs / perRun; perPush > 1.25/arrChunkLen {
		t.Fatalf("%.4f allocations per push, want at most %.4f", perPush, 1.25/arrChunkLen)
	}
}

// An arrival-log entry is 32 bytes with no pointer in it, so a chunk fills
// the 1,024-byte size class and the GC never scans one.
func TestArrEntryHoldsNoPointers(t *testing.T) {
	typ := reflect.TypeOf(arrEntry{})
	if typ.Size()*arrChunkLen != 1024 {
		t.Errorf("arrEntry is %d bytes; %d of them are not 1,024", typ.Size(), arrChunkLen)
	}
	var check func(path string, t2 reflect.Type)
	check = func(path string, t2 reflect.Type) {
		switch t2.Kind() {
		case reflect.Struct:
			for i := 0; i < t2.NumField(); i++ {
				f := t2.Field(i)
				check(fmt.Sprintf("%s.%s", path, f.Name), f.Type)
			}
		case reflect.Array:
			check(path+"[]", t2.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		default:
			t.Errorf("%s is a %s, which holds a pointer", path, t2.Kind())
		}
	}
	check("arrEntry", typ)
}

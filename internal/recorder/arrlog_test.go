package recorder

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"publishing/internal/frame"
	"publishing/internal/recorder/tap"
	"publishing/internal/stablestore"
)

// The arrival log is the tap core's; these tests read it back through a
// real store.
const arrChunkLen = tap.ArrChunkLen

// testStream is an arrival log over a real store, as a recorder holds one:
// each message's record is appended under the stream's key and the log
// indexes it.
type testStream struct {
	store *stablestore.Paged
	key   stablestore.Key
	log   tap.ArrLog
	next  uint64 // next arrival seq
}

func newTestStream() *testStream {
	s := stablestore.New()
	return &testStream{store: s, key: s.Key("msg:p1.3")}
}

// seqRec is a message record with the arrival seq its store record is
// filed under.
type seqRec struct {
	frame.BundleRec
	ArrSeq uint64
}

// push records m as the stream's next arrival.
func (st *testStream) push(m frame.BundleRec) {
	seq := st.next
	st.next++
	ref, err := st.store.AppendKey(st.key, stablestore.KindMessage, seq, appendStoredMsg(nil, &m))
	if err != nil {
		panic(err)
	}
	st.log.Push(seq, tap.Ref(ref))
}

// ArrivalID reads a message id from st's store, as the recorder does.
func (st *testStream) ArrivalID(_ *tap.Stream, seq uint64, ref tap.Ref) frame.MsgID {
	return readArrival(st.store, st.key, seq, ref).ID
}

// idAt reads the id of l's i'th arrival from st's store.
func (st *testStream) idAt(l *tap.ArrLog, i int) frame.MsgID {
	seq, ref := l.At(i)
	return st.ArrivalID(nil, seq, ref)
}

// reconstruct is Recorder.reconstruct over log, a snapshot of st's.
func (st *testStream) reconstruct(log tap.ArrLog, advs []tap.Advisory) []frame.BundleRec {
	s := tap.Stream{Arrivals: log, Advisories: advs}
	var out []frame.BundleRec
	o := tap.NewOrder(&s, st)
	for _, seq, ref, ok := o.Next(); ok; _, seq, ref, ok = o.Next() {
		out = append(out, readArrival(st.store, st.key, seq, ref))
	}
	return out
}

// reconstructAll is reconstruct over the whole stream.
func (st *testStream) reconstructAll(advs []tap.Advisory) []frame.BundleRec {
	return st.reconstruct(st.log, advs)
}

// logOf builds a stream holding msgs in arrival order.
func logOf(msgs []frame.BundleRec) *testStream {
	st := newTestStream()
	for _, sm := range msgs {
		st.push(sm)
	}
	return st
}

// logSeqs reads log back from st's store and returns the message seqs,
// checking each body is the one pushed (its seq's low byte).
func logSeqs(t *testing.T, st *testStream, log tap.ArrLog) []uint64 {
	t.Helper()
	out := make([]uint64, 0, log.Len())
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

// Push, ordered reads and keep across chunk boundaries (the chunk counts
// are tap's TestArrLogChunks), and the snapshot
// property replay depends on: a copy of the log taken earlier reads the same
// records back from the store whatever is pushed or kept afterwards.
func TestArrLogAcrossChunkBoundaries(t *testing.T) {
	for _, n := range []int{0, 1, arrChunkLen - 1, arrChunkLen, arrChunkLen + 1, 3*arrChunkLen + 5} {
		st := newTestStream()
		l := &st.log
		for i := 0; i < n; i++ {
			if l.Len() != i {
				t.Fatalf("n=%d: len %d after %d pushes", n, l.Len(), i)
			}
			st.push(frame.BundleRec{ID: mid(1, uint64(i+1)), Body: []byte{byte(i + 1)}})
		}
		for i := 0; i < n; i++ {
			if seq, ref := l.At(i); seq != uint64(i) || st.ArrivalID(nil, seq, ref).Seq != uint64(i+1) {
				t.Fatalf("n=%d: at(%d) = %d, %+v", n, i, seq, ref)
			}
		}
		if seqs := l.AppendSeqs(nil); len(seqs) != n || (n > 0 && seqs[n-1] != uint64(n-1)) {
			t.Fatalf("n=%d: seqs %v", n, seqs)
		}

		snap := *l
		before := logSeqs(t, st, snap)
		st.push(frame.BundleRec{ID: mid(1, 1000), Body: []byte{byte(1000 % 256)}})
		// Keep every other entry, last first: an order keep must honour.
		var pos []int
		for i := l.Len() - 1; i >= 0; i -= 2 {
			pos = append(pos, i)
		}
		want := make([]uint64, len(pos))
		for k, i := range pos {
			want[k] = st.idAt(l, i).Seq
		}
		l.Keep(pos, false)
		wantSeqs(t, "kept", logSeqs(t, st, *l), want...)
		st.push(frame.BundleRec{ID: mid(1, 2000), Body: []byte{byte(2000 % 256)}})
		if got := st.idAt(l, l.Len()-1).Seq; got != 2000 {
			t.Fatalf("n=%d: push after keep landed %d", n, got)
		}
		wantSeqs(t, "snapshot after push+keep+push", logSeqs(t, st, snap), before...)
	}

	var l tap.ArrLog
	l.Push(0, tap.Ref{})
	l.Keep(nil, false)
	if l.Len() != 0 {
		t.Fatalf("keep(nil) left %d records", l.Len())
	}
}

// Recording an arrival allocates one chunk per arrChunkLen pushes (plus the
// chunk table's rare growth), never copies the stream, and opens no seq run
// while the seqs are consecutive.
func TestArrLogPushAllocatesPerChunk(t *testing.T) {
	var l tap.ArrLog
	var seq uint64
	const perRun = 4 * arrChunkLen
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < perRun; i++ {
			l.Push(seq, tap.Ref{Page: 1, Off: uint32(seq)})
			seq++
		}
	})
	// 4 chunks per run, and the table doubles ever more rarely.
	if perPush := allocs / perRun; perPush > 1.25/arrChunkLen {
		t.Fatalf("%.4f allocations per push, want at most %.4f", perPush, 1.25/arrChunkLen)
	}
}

// An arrival-log entry is an 8-byte record ref with no pointer in it, so a
// chunk of 128 fills the 1,024-byte size class and the GC never scans one.
func TestArrEntryHoldsNoPointers(t *testing.T) {
	typ := reflect.TypeOf(tap.ArrEntry{})
	if typ.Size() != 8 || typ.Size()*arrChunkLen != 1024 {
		t.Errorf("an entry is %d bytes; want 8, and %d of them to fill 1,024", typ.Size(), arrChunkLen)
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

// An arrival costs the log 8 bytes, its record ref, and a share of the chunk
// table: the message's id and arrival seq are in its record, and the seqs of
// consecutive arrivals are one run. The bytes are counted by the runtime, so
// the figure is the same on every host.
func TestArrLogBytesPerArrival(t *testing.T) {
	const n = 100_000
	var l tap.ArrLog
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		l.Push(uint64(i), tap.Ref{Page: uint32(i / 64), Off: uint32(i % 64 * 64)})
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(&l)
	perArrival := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.2f B allocated per arrival", perArrival)
	if perArrival > 9 {
		t.Fatalf("pushing %d arrivals allocated %.2f B each, want at most 9", n, perArrival)
	}
}

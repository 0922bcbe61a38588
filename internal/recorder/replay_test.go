package recorder

import (
	"math/rand"
	"reflect"
	"testing"

	"publishing/internal/frame"
	"publishing/internal/recorder/tap"
	"publishing/internal/simtime"
)

func mkArrivals(n int) []seqRec {
	out := make([]seqRec, n)
	for i := range out {
		out[i] = seqRec{frame.BundleRec{
			ID:   frame.MsgID{Sender: frame.ProcID{Node: 0, Local: 7}, Seq: uint64(i + 1)},
			Body: []byte{byte(i)},
		}, uint64(i)}
	}
	return out
}

func drainIter(arrivals []seqRec, advisories []tap.Advisory) []frame.BundleRec {
	st := newTestStream()
	for _, m := range arrivals {
		st.push(m.BundleRec)
	}
	return st.reconstructAll(advisories)
}

// reconstructRef is §4.4.2's reconstruction on plain slices, the reference
// the iterator is checked against: pop in-order reads until the advised head
// is at the front, take the advised message, repeat; unadvised messages
// follow in arrival order.
func reconstructRef(arrivals []seqRec, advisories []tap.Advisory) []seqRec {
	queue := append([]seqRec(nil), arrivals...)
	replay := make([]seqRec, 0, len(arrivals))
	for _, adv := range advisories {
		for len(queue) > 0 && queue[0].ID != adv.HeadID {
			replay = append(replay, queue[0])
			queue = queue[1:]
		}
		for i := range queue {
			if queue[i].ID == adv.ReadID {
				replay = append(replay, queue[i])
				queue = append(queue[:i], queue[i+1:]...)
				break
			}
		}
	}
	return append(replay, queue...)
}

func sameOrder(t *testing.T, name string, want []seqRec, got []frame.BundleRec) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: iterator emitted %d messages, reconstruct %d", name, len(got), len(want))
	}
	for i := range want {
		if want[i].ID != got[i].ID {
			t.Fatalf("%s: position %d: iterator %v, reconstruct %v", name, i, got[i].ID, want[i].ID)
		}
	}
}

// The iterator must emit exactly reconstruct's order for every stream shape,
// including the degenerate advisories reconstruct quietly tolerates: a head
// id that never appears (drains the queue), an advised read that is missing
// (advisory consumed, nothing emitted), and an advisory whose read IS the
// head.
func TestReplayIterMatchesReconstructEdgeCases(t *testing.T) {
	id := func(seq int) frame.MsgID {
		return frame.MsgID{Sender: frame.ProcID{Node: 0, Local: 7}, Seq: uint64(seq)}
	}
	cases := []struct {
		name string
		n    int
		adv  []tap.Advisory
	}{
		{"empty", 0, nil},
		{"no-advisories", 5, nil},
		{"simple-skip", 5, []tap.Advisory{{HeadID: id(2), ReadID: id(4)}}},
		{"read-is-head", 5, []tap.Advisory{{HeadID: id(3), ReadID: id(3)}}},
		{"head-missing", 4, []tap.Advisory{{HeadID: id(99), ReadID: id(2)}}},
		{"read-missing", 4, []tap.Advisory{{HeadID: id(2), ReadID: id(99)}}},
		{"both-missing", 3, []tap.Advisory{{HeadID: id(98), ReadID: id(99)}}},
		{"chained", 6, []tap.Advisory{
			{HeadID: id(1), ReadID: id(3)},
			{HeadID: id(2), ReadID: id(6)},
			{HeadID: id(4), ReadID: id(5)},
		}},
		{"advisory-on-empty", 0, []tap.Advisory{{HeadID: id(1), ReadID: id(2)}}},
	}
	for _, tc := range cases {
		arr := mkArrivals(tc.n)
		sameOrder(t, tc.name, reconstructRef(arr, tc.adv), drainIter(arr, tc.adv))
	}
}

func TestReplayIterMatchesReconstructRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(20)
		arr := mkArrivals(n)
		var advs []tap.Advisory
		for a := rng.Intn(6); a > 0; a-- {
			// Mostly valid ids, occasionally bogus ones, to hit every branch.
			head := uint64(rng.Intn(n + 3))
			read := uint64(rng.Intn(n + 3))
			advs = append(advs, tap.Advisory{
				HeadID: frame.MsgID{Sender: frame.ProcID{Node: 0, Local: 7}, Seq: head},
				ReadID: frame.MsgID{Sender: frame.ProcID{Node: 0, Local: 7}, Seq: read},
			})
		}
		sameOrder(t, "random", reconstructRef(arr, advs), drainIter(arr, advs))
	}
}

// stationFunc is a medium station that hands every frame to a func.
type stationFunc func(*frame.Frame)

func (s stationFunc) Receive(f *frame.Frame) { s(f) }

// The record a recovery replays is the record the tap heard: the pending
// entry is that record, the store keeps its message fields (From apart from
// the id's sender, a passed link that delivers to the kernel, an empty body
// that is not nil), and the replay batch carries them back as they were.
// Only the transport's fields stay behind: the stream's key names the
// destination, and the replay frame carries its own type and sequence.
func TestReplayedRecordIsTheHeardRecord(t *testing.T) {
	r, sched, _ := newBench(t)
	b := procB()
	register(r, b, "b")
	var replayed []frame.BundleRec
	r.med.Attach(b.Node, stationFunc(func(f *frame.Frame) {
		if f.Channel == frame.ChanReplay && replayed == nil {
			replayed = append([]frame.BundleRec{}, f.Recs...) // its first transmission
		}
	}))
	sender := frame.ProcID{Node: 0, Local: 2}
	f := &frame.Frame{Type: frame.Guaranteed, Src: 0, Dst: b.Node,
		ID: frame.MsgID{Sender: sender, Seq: 9}, From: procA(), To: b, Channel: 4, Code: 77, XSeq: 1<<48 | 3,
		PassedLink: &frame.Link{To: sender, Channel: 6, Code: 12, DeliverToKernel: true}, Body: []byte{}}
	var heard frame.BundleRec
	heard.RecOf(f)
	if !r.Observe(f) {
		t.Fatal("tap rejected the message")
	}
	if q := r.core.Of(b).Queue(); len(q) != 1 || !reflect.DeepEqual(q[0].BundleRec, heard) {
		t.Fatalf("pending %+v, heard %+v", q, heard)
	}
	r.Observe(&frame.Frame{Type: frame.Ack, Src: b.Node, Dst: 0, ID: f.ID, From: b, To: f.From})

	// b's node crashes, and the recorder replays b's stream to it.
	rp := &recoveryProc{proc: b, target: b.Node, gen: 1}
	r.recovering[b] = rp
	r.startReplay(r.db[b], rp, rp.gen)
	sched.Run(sched.Now() + simtime.Second)
	want := heard
	want.Type, want.To, want.XSeq = 0, frame.NilProc, 0
	if len(replayed) != 1 || !reflect.DeepEqual(replayed[0], want) {
		t.Fatalf("replayed %+v\nwant the heard record %+v", replayed, want)
	}
	if replayed[0].Body == nil || !replayed[0].HasLink || replayed[0].From == replayed[0].ID.Sender {
		t.Fatalf("the case does not cover what it claims: %+v", replayed[0])
	}
}

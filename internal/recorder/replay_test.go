package recorder

import (
	"math/rand"
	"testing"

	"publishing/internal/frame"
)

func mkArrivals(n int) []storedMsg {
	out := make([]storedMsg, n)
	for i := range out {
		out[i] = storedMsg{
			ID:     frame.MsgID{Sender: frame.ProcID{Node: 0, Local: 7}, Seq: uint64(i + 1)},
			ArrSeq: uint64(i),
			Body:   []byte{byte(i)},
		}
	}
	return out
}

func drainIter(arrivals []storedMsg, advisories []advisory) []storedMsg {
	st := logOf(arrivals)
	it := newReplayIter(st.store, st.key, st.log, advisories)
	var out []storedMsg
	for {
		sm, ok := it.next()
		if !ok {
			return out
		}
		out = append(out, sm)
	}
}

// reconstructRef is §4.4.2's reconstruction on plain slices, the reference
// the iterator is checked against: pop in-order reads until the advised head
// is at the front, take the advised message, repeat; unadvised messages
// follow in arrival order.
func reconstructRef(arrivals []storedMsg, advisories []advisory) []storedMsg {
	queue := append([]storedMsg(nil), arrivals...)
	replay := make([]storedMsg, 0, len(arrivals))
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

func sameOrder(t *testing.T, name string, want, got []storedMsg) {
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
		adv  []advisory
	}{
		{"empty", 0, nil},
		{"no-advisories", 5, nil},
		{"simple-skip", 5, []advisory{{HeadID: id(2), ReadID: id(4)}}},
		{"read-is-head", 5, []advisory{{HeadID: id(3), ReadID: id(3)}}},
		{"head-missing", 4, []advisory{{HeadID: id(99), ReadID: id(2)}}},
		{"read-missing", 4, []advisory{{HeadID: id(2), ReadID: id(99)}}},
		{"both-missing", 3, []advisory{{HeadID: id(98), ReadID: id(99)}}},
		{"chained", 6, []advisory{
			{HeadID: id(1), ReadID: id(3)},
			{HeadID: id(2), ReadID: id(6)},
			{HeadID: id(4), ReadID: id(5)},
		}},
		{"advisory-on-empty", 0, []advisory{{HeadID: id(1), ReadID: id(2)}}},
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
		var advs []advisory
		for a := rng.Intn(6); a > 0; a-- {
			// Mostly valid ids, occasionally bogus ones, to hit every branch.
			head := uint64(rng.Intn(n + 3))
			read := uint64(rng.Intn(n + 3))
			advs = append(advs, advisory{
				HeadID: frame.MsgID{Sender: frame.ProcID{Node: 0, Local: 7}, Seq: head},
				ReadID: frame.MsgID{Sender: frame.ProcID{Node: 0, Local: 7}, Seq: read},
			})
		}
		sameOrder(t, "random", reconstructRef(arr, advs), drainIter(arr, advs))
	}
}

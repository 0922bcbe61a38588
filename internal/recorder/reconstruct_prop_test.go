package recorder

import (
	"fmt"
	"testing"
	"testing/quick"

	"publishing/internal/frame"
	"publishing/internal/simtime"
)

// The §4.4.2 reconstruction algorithm, verified against a reference
// simulation of exactly what the kernel and recorder do: messages arrive
// into a queue over time; the process reads with channel selection,
// sometimes past the head; every out-of-order read emits an advisory; the
// recorder must be able to reconstruct the true read order from nothing but
// the arrival order and those advisories.
func TestReconstructMatchesReferenceSimulation(t *testing.T) {
	run := func(seed uint64) error {
		rng := simtime.NewRand(seed)
		n := rng.Intn(30) + 1

		// Arrivals with random channels.
		arrivals := make([]storedMsg, n)
		for i := range arrivals {
			arrivals[i] = storedMsg{
				ID:      mid(1, uint64(i+1)),
				Channel: uint16(rng.Intn(3)),
				Body:    []byte{byte(i)},
			}
		}

		// Reference execution: interleave arrivals and reads. The queue
		// fills from the arrival stream; each read targets the channel of a
		// randomly chosen queued message (so it always succeeds) and pops
		// the FIRST queued message with that channel — the kernel's scan
		// semantics. Reads past the head emit advisories.
		var queue []storedMsg
		next := 0
		var reads []frame.MsgID
		var advs []advisory
		advSeq := uint64(0)
		for len(reads) < n {
			// Randomly admit 0-2 more arrivals (always at least one if the
			// queue is empty).
			admit := rng.Intn(3)
			for a := 0; a < admit || len(queue) == 0; a++ {
				if next >= n {
					break
				}
				queue = append(queue, arrivals[next])
				next++
				if len(queue) == 0 {
					break
				}
			}
			if len(queue) == 0 {
				break
			}
			want := queue[rng.Intn(len(queue))].Channel
			for i := range queue {
				if queue[i].Channel == want {
					if i > 0 {
						advs = append(advs, advisory{
							ReadID: queue[i].ID,
							HeadID: queue[0].ID,
							AdvSeq: advSeq,
						})
						advSeq++
					}
					reads = append(reads, queue[i].ID)
					queue = append(queue[:i], queue[i+1:]...)
					break
				}
			}
		}

		got := reconstruct(logOf(arrivals), advs)
		if len(got) != n {
			return fmt.Errorf("seed %d: reconstructed %d of %d", seed, len(got), n)
		}
		for i := range reads {
			if got[i].ID != reads[i] {
				return fmt.Errorf("seed %d: position %d: reconstructed %v, actually read %v\nreads: %v\nadvs: %+v",
					seed, i, got[i].ID, reads[i], reads, advs)
			}
		}
		return nil
	}
	if err := quick.Check(func(seed uint64) bool {
		if err := run(seed); err != nil {
			t.Log(err)
			return false
		}
		return true
	}, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// The same property with a crash in the middle: reconstruct over the full
// history must agree with (reads so far) ++ (remaining queue in arrival
// order) — exactly what replay needs at an arbitrary crash instant.
func TestReconstructAtCrashInstant(t *testing.T) {
	rng := simtime.NewRand(424242)
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(20) + 2
		arrivals := make([]storedMsg, n)
		for i := range arrivals {
			arrivals[i] = storedMsg{ID: mid(2, uint64(i+1)), Channel: uint16(rng.Intn(2))}
		}
		// All messages arrive, then the process reads k of them.
		queue := append([]storedMsg(nil), arrivals...)
		k := rng.Intn(n)
		var reads []frame.MsgID
		var advs []advisory
		for r := 0; r < k; r++ {
			want := queue[rng.Intn(len(queue))].Channel
			for i := range queue {
				if queue[i].Channel == want {
					if i > 0 {
						advs = append(advs, advisory{ReadID: queue[i].ID, HeadID: queue[0].ID, AdvSeq: uint64(len(advs))})
					}
					reads = append(reads, queue[i].ID)
					queue = append(queue[:i], queue[i+1:]...)
					break
				}
			}
		}
		// Crash here. Replay must deliver reads in order, then the unread
		// remainder in arrival order.
		got := reconstruct(logOf(arrivals), advs)
		for i, id := range reads {
			if got[i].ID != id {
				t.Fatalf("trial %d: read segment diverges at %d", trial, i)
			}
		}
		for i, sm := range queue {
			if got[k+i].ID != sm.ID {
				t.Fatalf("trial %d: unread segment diverges at %d", trial, i)
			}
		}
	}
}

package transport

import (
	"testing"

	"publishing/internal/frame"
	"publishing/internal/simtime"
)

// Refused deliveries (kernel returns false) are not acked and retry until
// accepted, preserving order.
func TestDeliveryRefusalRetries(t *testing.T) {
	e := newEnv(t, 2, DefaultConfig(), "perfect")
	accept := false
	var got []uint64
	e.eps[1].Deliver = func(f *frame.Frame) bool {
		if !accept {
			return false
		}
		got = append(got, f.ID.Seq)
		return true
	}
	for i := uint64(1); i <= 3; i++ {
		e.eps[0].SendGuaranteed(gmsg(0, 1, i, ""))
	}
	e.sched.Run(300 * simtime.Millisecond)
	if len(got) != 0 {
		t.Fatal("refused frames were delivered")
	}
	if e.eps[0].Stats().AcksReceived != 0 {
		t.Fatal("refused frames were acked")
	}
	accept = true
	e.sched.RunAll(1_000_000)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("post-acceptance delivery: %v", got)
	}
}

// Poke retries refused frames immediately instead of waiting out a
// retransmission interval.
func TestPokeDrainsRefused(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetransmitInterval = 10 * simtime.Second // too long to help
	e := newEnv(t, 2, cfg, "perfect")
	accept := false
	delivered := 0
	e.eps[1].Deliver = func(f *frame.Frame) bool {
		if accept {
			delivered++
		}
		return accept
	}
	e.eps[0].SendGuaranteed(gmsg(0, 1, 1, ""))
	e.sched.Run(100 * simtime.Millisecond)
	accept = true
	e.eps[1].Poke()
	e.sched.Run(200 * simtime.Millisecond)
	if delivered != 1 {
		t.Fatalf("poke did not deliver (got %d)", delivered)
	}
}

// TestAbortReturnsAdmissionOrder: one unit is open at a time. The first two
// messages, both to node 1, share it; the message to node 2 waits in the
// queue, and so does the third message to node 1, queued behind it. Abort
// hands back the open unit's members in admission order, then the queue, so
// all four come back in the order they were sent.
func TestAbortReturnsAdmissionOrder(t *testing.T) {
	dsts := []frame.NodeID{1, 1, 2, 1}
	e, _ := newSinkEndpoint()
	for i, dst := range dsts {
		e.SendGuaranteed(gmsg(0, dst, uint64(i+1), "x"))
	}
	e.sched.Run(e.sched.Now() + simtime.Millisecond) // flushed, never acked
	if got := len(e.InFlightIDs()); got != 2 || e.InFlight() != len(dsts) {
		t.Fatalf("%d in the open unit, %d in flight; want 2 and %d", got, e.InFlight(), len(dsts))
	}
	moved := e.Abort(func(*frame.Frame) bool { return true })
	if len(moved) != len(dsts) || e.InFlight() != 0 {
		t.Fatalf("aborted %d, %d left in flight", len(moved), e.InFlight())
	}
	for i, f := range moved {
		if f.ID.Seq != uint64(i+1) || f.Dst != dsts[i] {
			t.Fatalf("position %d holds message %d to node %d; want message %d to node %d",
				i, f.ID.Seq, f.Dst, i+1, dsts[i])
		}
	}
}

// Abort withdraws frames by predicate, in order, and the stream heals when
// they are re-sent to a new destination.
func TestAbortAndRetarget(t *testing.T) {
	e := newEnv(t, 3, DefaultConfig(), "perfect")
	// Make node 1 unreachable so frames to it pile up.
	e.med.Faults().SetDown(1, true)
	victim := frame.ProcID{Node: 1, Local: 5}
	for i := uint64(1); i <= 4; i++ {
		f := gmsg(0, 1, i, "x")
		f.To = victim
		e.eps[0].SendGuaranteed(f)
	}
	e.sched.Run(200 * simtime.Millisecond)
	if e.eps[0].InFlight() != 4 {
		t.Fatalf("inflight = %d, want 4", e.eps[0].InFlight())
	}
	moved := e.eps[0].Abort(func(f *frame.Frame) bool { return f.To == victim })
	if len(moved) != 4 {
		t.Fatalf("aborted %d frames, want 4", len(moved))
	}
	if e.eps[0].InFlight() != 0 {
		t.Fatal("abort left frames in flight")
	}
	for i := 1; i < len(moved); i++ {
		if moved[i].ID.Seq < moved[i-1].ID.Seq {
			t.Fatalf("abort disordered the frames: %v then %v", moved[i-1].ID, moved[i].ID)
		}
	}
	// Re-send to node 2.
	for _, f := range moved {
		g := f.Clone()
		g.Dst = 2
		e.eps[0].SendGuaranteed(g)
	}
	e.sched.RunAll(1_000_000)
	if len(e.got[2]) != 4 {
		t.Fatalf("retargeted delivery: %d", len(e.got[2]))
	}
	for i, f := range e.got[2] {
		if f.ID.Seq != uint64(i+1) {
			t.Fatalf("retargeted order broken: %v", f.ID)
		}
	}
}

// On retry exhaustion the frame is abandoned: counted once, out of flight.
func TestOnGiveUp(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxRetries = 3
	cfg.RetransmitInterval = 10 * simtime.Millisecond
	e := newEnv(t, 2, cfg, "perfect")
	e.med.Faults().SetDown(1, true)
	e.eps[0].SendGuaranteed(gmsg(0, 1, 1, "doomed"))
	e.sched.RunAll(1_000_000)
	if got := e.eps[0].Stats().GaveUp; got != 1 {
		t.Fatalf("gave up %d times, want 1", got)
	}
	if e.eps[0].InFlight() != 0 {
		t.Fatal("gave-up frame still in flight")
	}
}

// After a sender gives up on a frame, its low-water mark advances so later
// frames still deliver (the stream does not stall forever on the gap).
func TestStreamSkipsAbandonedGap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxRetries = 4
	cfg.RetransmitInterval = 10 * simtime.Millisecond
	e := newEnv(t, 2, cfg, "perfect")

	// First frame refused forever (simulates a dead destination process on
	// a live node); second frame is for a healthy process. The first fills a
	// transmission unit by itself, so the second waits for
	// the give-up and then goes out with XLow past the abandoned sequence.
	e.eps[1].Deliver = func(f *frame.Frame) bool {
		if f.To.Local == 99 {
			return false
		}
		e.got[1] = append(e.got[1], keep(f))
		return true
	}
	bad := gmsg(0, 1, 1, string(make([]byte, bundleBudget)))
	bad.To = frame.ProcID{Node: 1, Local: 99}
	e.eps[0].SendGuaranteed(bad)
	e.eps[0].SendGuaranteed(gmsg(0, 1, 2, "for the living"))
	e.sched.RunAll(1_000_000)
	if g := e.eps[0].Stats().GaveUp; g != 1 {
		t.Fatalf("gave up on %d frames, want only the refused one", g)
	}
	if len(e.got[1]) != 1 || e.got[1][0].ID.Seq != 2 {
		t.Fatalf("stream stalled behind abandoned frame: %v", e.got[1])
	}
}

func TestInFlightIDs(t *testing.T) {
	e := newEnv(t, 2, DefaultConfig(), "perfect")
	e.med.Faults().SetDown(1, true)
	e.eps[0].SendGuaranteed(gmsg(0, 1, 7, ""))
	ids := e.eps[0].InFlightIDs()
	if len(ids) != 1 || ids[0].Seq != 7 {
		t.Fatalf("InFlightIDs = %v", ids)
	}
}

func TestConfigAccessors(t *testing.T) {
	e := newEnv(t, 1, DefaultConfig(), "perfect")
	if e.eps[0].Node() != 0 {
		t.Fatal("Node()")
	}
	if e.eps[0].Config().RetransmitInterval != DefaultConfig().RetransmitInterval {
		t.Fatal("Config()")
	}
}

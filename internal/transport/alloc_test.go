package transport

// Allocation pins for the send side. A frame handed to the medium is never
// written again (lan.Medium.Send), so the endpoint copies a frame only where
// it keeps one and sends another: each transmission of a retained guaranteed
// frame. Unguaranteed sends and bundles go to the medium as built. The
// endpoint's timers — a unit's flush, a flight's retransmission, a peer's
// delayed ack — are scheduled with their owner as the handler, so arming one
// allocates nothing.

import (
	"testing"

	"publishing/internal/frame"
	"publishing/internal/lan"
	"publishing/internal/simtime"
	"publishing/internal/trace"
)

// sinkMedium swallows every frame, remembering only the last, so the
// endpoint's own allocations are all AllocsPerRun sees.
type sinkMedium struct {
	last   *frame.Frame
	faults lan.FaultPlan
	stats  lan.Stats
}

func (m *sinkMedium) Attach(frame.NodeID, lan.Station)    {}
func (m *sinkMedium) AttachTap(frame.NodeID, lan.Tap)     {}
func (m *sinkMedium) Send(_ frame.NodeID, f *frame.Frame) { m.last = f }
func (m *sinkMedium) Faults() *lan.FaultPlan              { return &m.faults }
func (m *sinkMedium) Stats() *lan.Stats                   { return &m.stats }

func newSinkEndpoint() (*Endpoint, *sinkMedium) {
	sched := simtime.NewScheduler()
	log := trace.New(sched.Now)
	log.Enable(false)
	med := &sinkMedium{}
	return New(0, med, sched, log, DefaultConfig()), med
}

// TestUnguaranteedSendMakesNoCopy: the medium gets the caller's frame, and
// the send allocates nothing.
func TestUnguaranteedSendMakesNoCopy(t *testing.T) {
	e, med := newSinkEndpoint()
	frames := make([]*frame.Frame, 256)
	for i := range frames {
		frames[i] = &frame.Frame{Dst: frame.Broadcast, Body: []byte("ping")}
	}
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		e.SendUnguaranteed(frames[i])
		i++
	}); n != 0 {
		t.Errorf("unguaranteed send allocated %.1f objects; want 0", n)
	}
	if med.last != frames[i-1] {
		t.Fatal("the medium was sent a copy of the caller's frame")
	}
}

// formedUnit admits two guaranteed frames and one unguaranteed rider for
// node 1 into one forming unit, ready for flushUnit.
func formedUnit(t *testing.T, e *Endpoint) *txUnit {
	t.Helper()
	e.SendGuaranteedOwned(gmsg(0, 1, 1, "a"))
	e.SendGuaranteedOwned(gmsg(0, 1, 2, "b"))
	e.SendUnguaranteed(&frame.Frame{Dst: 1, Body: []byte("c")})
	u := e.form.get(1)
	if u == nil || len(u.recs) != 2 || len(u.riders) != 1 {
		t.Fatalf("unit did not form: %+v", u)
	}
	return u
}

// TestBundleFlushMakesNoCopy: flushing a unit allocates the bundle frame
// and its body — nothing else, and no retransmit timer per member. The
// timers are cancelled after each run so the scheduler reuses their event
// nodes.
func TestBundleFlushMakesNoCopy(t *testing.T) {
	e, med := newSinkEndpoint()
	u := formedUnit(t, e)
	n := testing.AllocsPerRun(200, func() {
		u.flushed = false
		e.flushUnit(u)
		for _, fl := range u.recs {
			e.sched.Cancel(fl.timer)
		}
	})
	if n != 2 {
		t.Errorf("bundle flush allocated %.1f objects; want 2 (frame, body)", n)
	}
	if med.last.Type != frame.Bundle {
		t.Fatalf("flush sent a %v, want a bundle", med.last.Type)
	}
}

// TestGuaranteedTransmissionMakesOneCopy: each transmission of a retained
// guaranteed frame is one copy of it (the frame and its body) and nothing
// else — arming the retransmit timer is free — and the retained frame is not
// what the medium got.
func TestGuaranteedTransmissionMakesOneCopy(t *testing.T) {
	e, med := newSinkEndpoint()
	e.SendGuaranteedOwned(gmsg(0, 1, 1, "payload"))
	e.flushUnit(e.form.get(1))
	fl := e.inflight[gmsg(0, 1, 1, "").ID]
	n := testing.AllocsPerRun(200, func() {
		e.sched.Cancel(fl.timer)
		e.transmit(fl)
	})
	if n != 2 {
		t.Errorf("guaranteed transmission allocated %.1f objects; want 2 (frame and body copy)", n)
	}
	if med.last == fl.f || &med.last.Body[0] == &fl.f.Body[0] {
		t.Fatal("the medium was sent the retained frame, not a copy")
	}
}

// TestDelayedAckArmsWithoutAllocating: acknowledging a frame queues its
// record on the peer's pending state and arms that state's delay timer,
// with the state itself as the timer's handler. Once the state exists and
// its record array has room, that allocates nothing. Each run empties the
// queue and cancels the timer by hand, so the next ack arms it again.
func TestDelayedAckArmsWithoutAllocating(t *testing.T) {
	e, _ := newSinkEndpoint()
	f := gmsg(1, 0, 1, "a")
	f.Src = 1 // as the medium delivers it
	n := testing.AllocsPerRun(200, func() {
		if p := e.ackPend.get(f.Src); p != nil {
			e.sched.Cancel(p.timer)
			p.recs, p.timerSet = p.recs[:0], false
		}
		e.ack(f)
	})
	if n != 0 {
		t.Errorf("arming the delayed ack allocated %.1f objects; want 0", n)
	}
	if p := e.ackPend.get(f.Src); p == nil || !p.timer.Pending() || len(p.recs) != 1 {
		t.Fatal("the ack was not queued with its timer armed")
	}
}

package transport

// Allocation pins for the endpoint. A frame handed to the medium is never
// written again (lan.Medium.Send), and a body is read-only from Send on, so
// the endpoint copies only a frame header, and only where it keeps one frame
// and sends another: each transmission of a retained guaranteed frame.
// Unguaranteed sends and bundles go to the medium as built, and a flushed
// Ack frame is one object with its record. The endpoint's timers — a unit's
// flush, a flight's retransmission, a peer's delayed ack, a held frame's
// expiry — are scheduled with their owner as the handler, so arming one
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
	return newSinkEndpointWith(DefaultConfig())
}

func newSinkEndpointWith(cfg Config) (*Endpoint, *sinkMedium) {
	sched := simtime.NewScheduler()
	log := trace.New(sched.Now)
	log.Enable(false)
	med := &sinkMedium{}
	return New(0, med, sched, log, cfg), med
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
// guaranteed frame is one copy of its header and nothing else — arming the
// retransmit timer is free. The medium gets the copy, not the retained
// frame, and the copy shares the retained frame's body and passed link.
func TestGuaranteedTransmissionMakesOneCopy(t *testing.T) {
	e, med := newSinkEndpoint()
	f := gmsg(0, 1, 1, "payload")
	f.PassedLink = &frame.Link{To: frame.ProcID{Node: 2, Local: 5}, Channel: 3}
	e.SendGuaranteedOwned(f)
	e.flushUnit(e.form.get(1))
	fl := e.inflight[f.ID]
	n := testing.AllocsPerRun(200, func() {
		e.sched.Cancel(fl.timer)
		e.transmit(fl)
	})
	if n != 1 {
		t.Errorf("guaranteed transmission allocated %.1f objects; want 1 (the header copy)", n)
	}
	if med.last == fl.f {
		t.Fatal("the medium was sent the retained frame, not a copy")
	}
	if &med.last.Body[0] != &fl.f.Body[0] || med.last.PassedLink != fl.f.PassedLink {
		t.Fatal("the transmission copied the body or link instead of sharing the retained frame's")
	}
}

// TestFlushedAckIsOneAllocation: a delayed ack that expires with one record
// pending leaves as one object, the Ack frame with its record. Several
// records cost the frame and one copy of them. Either way the frame's
// records are its own, and the peer's pending queue keeps its backing array
// for the next acks.
func TestFlushedAckIsOneAllocation(t *testing.T) {
	for _, tc := range []struct {
		recs int
		want float64
	}{{1, 1}, {3, 2}} {
		e, med := newSinkEndpoint()
		ack := func() {
			for i := 0; i < tc.recs; i++ {
				f := gmsg(1, 0, uint64(i+1), "a")
				f.Src = 1 // as the medium delivers it
				e.ack(f)
			}
		}
		ack() // creates the peer's pending state and grows its array
		p := e.ackPend.get(1)
		e.sched.Cancel(p.timer)
		e.flushAcks(1)
		n := testing.AllocsPerRun(200, func() {
			ack()
			e.sched.Cancel(p.timer)
			e.flushAcks(1)
		})
		if n != tc.want {
			t.Errorf("%d records: flushing the delayed ack allocated %.1f objects; want %.0f", tc.recs, n, tc.want)
		}
		got := med.last
		if got.Type != frame.Ack || len(got.AckRecs) != tc.recs || len(p.recs) != 0 {
			t.Fatalf("%d records: flushed %v with %d records, %d left pending", tc.recs, got, len(got.AckRecs), len(p.recs))
		}
		if cap(p.recs) < tc.recs {
			t.Fatalf("%d records: the pending queue lost its backing array (cap %d)", tc.recs, cap(p.recs))
		}
		if &got.AckRecs[0] == &p.recs[:1][0] {
			t.Fatalf("%d records: the flushed frame aliases the pending queue", tc.recs)
		}
	}
}

// TestHeldFrameIsOneAllocation: on a medium without hardware ack slots a
// received guaranteed frame waits for its recorder ack (§6.1). Holding it
// costs one object, the held-frame record, which is its own expiry timer.
func TestHeldFrameIsOneAllocation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NeedRecorderAck = true
	e, _ := newSinkEndpointWith(cfg)
	f := gmsg(1, 0, 1, "a")
	f.Src = 1
	n := testing.AllocsPerRun(200, func() {
		e.handleGuaranteed(f)
		h := e.held[f.ID]
		if h == nil || !h.timer.Pending() {
			t.Fatal("the frame was not held with its expiry armed")
		}
		e.sched.Cancel(h.timer)
		delete(e.held, f.ID)
	})
	if n != 1 {
		t.Errorf("holding a frame for its recorder ack allocated %.1f objects; want 1", n)
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

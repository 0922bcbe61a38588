package transport

// Allocation pins for the endpoint. A frame handed to the medium is not
// written again until the medium hands it back (lan.Releaser), and a body is
// read-only from Send on. So a guaranteed message lives in its transmission
// unit, which holds the message's flight and the flight's copy of the
// sender's header; the first transmission sends that frame itself. A
// retransmission, a bundle, an unguaranteed or raw send, and a flushed Ack
// frame are frames of the endpoint's own. Every one of them, and the unit,
// goes back to the endpoint's free lists when the medium releases it, so a
// warm endpoint allocates nothing per message but a bundle's body and a
// held frame. The endpoint's timers — a unit's flush, a flight's
// retransmission, a peer's delayed ack, a held frame's expiry — are
// scheduled with their owner as the handler, so arming one allocates
// nothing.

import (
	"testing"
	"unsafe"

	"publishing/internal/frame"
	"publishing/internal/lan"
	"publishing/internal/simtime"
	"publishing/internal/trace"
)

// sinkMedium swallows every frame of its one station, so the endpoint's own
// allocations are all AllocsPerRun sees. It holds the last frame, as a
// medium holds one on the wire, and hands the one before it back at the
// next Send, so the endpoint's free lists warm up like a live medium's.
type sinkMedium struct {
	last   *frame.Frame
	sender lan.Releaser
	faults lan.FaultPlan
	stats  lan.Stats
}

func (m *sinkMedium) Attach(_ frame.NodeID, s lan.Station) { m.sender = s.(lan.Releaser) }
func (m *sinkMedium) AttachTap(frame.NodeID, lan.Tap)      {}
func (m *sinkMedium) Faults() *lan.FaultPlan               { return &m.faults }
func (m *sinkMedium) Stats() *lan.Stats                    { return &m.stats }

func (m *sinkMedium) Send(_ frame.NodeID, f *frame.Frame) {
	if m.last != nil {
		m.sender.Release(m.last)
	}
	m.last = f
}

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

// TestUnguaranteedSendCopiesTheHeader: the medium gets the endpoint's copy
// of the caller's header, sharing the body, and the caller's frame is not
// written, so one frame serves every send. Once the free list is warm, the
// send allocates nothing. SendRaw follows the same rule.
func TestUnguaranteedSendCopiesTheHeader(t *testing.T) {
	e, med := newSinkEndpoint()
	f := &frame.Frame{Dst: frame.Broadcast, Body: []byte("ping")}
	raw := &frame.Frame{Type: frame.RecorderAck, Dst: frame.Broadcast}
	for _, send := range []func(*frame.Frame){e.SendUnguaranteed, e.SendRaw} {
		if n := testing.AllocsPerRun(200, func() { send(f) }); n != 0 {
			t.Errorf("unguaranteed send allocated %.1f objects; want 0", n)
		}
		if n := testing.AllocsPerRun(200, func() { send(raw) }); n != 0 {
			t.Errorf("raw send allocated %.1f objects; want 0", n)
		}
	}
	e.SendUnguaranteed(f)
	g := med.last
	switch {
	case g == f:
		t.Fatal("the medium was sent the caller's frame")
	case g.Type != frame.Unguaranteed || g.Src != 0 || g.Dst != frame.Broadcast || &g.Body[0] != &f.Body[0]:
		t.Fatalf("the medium was sent %v, not a header copy sharing the body", g)
	case f.Type != 0:
		t.Fatal("the send wrote the caller's frame")
	}
}

// formedUnit admits two guaranteed frames and one unguaranteed rider for
// node 1 into one forming unit, ready for flushUnit.
func formedUnit(t *testing.T, e *Endpoint) *txUnit {
	t.Helper()
	e.SendGuaranteed(gmsg(0, 1, 1, "a"))
	e.SendGuaranteed(gmsg(0, 1, 2, "b"))
	e.SendUnguaranteed(&frame.Frame{Dst: 1, Body: []byte("c")})
	u := e.tx.get(1).form
	if u == nil || len(u.recs) != 2 || len(u.riders) != 1 {
		t.Fatalf("unit did not form: %+v", u)
	}
	return u
}

// TestBundleFlushMakesNoCopy: flushing a unit allocates the bundle's body —
// nothing else: the frame comes from the free list, the rider goes back to
// it once encoded, and no retransmit timer per member allocates. The timers
// are cancelled after each run so the scheduler reuses their event nodes.
// The body stays new per bundle: receivers keep members' bodies.
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
	if n != 1 {
		t.Errorf("bundle flush allocated %.1f objects; want 1 (the body)", n)
	}
	if len(u.riders) != 0 {
		t.Fatalf("the flushed unit still holds %d riders", len(u.riders))
	}
	if med.last.Type != frame.Bundle {
		t.Fatalf("flush sent a %v, want a bundle", med.last.Type)
	}
}

// TestFirstTransmissionIsTheRetainedFrame: the medium is sent the flight's
// own frame, and a guaranteed send and its flush allocate nothing once warm.
// The endpoint keeps no pointer to the caller's frame, so one frame is
// reused for every send. Each run completes its flight, so the next one
// opens a unit of its own: the unit whose frame the medium held until that
// send handed it back.
func TestFirstTransmissionIsTheRetainedFrame(t *testing.T) {
	e, med := newSinkEndpoint()
	f := gmsg(0, 1, 0, "payload")
	var fl *flight
	n := testing.AllocsPerRun(200, func() {
		f.ID.Seq++
		e.SendGuaranteed(f)
		e.flushUnit(e.tx.get(1).form)
		fl = e.flightOf(f.ID)
		e.finish(fl)
	})
	if n != 0 {
		t.Errorf("a guaranteed send and its first transmission allocated %.1f objects; want 0", n)
	}
	if med.last != &fl.f {
		t.Fatal("the medium was sent a copy, not the flight's frame")
	}
	if med.last.ID != f.ID || &med.last.Body[0] != &f.Body[0] || f.XSeq != 0 {
		t.Fatal("the flight's frame is not a header copy of the caller's, or the caller's was written")
	}
}

// TestRetransmissionCopiesTheHeader: a retransmission is a plain frame
// holding a copy of the flight's header, from the free list once warm. The
// first transmission was the flight's own frame and belongs to the medium,
// which may have marked it corrupt, and it carried that send's ack block.
// The copy shares the body and passed link, carries neither the mark nor the
// old block, only the acks pending at its own send time, and leaves the
// first transmission as it was sent.
func TestRetransmissionCopiesTheHeader(t *testing.T) {
	e, med := newSinkEndpoint()
	ackFor := func(seq uint64) frame.MsgID {
		g := gmsg(1, 0, seq, "")
		g.Src = 1 // as the medium delivers it
		e.ack(g)
		return g.ID
	}
	first := ackFor(1) // pending when the message first goes out
	f := gmsg(0, 1, 1, "payload")
	f.PassedLink = &frame.Link{To: frame.ProcID{Node: 2, Local: 5}, Channel: 3}
	e.SendGuaranteed(f)
	e.flushUnit(e.tx.get(1).form)
	fl := e.flightOf(f.ID)
	if med.last != &fl.f || len(fl.f.AckRecs) != 1 || fl.f.AckRecs[0].ID != first {
		t.Fatal("the first transmission was not the flight's frame with the pending ack")
	}
	fl.f.Corrupt = true // as the medium's maybeCorrupt marks a frame in Send

	n := testing.AllocsPerRun(200, func() {
		e.sched.Cancel(fl.timer)
		e.transmit(fl)
	})
	if n != 0 {
		t.Errorf("a retransmission allocated %.1f objects; want 0", n)
	}
	later := ackFor(2) // pending at the next retransmission only
	e.sched.Cancel(fl.timer)
	e.transmit(fl)
	g := med.last
	switch {
	case g == &fl.f:
		t.Fatal("the retransmission sent the first transmission's frame again")
	case &g.Body[0] != &fl.f.Body[0] || g.PassedLink != fl.f.PassedLink:
		t.Fatal("the retransmission copied the body or link instead of sharing the flight's")
	case g.Corrupt:
		t.Fatal("the retransmission carries the first transmission's corrupt mark")
	case len(g.AckRecs) != 1 || g.AckRecs[0].ID != later:
		t.Fatalf("the retransmission carries acks %v; want only %v", g.AckRecs, later)
	case !fl.f.Corrupt || len(fl.f.AckRecs) != 1 || fl.f.AckRecs[0].ID != first:
		t.Fatal("a retransmission wrote the first transmission")
	}
}

// TestFlushedAckIsOneAllocation: a delayed ack that expires with one record
// pending leaves as an Ack frame with its record, one object when the free
// list is cold. Once the medium hands the frame back, the next flush reuses
// it and its record array, so a warm flush allocates nothing, with one
// record or several. Either way the frame's records are its own, and the
// peer's pending queue keeps its backing array for the next acks.
func TestFlushedAckIsOneAllocation(t *testing.T) {
	for _, tc := range []struct {
		recs int
		want float64
	}{{1, 0}, {3, 0}} {
		e, med := newSinkEndpoint()
		ack := func() {
			for i := 0; i < tc.recs; i++ {
				f := gmsg(1, 0, uint64(i+1), "a")
				f.Src = 1 // as the medium delivers it
				e.ack(f)
			}
		}
		ack() // creates the peer's pending state and grows its array
		p := &e.rx.get(1).ack
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
// costs one object, the held-frame record, which is its own expiry timer
// and holds the frame's header by value: the wire frame is valid only
// during Receive.
func TestHeldFrameIsOneAllocation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NeedRecorderAck = true
	e, _ := newSinkEndpointWith(cfg)
	f := gmsg(1, 0, 1, "a")
	f.Src = 1
	n := testing.AllocsPerRun(200, func() {
		e.handleGuaranteed(f)
		h := e.held[f.ID]
		if h == nil || !h.timer.Pending() || &h.f == f || h.f.ID != f.ID {
			t.Fatal("the frame's header was not held with its expiry armed")
		}
		e.sched.Cancel(h.timer)
		delete(e.held, f.ID)
	})
	if n != 1 {
		t.Errorf("holding a frame for its recorder ack allocated %.1f objects; want 1", n)
	}
}

// TestFirstContactAllocations: what the first exchange with a peer costs in
// peer state alone. A destination's send state is a row of the endpoint's
// send table, so sending to a new destination, and taking its first
// round-trip sample, allocates nothing. A sender's receive state — its
// stream and the acks owed to it, with room for the first — is one object,
// made on the first frame it sends and carved from a block of rxBlockLen, so
// every rxBlockLen new senders cost one allocation. The endpoint's free
// lists and its scheduler's event nodes are warmed first, and Peers
// presizes both tables, so only peer state is counted. Peers presizes
// the send table for every node of a cluster on every endpoint, so a row
// costs n² over the cluster: it stays at 48 bytes.
func TestFirstContactAllocations(t *testing.T) {
	if s := unsafe.Sizeof(txPeer{}); s > 48 {
		t.Errorf("a send-table row is %d bytes; want at most 48", s)
	}
	if s := rxBlockLen*unsafe.Sizeof(rxPeer{}) + 8; s > 2048 || s+unsafe.Sizeof(rxPeer{}) <= 2048 {
		t.Errorf("a block of %d rxPeers and its allocation header are %d bytes; want the most that fit in 2048", rxBlockLen, s)
	}
	const peers = 32
	cfg := DefaultConfig()
	cfg.Peers = 4 * peers
	e, _ := newSinkEndpointWith(cfg)

	// One message to dst: flushed, transmitted, and acked by dst one round
	// trip later, which is the destination's first RTT sample.
	f, a := gmsg(0, 0, 0, "x"), &frame.Frame{Type: frame.Ack}
	send := func(dst frame.NodeID) {
		f.Dst, f.To.Node = dst, dst
		f.ID.Seq++
		e.SendGuaranteed(f)
		e.sched.Run(e.sched.Now() + flushDelay)
		e.sched.Run(e.sched.Now() + simtime.Millisecond)
		a.Src, a.ID = dst, f.ID
		e.Receive(a)
	}
	// One in-order guaranteed frame from src, delivered and acked: the ack
	// leaves as a standalone Ack frame when its delay expires.
	g := gmsg(0, 0, 1, "y")
	recv := func(src frame.NodeID) {
		g.Src, g.ID.Sender.Node, g.From.Node = src, src, src
		e.Receive(g)
		e.sched.Run(e.sched.Now() + cfg.AckDelay)
	}

	const warm = 4
	for dst := frame.NodeID(4*peers - warm); dst < 4*peers; dst++ {
		send(dst)
		recv(dst)
	}
	// AllocsPerRun calls each function once more than it counts, so each
	// phase takes peers+1 fresh ids.
	const exchanges = warm + peers + 1
	next := frame.NodeID(1)
	n := testing.AllocsPerRun(peers, func() { send(next); next++ })
	if n != 0 {
		t.Errorf("sending to a new destination and measuring its round trip allocated %.0f objects; want 0", n)
	}
	if s := e.Stats(); s.AcksReceived != exchanges || e.InFlight() != 0 {
		t.Fatalf("%d acks received, %d in flight; want every send acked", s.AcksReceived, e.InFlight())
	}
	// Each run takes rxBlockLen fresh senders, so it crosses one block
	// boundary wherever the blocks start.
	const blocks = peers / rxBlockLen
	next = 2 * peers
	n = testing.AllocsPerRun(blocks, func() {
		for range rxBlockLen {
			recv(next)
			next++
		}
	})
	if n != 1 {
		t.Errorf("receiving and acking a first frame from %d new senders allocated %.0f objects; want 1", rxBlockLen, n)
	}
	if s, recvs := e.Stats(), uint64(warm+(blocks+1)*rxBlockLen); s.Delivered != recvs || s.AcksDelayedFlush != recvs {
		t.Fatalf("%d delivered, %d acks flushed; want every frame delivered and acked", s.Delivered, s.AcksDelayedFlush)
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
		if rp := e.rx.get(f.Src); rp != nil {
			e.sched.Cancel(rp.ack.timer)
			rp.ack.recs, rp.ack.timerSet = rp.ack.recs[:0], false
		}
		e.ack(f)
	})
	if n != 0 {
		t.Errorf("arming the delayed ack allocated %.1f objects; want 0", n)
	}
	if rp := e.rx.get(f.Src); rp == nil || !rp.ack.timer.Pending() || len(rp.ack.recs) != 1 {
		t.Fatal("the ack was not queued with its timer armed")
	}
}

package transport

// Allocation pins for the endpoint. A frame handed to the medium is not
// written again until the medium hands it back (lan.Releaser), and a body is
// read-only from Send on. So a guaranteed message lives in its transmission
// unit, which holds the message's flight and the flight's copy of the
// sender's header; the first transmission sends that frame itself, and a
// bundle is the unit's own frame, whose records hold the members' headers
// and share their bodies. A retransmission, an unguaranteed or raw send,
// and a flushed Ack frame are frames of the endpoint's own, and a
// piggybacked ack block is an array of its own. Every one of them, and the
// unit, goes back to the endpoint's free lists when the medium releases it,
// so a warm endpoint allocates nothing per message but a held frame. The
// endpoint's timers — a unit's flush, a flight's
// retransmission, a peer's delayed ack, a held frame's expiry — are
// scheduled with their owner as the handler, so arming one allocates
// nothing. A peer's delayed acks are an entry of the endpoint's ack pool,
// held while acks are owed to it and then handed back for the next peer.

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

// TestBundleFlushMakesNoCopy: a unit of two guaranteed members and a rider
// goes out as the unit's own Bundle frame. Its records hold the messages'
// headers and share their bodies, in an array the unit keeps, and the rider
// goes back to the free list at flush. So once warm, forming a unit,
// flushing it and finishing its members allocates nothing: no body, no
// frame, no timer. The unit comes back when the medium hands the bundle
// back, which the sink does at the next run's flush.
func TestBundleFlushMakesNoCopy(t *testing.T) {
	e, med := newSinkEndpoint()
	a, b := gmsg(0, 1, 0, "a"), gmsg(0, 1, 0, "b")
	rider := &frame.Frame{Dst: 1, Body: []byte("c")}
	var u *txUnit
	run := func() {
		a.ID.Seq += 2
		b.ID.Seq = a.ID.Seq + 1
		e.SendGuaranteed(a)
		e.SendGuaranteed(b)
		e.SendUnguaranteed(rider)
		u = e.tx.get(1).form
		e.flushUnit(u)
		for _, fl := range u.recs {
			e.finish(fl)
		}
	}
	run()
	run()
	if n := testing.AllocsPerRun(200, run); n != 0 {
		t.Errorf("forming, flushing and finishing a bundle allocated %.1f objects; want 0", n)
	}
	got := med.last
	switch {
	case got != u.bundle || got.Type != frame.Bundle || len(got.Recs) != 3:
		t.Fatalf("flush sent %v, not the unit's bundle of three records", got)
	case len(u.riders) != 0:
		t.Fatalf("the flushed unit still holds %d riders", len(u.riders))
	case &got.Recs[0].Body[0] != &a.Body[0] || &got.Recs[1].Body[0] != &b.Body[0] || &got.Recs[2].Body[0] != &rider.Body[0]:
		t.Fatal("a bundle record copied its message's body")
	case got.Recs[0].ID != a.ID || got.Recs[2].Type != frame.Unguaranteed:
		t.Fatalf("the bundle's records are %+v", got.Recs)
	}
}

// TestPiggybackedAcksReuseTheirArrays: acknowledgements pending toward a
// peer ride the next frame sent to it, a lone message's or a bundle's,
// copied into an array from the endpoint's free list. The frame empties the
// queue, so its entry goes back to the ack pool with its own array, and the
// frame's array goes back when the frame is reused. So once warm, queueing
// acks and sending them piggybacked allocates nothing, and every run takes
// the pool's one entry again. Handing the queue's array to the frame
// instead would leave the entry to grow a new one for the next acks.
func TestPiggybackedAcksReuseTheirArrays(t *testing.T) {
	for _, members := range []int{1, 2} {
		e, med := newSinkEndpoint()
		in := gmsg(1, 0, 0, "in")
		in.Src = 1 // as the medium delivers it
		out := []*frame.Frame{gmsg(0, 1, 0, "x"), gmsg(0, 1, 0, "y")}[:members]
		seq := uint64(0)
		run := func() {
			for range 3 {
				in.ID.Seq++
				e.ack(in)
			}
			for _, f := range out {
				seq++
				f.ID.Seq = seq
				e.SendGuaranteed(f)
			}
			u := e.tx.get(1).form
			e.flushUnit(u)
			for _, fl := range u.recs {
				e.finish(fl)
			}
		}
		for range 3 {
			run()
		}
		if n := testing.AllocsPerRun(200, run); n != 0 {
			t.Errorf("%d member(s): piggybacking pending acks allocated %.1f objects per send; want 0", members, n)
		}
		got, p := med.last, e.acks.at(1)
		switch {
		case len(got.AckRecs) != 3 || got.AckRecs[2].ID != in.ID:
			t.Fatalf("%d member(s): sent %v carrying acks %v; want the 3 pending", members, got, got.AckRecs)
		case e.rx.get(1).ack != 0 || e.acks.free != 1 || e.acks.n != 1 || len(p.recs) != 0 || p.timer.Pending():
			t.Fatalf("%d member(s): the emptied queue was not handed back to the pool (%d acks left pending)", members, len(p.recs))
		case cap(p.recs) < 3 || &got.AckRecs[0] == &p.recs[:1][0]:
			t.Fatalf("%d member(s): the pending queue gave its array to the frame", members)
		}
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
// emptied queue goes back to the ack pool keeping its backing array for the
// next acks.
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
		flush := func() {
			ack()
			e.sched.Run(e.sched.Now() + e.cfg.AckDelay)
		}
		flush() // takes the pool's entry and grows its array
		n := testing.AllocsPerRun(200, flush)
		if n != tc.want {
			t.Errorf("%d records: flushing the delayed ack allocated %.1f objects; want %.0f", tc.recs, n, tc.want)
		}
		got, p := med.last, e.acks.at(1)
		if got.Type != frame.Ack || len(got.AckRecs) != tc.recs || len(p.recs) != 0 {
			t.Fatalf("%d records: flushed %v with %d records, %d left pending", tc.recs, got, len(got.AckRecs), len(p.recs))
		}
		if e.rx.get(1).ack != 0 || e.acks.free != 1 || e.acks.n != 1 {
			t.Fatalf("%d records: the flushed queue was not handed back to the pool", tc.recs)
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
	cfg.RecorderAckHold = 40 * simtime.Millisecond
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
// round-trip sample, allocates nothing. A sender's receive stream is a row
// of the receive table, and the acks owed to it an entry of the ack pool,
// taken with the first ack and handed back when it is flushed; so once the
// pool holds one entry, a first frame from a new sender allocates nothing
// either. The endpoint's free lists and its scheduler's event nodes are
// warmed first, and Peers presizes both tables, so only peer state is
// counted. Peers presizes both tables for every node of a cluster on every
// endpoint, so a row costs n² over the cluster: a send row stays at 48
// bytes and a receive row at 24.
func TestFirstContactAllocations(t *testing.T) {
	if s := unsafe.Sizeof(txPeer{}); s > 48 {
		t.Errorf("a send-table row is %d bytes; want at most 48", s)
	}
	if s := unsafe.Sizeof(rxStream{}); s > 24 {
		t.Errorf("a receive-table row is %d bytes; want at most 24", s)
	}
	const peers = 32
	cfg := DefaultConfig()
	cfg.Peers = 4 * peers
	e, _ := newSinkEndpointWith(cfg)

	// One message to dst: flushed, transmitted, and acked by dst one round
	// trip later, which is the destination's first RTT sample.
	f, a := gmsg(0, 0, 0, "x"), &frame.Frame{Type: frame.Ack, AckRecs: make([]frame.AckRec, 1)}
	send := func(dst frame.NodeID) {
		f.Dst, f.To.Node = dst, dst
		f.ID.Seq++
		e.SendGuaranteed(f)
		e.sched.Run(e.sched.Now() + flushDelay)
		e.sched.Run(e.sched.Now() + simtime.Millisecond)
		a.Src, a.ID, a.AckRecs[0] = dst, f.ID, frame.AckRec{ID: f.ID, Rcv: f.To}
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
	next = 2 * peers
	n = testing.AllocsPerRun(peers, func() { recv(next); next++ })
	if n != 0 {
		t.Errorf("receiving and acking a first frame from a new sender allocated %.0f objects; want 0", n)
	}
	if s := e.Stats(); s.Delivered != exchanges || s.AcksDelayedFlush != exchanges {
		t.Fatalf("%d delivered, %d acks flushed; want every frame delivered and acked", s.Delivered, s.AcksDelayedFlush)
	}
	if e.acks.n != 1 || len(e.rx.more) != 0 {
		t.Fatalf("the ack pool grew to %d entries and the receive table by %d chunks; want 1 and none", e.acks.n, len(e.rx.more))
	}
}

// TestDelayedAckArmsWithoutAllocating: acknowledging a frame toward a peer
// nothing is owed to takes an entry of the ack pool, queues the record on it
// and arms the entry's delay timer, with the entry itself as the timer's
// handler. Once the pool holds a free entry whose record array has room,
// that allocates nothing. Each run cancels the timer and hands the entry
// back by hand, so the next ack takes it and arms it again.
func TestDelayedAckArmsWithoutAllocating(t *testing.T) {
	e, _ := newSinkEndpoint()
	f := gmsg(1, 0, 1, "a")
	f.Src = 1 // as the medium delivers it
	n := testing.AllocsPerRun(200, func() {
		if st := e.rx.get(f.Src); st != nil && st.ack != 0 {
			e.sched.Cancel(e.acks.at(st.ack).timer)
			e.releaseAcks(st)
		}
		e.ack(f)
	})
	if n != 0 {
		t.Errorf("arming the delayed ack allocated %.1f objects; want 0", n)
	}
	st := e.rx.get(f.Src)
	if st == nil || st.ack != 1 || e.acks.n != 1 {
		t.Fatal("the ack did not take the pool's one entry")
	}
	if p := e.acks.at(st.ack); !p.timer.Pending() || len(p.recs) != 1 || p.peer != f.Src {
		t.Fatal("the ack was not queued with its timer armed")
	}
}

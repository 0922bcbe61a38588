package transport

// The receive side's per-sender state: a 24-byte stream row per sender, in a
// table whose rows never move, and a pool of delayed-ack queues, an entry of
// which a sender holds only while acknowledgements are owed to it.

import (
	"runtime"
	"testing"

	"publishing/internal/frame"
	"publishing/internal/lan"
	"publishing/internal/simtime"
	"publishing/internal/trace"
)

// freeAcks counts the entries on the ack pool's free chain.
func (e *Endpoint) freeAcks() int {
	n := 0
	for h := e.acks.free; h != 0; h = e.acks.at(h).next {
		n++
	}
	return n
}

// fromPeer is an in-order guaranteed frame from src at sequence seq of its
// stream's first epoch, as the medium delivers it.
func fromPeer(src frame.NodeID, seq uint64) *frame.Frame {
	g := gmsg(src, 0, seq+1, "in")
	g.Src, g.XSeq = src, seq
	return g
}

// TestAckPoolHighWaterIsAcksOwed: 10,000 senders each send one frame, and
// each frame's ack is flushed before the next sender's frame arrives, so
// acks are owed to one sender at a time and the pool never holds more than
// one entry. The receive table grows past its presize for every sender.
func TestAckPoolHighWaterIsAcksOwed(t *testing.T) {
	const senders = 10000
	e, med := newSinkEndpoint()
	delivered := 0
	e.Deliver = func(*frame.Frame) bool { delivered++; return true }
	for src := frame.NodeID(1); src <= senders; src++ {
		e.Receive(fromPeer(src, 0))
		e.sched.Run(e.sched.Now() + e.cfg.AckDelay)
		if e.rx.get(src).ack != 0 {
			t.Fatalf("sender %d still holds an ack entry after its flush", src)
		}
	}
	s := e.Stats()
	if delivered != senders || s.AcksDelayedFlush != senders || med.last.Type != frame.Ack {
		t.Fatalf("%d delivered, %d acks flushed; want %d of each", delivered, s.AcksDelayedFlush, senders)
	}
	if e.acks.n != 1 || e.freeAcks() != 1 || len(e.acks.more) != 0 {
		t.Fatalf("the ack pool reached %d entries, %d free; want a high-water mark of 1", e.acks.n, e.freeAcks())
	}
	if rows := e.rx.len(); rows <= senders || rows > senders+rxChunk {
		t.Fatalf("the receive table has %d rows for %d senders", rows, senders)
	}
}

// TestPiggybackReturnsAckEntry: a data frame toward a peer takes the acks
// owed to it. When that empties the peer's queue, the delay timer is
// cancelled and the entry goes back to the pool, so no Ack frame follows;
// when records are left over, the entry stays with its timer armed, and the
// timer flushes the rest.
func TestPiggybackReturnsAckEntry(t *testing.T) {
	for _, owed := range []int{3, maxPiggybackRecs + 2} {
		e, med := newSinkEndpoint()
		for seq := range owed {
			e.Receive(fromPeer(1, uint64(seq)))
		}
		st := e.rx.get(1)
		h := st.ack
		timer := e.acks.at(h).timer
		if h == 0 || !timer.Pending() || len(e.acks.at(h).recs) != owed {
			t.Fatalf("%d owed: the acks were not queued on a pool entry with its timer armed", owed)
		}
		e.SendGuaranteed(gmsg(0, 1, 1, "out"))
		e.flushUnit(e.tx.get(1).form)
		carried := len(med.last.AckRecs)
		if carried != min(owed, maxPiggybackRecs) {
			t.Fatalf("%d owed: the data frame carried %d acks", owed, carried)
		}
		left := owed - carried
		if left == 0 {
			if timer.Pending() || st.ack != 0 || e.acks.free != h || e.freeAcks() != 1 {
				t.Fatalf("%d owed: the emptied queue kept its timer or its entry", owed)
			}
		} else if !timer.Pending() || st.ack != h || e.freeAcks() != 0 || len(e.acks.at(h).recs) != left {
			t.Fatalf("%d owed: the queue with %d acks left lost its timer or its entry", owed, left)
		}
		e.sched.Run(e.sched.Now() + e.cfg.AckDelay)
		if got, want := e.Stats().AcksDelayedFlush, uint64(min(left, 1)); got != want {
			t.Fatalf("%d owed: %d Ack frames flushed after the piggyback; want %d", owed, got, want)
		}
		if st.ack != 0 || e.freeAcks() != 1 || e.acks.n != 1 {
			t.Fatalf("%d owed: the entry was not back in the pool after the flush", owed)
		}
	}
}

// TestResetReturnsAckEntries: a crash with acks owed to k peers cancels the
// k delay timers and hands the k entries back to the pool, so no Ack frame
// leaves after it, and the next k peers take the same entries. k crosses the
// pool's inline chunk.
func TestResetReturnsAckEntries(t *testing.T) {
	const k = ackChunk + 3
	e, med := newSinkEndpoint()
	timers := make([]simtime.Event, 0, k)
	for src := frame.NodeID(1); src <= k; src++ {
		e.Receive(fromPeer(src, 0))
		timers = append(timers, e.acks.at(e.rx.get(src).ack).timer)
	}
	if e.acks.n != k || e.freeAcks() != 0 {
		t.Fatalf("acks owed to %d peers hold %d entries, %d free", k, e.acks.n, e.freeAcks())
	}
	sent := med.last
	e.Reset()
	for i, ev := range timers {
		if !ev.Cancelled() {
			t.Fatalf("peer %d's delay timer survived the Reset", i+1)
		}
	}
	if e.freeAcks() != k {
		t.Fatalf("the Reset handed %d of %d entries back to the pool", e.freeAcks(), k)
	}
	e.sched.Run(e.sched.Now() + 10*e.cfg.AckDelay)
	if s := e.Stats(); s.AcksDelayedFlush != 0 || med.last != sent {
		t.Fatalf("%d Ack frames flushed after the Reset; want none", s.AcksDelayedFlush)
	}
	for src := frame.NodeID(k + 1); src <= 2*k; src++ {
		e.Receive(fromPeer(src, 0))
	}
	if e.acks.n != k || e.freeAcks() != 0 {
		t.Fatalf("%d new peers grew the pool to %d entries; want the %d handed back", k, e.acks.n, k)
	}
}

// TestRowsNeverMove: a sender beyond Config.Peers first appears during the
// upcall that delivers another sender's frame, so the receive table grows
// while accept holds the delivering sender's row. The row stays where it
// was: the stream advances past the delivered frame, drains the two it had
// buffered, suppresses a duplicate and delivers the next in order. The
// delivering sender's row is in the presized rows, then in a chunk past
// them.
func TestRowsNeverMove(t *testing.T) {
	const peers, late = 2, 1000
	for _, src := range []frame.NodeID{1, peers + 1} {
		cfg := DefaultConfig()
		cfg.Peers = peers
		e, _ := newSinkEndpointWith(cfg)
		var got []frame.MsgID
		e.Deliver = func(f *frame.Frame) bool {
			got = append(got, f.ID)
			if f.Src == src && len(got) == 1 {
				e.Receive(fromPeer(late, 0))
			}
			return true
		}
		e.Receive(fromPeer(src, 2))
		e.Receive(fromPeer(src, 1))
		e.Receive(fromPeer(src, 0))
		e.Receive(fromPeer(src, 1))
		e.Receive(fromPeer(src, 3))
		want := []frame.MsgID{fromPeer(src, 0).ID, fromPeer(late, 0).ID, fromPeer(src, 1).ID, fromPeer(src, 2).ID, fromPeer(src, 3).ID}
		if len(got) != len(want) {
			t.Fatalf("sender %d: delivered %v; want %v", src, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("sender %d: delivered %v; want %v", src, got, want)
			}
		}
		if st := e.rx.get(src); st.expected != 4 || len(st.buf) != 0 {
			t.Fatalf("sender %d: the stream expects %d with %d buffered; want 4 and none", src, st.expected, len(st.buf))
		}
		if s := e.Stats(); s.DupsSuppressed != 1 {
			t.Fatalf("sender %d: %d duplicates suppressed; want 1", src, s.DupsSuppressed)
		}
	}
}

// TestPeerStateBytesPerPair pins what peer state a cluster retains: 256
// endpoints with Peers 256, each sending one guaranteed frame to every
// other, one destination a round, so each pair exchanges one frame each way
// and no queue grows. The medium is the fast LAN (100 Mb/s, 50 µs gap), so
// a round's 512 frames clear the wire before any timeout and nothing is
// retransmitted. The heap is measured after runtime.GC(), from before the
// first endpoint to after the last round, so the figure is the same on every
// host with one Go release. Over the 65,280 ordered pairs it is 91.4 B a
// pair run alone and 92.0 B after the package's other tests: a send row
// (48 B) and a receive row (24 B), 78.5 B with their tables' allocation
// headers and size classes, and each endpoint's own state and the medium's,
// spread over 255 peers. A 112-byte receive record per sender, carved 18 to
// a 2 KB block and pointed at from an 8-byte slot, held 192.0 B a pair. The
// ceiling admits this layout and not one more 8-byte slot per pair.
func TestPeerStateBytesPerPair(t *testing.T) {
	const n, ceiling = 256, 96.0
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	sched := simtime.NewScheduler()
	log := trace.New(sched.Now)
	log.Enable(false)
	lcfg := lan.DefaultConfig()
	lcfg.BitsPerSecond, lcfg.InterframeGap = 100_000_000, 50*simtime.Microsecond
	med := lan.NewPerfect(lcfg, sched, simtime.NewRand(7), log)
	cfg := DefaultConfig()
	cfg.Peers = n
	eps := make([]*Endpoint, n)
	delivered := 0
	for i := range eps {
		eps[i] = New(frame.NodeID(i), med, sched, log, cfg)
		eps[i].Deliver = func(*frame.Frame) bool { delivered++; return true }
	}
	for r := 1; r < n; r++ {
		for i, e := range eps {
			e.SendGuaranteed(gmsg(frame.NodeID(i), frame.NodeID((i+r)%n), uint64(r), "x"))
		}
		sched.RunAll(1 << 20)
	}
	for _, e := range eps {
		if e.InFlight() != 0 || e.Stats().Retransmits != 0 {
			t.Fatalf("node %d has %d frames in flight after %d retransmits; want none of either",
				e.Node(), e.InFlight(), e.Stats().Retransmits)
		}
	}
	if delivered != n*(n-1) {
		t.Fatalf("%d frames delivered; want %d", delivered, n*(n-1))
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(eps)
	runtime.KeepAlive(med)
	got := float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / (n * (n - 1))
	t.Logf("%.1f B of heap per ordered peer pair (ceiling %.0f)", got, ceiling)
	if got > ceiling {
		t.Errorf("%.1f B of heap per ordered peer pair, over the ceiling of %.0f", got, ceiling)
	}
}

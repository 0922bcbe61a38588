package lan

// Allocation-regression coverage for delivery. A sent frame is never written
// again (Medium.Send), so every receiver, tap and injected duplicate hears
// the one frame the sender put on the wire, and delivery costs O(receivers)
// with zero heap allocations — with per-receiver faults armed as much as
// without. The clean fast path additionally takes no RNG draw or map lookup
// per station. AllocsPerRun pins both at zero so a future "just clone it to
// be safe" or an ungated trace call shows up as a test failure, not a silent
// 2x allocation regression at 256 nodes.

import (
	"testing"

	"publishing/internal/frame"
	"publishing/internal/simtime"
	"publishing/internal/trace"
)

// nopStation discards every frame. The stock test station appends frames
// to a slice, which allocates — useless for pinning the medium's own
// allocation behavior.
type nopStation struct{ got int }

func (s *nopStation) Receive(f *frame.Frame) { s.got++ }

func newAllocRig(stations int) (*Perfect, []*nopStation) {
	sched := simtime.NewScheduler()
	rng := simtime.NewRand(1)
	log := trace.New(sched.Now)
	log.Enable(false)
	m := NewPerfect(DefaultConfig(), sched, rng, log)
	recv := make([]*nopStation, stations)
	for i := range recv {
		recv[i] = &nopStation{}
		m.Attach(frame.NodeID(i), recv[i])
	}
	return m, recv
}

// TestBroadcastDeliveryAllocs requires the clean broadcast path to deliver
// to all 63 non-sender stations without a single heap allocation: the
// receivers share the frame, the precomputed receiver set is reused, and
// no fault draw happens. AllocsPerRun's warm-up call absorbs the one-time
// receiver-cache build after Attach.
func TestBroadcastDeliveryAllocs(t *testing.T) {
	m, recv := newAllocRig(64)
	f := &frame.Frame{Type: frame.Unguaranteed, Src: 0, Dst: frame.Broadcast}
	if n := testing.AllocsPerRun(200, func() { m.deliver(0, f) }); n != 0 {
		t.Errorf("clean broadcast delivery allocated %.1f objects per frame; want 0", n)
	}
	if recv[1].got == 0 || recv[0].got != 0 {
		t.Fatalf("delivery shape wrong: recv[0]=%d (want 0), recv[1]=%d (want >0)", recv[0].got, recv[1].got)
	}
}

// TestUnicastDeliveryAllocs pins the clean unicast path at zero
// allocations likewise: one station lookup, one Receive, no clone.
func TestUnicastDeliveryAllocs(t *testing.T) {
	m, recv := newAllocRig(64)
	f := &frame.Frame{Type: frame.Unguaranteed, Src: 0, Dst: 7}
	if n := testing.AllocsPerRun(200, func() { m.deliver(0, f) }); n != 0 {
		t.Errorf("clean unicast delivery allocated %.1f objects per frame; want 0", n)
	}
	if recv[7].got == 0 {
		t.Fatal("unicast frame never arrived")
	}
}

// TestObserverInstalledStillZeroAlloc pins the monitor-off contract: an
// installed trace observer must cost nothing while the log is disabled. The
// online monitor rides the observer hook, so this is what keeps "monitor
// compiled in but not enabled" indistinguishable from the seed hot path —
// no closure capture, no Event construction, no allocation.
func TestObserverInstalledStillZeroAlloc(t *testing.T) {
	m, recv := newAllocRig(64)
	observed := 0
	m.log.SetObserver(func(e trace.Event) { observed++ })
	f := &frame.Frame{Type: frame.Unguaranteed, Src: 0, Dst: frame.Broadcast}
	if n := testing.AllocsPerRun(200, func() { m.deliver(0, f) }); n != 0 {
		t.Errorf("broadcast delivery with an observer on a disabled log allocated %.1f objects per frame; want 0", n)
	}
	if observed != 0 {
		t.Fatalf("disabled log leaked %d events to the observer", observed)
	}
	if recv[1].got == 0 {
		t.Fatal("delivery never happened")
	}
}

// armReceiverFaults arms every per-receiver fault deliver draws for — loss
// on one link, interface misses and duplication — at rates high enough that
// a few hundred deliveries take every branch.
func armReceiverFaults(m *Perfect) {
	p := m.Faults()
	p.ReceiverMissProb = 0.1
	p.DupProb = 0.1
	p.SetLinkLoss(0, 7, 0.1)
}

// TestFaultedDeliveryAllocs pins the faulted per-receiver path at zero
// allocations too, broadcast and unicast: a receiver and its injected
// duplicate are handed the same frame, not a copy each.
func TestFaultedDeliveryAllocs(t *testing.T) {
	for _, dst := range []frame.NodeID{frame.Broadcast, 7} {
		m, recv := newAllocRig(64)
		armReceiverFaults(m)
		f := &frame.Frame{Type: frame.Unguaranteed, Src: 0, Dst: dst}
		if n := testing.AllocsPerRun(200, func() { m.deliver(0, f) }); n != 0 {
			t.Errorf("faulted delivery to %d allocated %.1f objects per frame; want 0", dst, n)
		}
		s := m.Stats()
		if s.FramesDuped == 0 || s.LinkDrops == 0 || recv[7].got == 0 {
			t.Fatalf("faults to %d never fired: duped=%d linkDrops=%d recv[7]=%d", dst, s.FramesDuped, s.LinkDrops, recv[7].got)
		}
	}
}

// TestPerfectSendAllocs pins a transmission on the reference medium at zero
// allocations: the frame is not copied, at Send or at delivery, and its
// completion rides the medium's pipe instead of a closure per frame.
func TestPerfectSendAllocs(t *testing.T) {
	m, recv := newAllocRig(64)
	// Each run sends a frame of its own: a sent frame belongs to the medium.
	frames := make([]*frame.Frame, 256)
	for i := range frames {
		frames[i] = &frame.Frame{Type: frame.Unguaranteed, Src: 0, Dst: frame.Broadcast, Body: []byte("x")}
	}
	i := 0
	n := testing.AllocsPerRun(200, func() {
		m.Send(0, frames[i])
		i++
		for m.sched.Step() {
		}
	})
	if n != 0 {
		t.Errorf("Perfect.Send and its delivery allocated %.1f objects per frame; want 0", n)
	}
	if recv[1].got != i {
		t.Fatalf("recv[1] heard %d of %d frames", recv[1].got, i)
	}
}

// TestStarSendAllocs pins a frame's trip through the star's hub at zero
// allocations: the hub's tap stores it and the hub relays it, its arrival
// and its relay each riding one of the medium's two pipes instead of a
// closure per frame.
func TestStarSendAllocs(t *testing.T) {
	sched := simtime.NewScheduler()
	log := trace.New(sched.Now)
	log.Enable(false)
	const hub = 2
	m := NewStar(DefaultConfig(), sched, simtime.NewRand(1), log, hub)
	recv := make([]*nopStation, 3)
	for i := range recv {
		recv[i] = &nopStation{}
		m.Attach(frame.NodeID(i), recv[i])
	}
	tap := &storingTap{}
	m.AttachTap(hub, tap)
	// Each run sends two frames, the second while the first holds the hub.
	frames := make([]*frame.Frame, 2*256)
	for i := range frames {
		frames[i] = &frame.Frame{Type: frame.Guaranteed, Src: 0, Dst: 1, Body: []byte("x")}
	}
	i := 0
	n := testing.AllocsPerRun(200, func() {
		m.Send(0, frames[i])
		m.Send(0, frames[i+1])
		i += 2
		for sched.Step() {
		}
	})
	if n != 0 {
		t.Errorf("Star.Send, the hub's relay and delivery allocated %.1f objects per two frames; want 0", n)
	}
	if recv[1].got != i || tap.heard != i {
		t.Fatalf("recv[1] heard %d and the tap %d of %d frames; want every frame", recv[1].got, tap.heard, i)
	}
}

// storingTap stores every frame it hears.
type storingTap struct{ heard int }

func (t *storingTap) Observe(*frame.Frame) bool { t.heard++; return true }

// TestEtherSendAllocs pins the Acknowledging Ethernet's per-frame path —
// send, contention, completion, the recorder-ack gate and delivery — at zero
// allocations after warm-up. Each run sends two guaranteed frames, the
// second once the first holds the channel, so it is deferred and drained:
// the transmission records come back from the medium's free list, the
// completion and drain handlers were bound when the medium was built, and
// the deferred queue keeps its capacity.
func TestEtherSendAllocs(t *testing.T) {
	sched := simtime.NewScheduler()
	log := trace.New(sched.Now)
	log.Enable(false)
	cfg := DefaultConfig()
	m := NewAckEther(cfg, sched, simtime.NewRand(1), log)
	recv := make([]*nopStation, 3)
	for i := range recv {
		recv[i] = &nopStation{}
		m.Attach(frame.NodeID(i), recv[i])
	}
	tap := &storingTap{}
	m.AttachTap(2, tap)
	frames := make([]*frame.Frame, 2*256)
	for i := range frames {
		frames[i] = &frame.Frame{Type: frame.Guaranteed, Src: frame.NodeID(i % 2), Dst: 2, Body: []byte("x")}
	}
	i := 0
	n := testing.AllocsPerRun(200, func() {
		m.Send(0, frames[i])
		sched.Run(sched.Now() + cfg.SlotTime)
		m.Send(1, frames[i+1])
		i += 2
		for sched.Step() {
		}
	})
	if n != 0 {
		t.Errorf("AckEther send, completion and delivery allocated %.1f objects per two frames; want 0", n)
	}
	if s := m.Stats(); recv[2].got != i || tap.heard != i || s.Collisions != 0 {
		t.Fatalf("recv[2] heard %d and the tap %d of %d frames, %d collisions; want every frame, none",
			recv[2].got, tap.heard, i, s.Collisions)
	}
}

// TestEtherCollisionAllocs pins a collision and its back-off at zero
// allocations once the free list is warm. Each run sends two frames in the
// same slot, so they collide; both back off with their transmission records
// as their timers' handlers, contend again, and are delivered.
func TestEtherCollisionAllocs(t *testing.T) {
	sched := simtime.NewScheduler()
	log := trace.New(sched.Now)
	log.Enable(false)
	m := NewEther(DefaultConfig(), sched, simtime.NewRand(1), log)
	recv := make([]*nopStation, 3)
	for i := range recv {
		recv[i] = &nopStation{}
		m.Attach(frame.NodeID(i), recv[i])
	}
	frames := make([]*frame.Frame, 2*256)
	for i := range frames {
		frames[i] = &frame.Frame{Type: frame.Unguaranteed, Src: frame.NodeID(i % 2), Dst: 2, Body: []byte("x")}
	}
	i := 0
	n := testing.AllocsPerRun(200, func() {
		m.Send(0, frames[i])
		m.Send(1, frames[i+1])
		i += 2
		for sched.Step() {
		}
	})
	if n != 0 {
		t.Errorf("Ether collision, back-off and delivery allocated %.1f objects per two frames; want 0", n)
	}
	if s := m.Stats(); recv[2].got != i || s.Collisions < uint64(i/2) || s.FramesLost != 0 {
		t.Fatalf("recv[2] heard %d of %d frames, %d collisions, %d lost; want every frame after a collision per pair",
			recv[2].got, i, s.Collisions, s.FramesLost)
	}
}

package lan

import (
	"publishing/internal/frame"
	"publishing/internal/simtime"
	"publishing/internal/trace"
)

// Star is the experimental Z8000 configuration of §4.1 (Fig 4.1a): the
// recording node is the hub of a star; every frame is relayed through it.
// "Any messages received incorrectly by the recorder are not passed on", so
// publish-before-use holds by construction. If the hub is down the network
// is unavailable — exactly the recorder-availability limitation §6.3's
// multiple recorders address (on a star, by multiple hubs; not modelled).
type Star struct {
	base
	hub       frame.NodeID
	busyUntil simtime.Time
	// in carries each frame to the hub and out from the hub to its
	// receivers. The hub serializes frames, so both arrival and relay times
	// never decrease, which is what a Pipe needs.
	in, out *simtime.Pipe[hop]
}

// hop is one frame in transit through the hub: the transmission, and when
// the hub finishes relaying it.
type hop struct {
	transmission
	outDone simtime.Time
}

// NewStar returns a star medium with the given hub node. The hub's tap (the
// recorder) should be attached with AttachTap under the same node id.
func NewStar(cfg Config, sched *simtime.Scheduler, rng *simtime.Rand, log *trace.Log, hub frame.NodeID) *Star {
	m := &Star{base: newBase(cfg, sched, rng, log), hub: hub}
	m.in = simtime.NewPipe(sched, m.arrive)
	m.out = simtime.NewPipe(sched, m.depart)
	return m
}

// Send transmits the frame over the point-to-point link to the hub; the hub
// stores it and relays it outward on the destination's link.
func (m *Star) Send(src frame.NodeID, f *frame.Frame) {
	rel := m.releaser(src)
	if m.faults.Down(src) {
		release(rel, f)
		return
	}
	m.stats.FramesSent++
	n := f.WireLen()
	m.stats.BytesOnWire += uint64(n)

	// The inbound and outbound links are modelled as a single serialized
	// resource, matching the low-speed point-to-point links of §4.1. The
	// frame occupies the hub for in + out transmission.
	start := m.sched.Now()
	if m.busyUntil > start {
		start = m.busyUntil
	}
	inDone := start + m.cfg.FrameTime(n)
	outDone := inDone + m.cfg.TxTime(n)
	m.busyUntil = outDone
	m.stats.BusyTime += outDone - start

	m.maybeCorrupt(f)
	m.in.At(inDone, hop{transmission{src, f, rel}, outDone})
}

// arrive is a frame's arrival at the hub: it is relayed when the hub's
// outbound transmission ends, or dropped and handed back to its sender.
func (m *Star) arrive(h hop) {
	if !m.atHub(h.src, h.f) {
		release(h.rel, h.f)
		return
	}
	m.out.At(h.outDone, h)
}

// depart ends a relay: the frame reaches its receivers and goes back to its
// sender.
func (m *Star) depart(h hop) {
	m.relay(h.src, h.f)
	release(h.rel, h.f)
}

// atHub is the frame's arrival at the hub, which stores it and reports
// whether to relay it outward.
func (m *Star) atHub(src frame.NodeID, f *frame.Frame) bool {
	if m.faults.Down(src) {
		m.stats.FramesLost++
		return false
	}
	if m.faults.Down(m.hub) || !m.faults.reachable(src, m.hub) {
		// Hub unreachable: the star is dead for this sender.
		m.stats.FramesLost++
		if m.log.Enabled() {
			m.log.Add(trace.KindDrop, int(src), f.ID.String(), "hub down; frame lost")
		}
		return false
	}
	if m.faults.LossProb > 0 && m.rng.Bool(m.faults.LossProb) {
		m.stats.FramesLost++
		return false
	}
	if f.Corrupt {
		m.stats.FramesLost++
		return false
	}
	stored := m.offerToTaps(src, f)
	if gated(f.Type) && !stored {
		// Received incorrectly by the recorder: not passed on (§4.1).
		m.stats.RecorderBlocks++
		if m.log.Enabled() {
			m.log.Add(trace.KindDrop, int(src), f.ID.String(), "hub failed to record; not relayed")
		}
		return false
	}
	return true
}

// relay sends the stored frame outward from the hub. Delivery is keyed on
// the original sender so that broadcasts do not echo back to it;
// reachability src→dst composes with the src→hub check already done.
func (m *Star) relay(src frame.NodeID, f *frame.Frame) {
	if m.faults.Down(m.hub) {
		m.stats.FramesLost++
		return
	}
	m.deliver(src, f)
}

var _ Medium = (*Star)(nil)

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
}

// NewStar returns a star medium with the given hub node. The hub's tap (the
// recorder) should be attached with AttachTap under the same node id.
func NewStar(cfg Config, sched *simtime.Scheduler, rng *simtime.Rand, log *trace.Log, hub frame.NodeID) *Star {
	return &Star{base: newBase(cfg, sched, rng, log), hub: hub}
}

// Hub returns the hub node id.
func (m *Star) Hub() frame.NodeID { return m.hub }

// Send transmits the frame over the point-to-point link to the hub; the hub
// stores it and relays it outward on the destination's link.
func (m *Star) Send(src frame.NodeID, f *frame.Frame) {
	if m.faults.Down(src) {
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

	g := f.Clone()
	m.maybeCorrupt(g)
	m.sched.At(inDone, func() { m.atHub(src, g, outDone) })
}

func (m *Star) atHub(src frame.NodeID, f *frame.Frame, outDone simtime.Time) {
	if m.faults.Down(src) {
		m.stats.FramesLost++
		return
	}
	if m.faults.Down(m.hub) || !m.faults.reachable(src, m.hub) {
		// Hub unreachable: the star is dead for this sender.
		m.stats.FramesLost++
		if m.log.Enabled() {
			m.log.Add(trace.KindDrop, int(src), f.ID.String(), "hub down; frame lost")
		}
		return
	}
	if m.faults.LossProb > 0 && m.rng.Bool(m.faults.LossProb) {
		m.stats.FramesLost++
		return
	}
	if f.Corrupt {
		m.stats.FramesLost++
		return
	}
	stored := m.offerToTaps(src, f)
	if gated(f.Type) && !stored {
		// Received incorrectly by the recorder: not passed on (§4.1).
		m.stats.RecorderBlocks++
		if m.log.Enabled() {
			m.log.Add(trace.KindDrop, int(src), f.ID.String(), "hub failed to record; not relayed")
		}
		return
	}
	m.sched.At(outDone, func() {
		if m.faults.Down(m.hub) {
			m.stats.FramesLost++
			return
		}
		// Relay outward. Delivery is keyed on the original sender so that
		// broadcasts do not echo back to it; reachability src→dst composes
		// with the src→hub check already done.
		m.deliver(src, f)
	})
}

var _ Medium = (*Star)(nil)

package lan

import (
	"publishing/internal/frame"
	"publishing/internal/simtime"
	"publishing/internal/trace"
)

// Perfect is an idealized broadcast medium: frames are serialized FIFO with
// realistic transmission times but never collide. Publish-before-use is
// enforced directly (a frame the taps failed to store is not delivered, as
// if its checksum were bad), which makes Perfect the reference semantics the
// fancier media must match. Unit and integration tests default to it.
type Perfect struct {
	base
	busyUntil simtime.Time
	// wire carries each transmission to its completion. The channel is FIFO,
	// so completion times never decrease, which is what a Pipe needs.
	wire *simtime.Pipe[transmission]
}

// transmission is one frame on the wire, the node that sent it, and the
// station it goes back to.
type transmission struct {
	src frame.NodeID
	f   *frame.Frame
	rel Releaser
}

// NewPerfect returns a perfect broadcast medium.
func NewPerfect(cfg Config, sched *simtime.Scheduler, rng *simtime.Rand, log *trace.Log) *Perfect {
	m := &Perfect{base: newBase(cfg, sched, rng, log)}
	m.wire = simtime.NewPipe(sched, m.complete)
	return m
}

// Send schedules the frame for delivery after the channel drains.
func (m *Perfect) Send(src frame.NodeID, f *frame.Frame) {
	rel := m.releaser(src)
	if m.faults.Down(src) {
		release(rel, f)
		return
	}
	m.stats.FramesSent++
	n := f.WireLen()
	m.stats.BytesOnWire += uint64(n)
	start := m.sched.Now()
	if m.busyUntil > start {
		start = m.busyUntil
	}
	end := start + m.cfg.FrameTime(n)
	m.busyUntil = end
	m.stats.BusyTime += end - start
	m.maybeCorrupt(f)
	m.wire.At(end, transmission{src, f, rel})
}

// complete ends a transmission: the frame reaches its listeners or is
// dropped, and either way goes back to its sender.
func (m *Perfect) complete(tx transmission) {
	m.carry(tx.src, tx.f)
	release(tx.rel, tx.f)
}

// carry takes a completed frame to the taps and, unless a fault or the
// publish gate drops it, to its receivers.
func (m *Perfect) carry(src frame.NodeID, f *frame.Frame) {
	if m.faults.Down(src) {
		// Sender died mid-flight; treat the frame as never completed.
		m.stats.FramesLost++
		return
	}
	if m.faults.LossProb > 0 && m.rng.Bool(m.faults.LossProb) {
		m.stats.FramesLost++
		if m.log.Enabled() {
			m.log.Add(trace.KindDrop, int(src), f.ID.String(), "wire loss %s", f)
		}
		return
	}
	if f.Corrupt {
		m.stats.FramesLost++
		if m.log.Enabled() {
			m.log.Add(trace.KindDrop, int(src), f.ID.String(), "corrupt frame discarded")
		}
		return
	}
	stored := m.offerToTaps(src, f)
	if gated(f.Type) && !stored {
		// Publish-before-use: no recorder copy, no delivery (§4.4.1).
		m.stats.RecorderBlocks++
		if m.log.Enabled() {
			m.log.Add(trace.KindDrop, int(src), f.ID.String(), "blocked: recorder did not store %s", f)
		}
		return
	}
	m.deliver(src, f)
}

var _ Medium = (*Perfect)(nil)

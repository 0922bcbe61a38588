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
}

// NewPerfect returns a perfect broadcast medium.
func NewPerfect(cfg Config, sched *simtime.Scheduler, rng *simtime.Rand, log *trace.Log) *Perfect {
	return &Perfect{base: newBase(cfg, sched, rng, log)}
}

// Send schedules the frame for delivery after the channel drains.
func (m *Perfect) Send(src frame.NodeID, f *frame.Frame) {
	if m.faults.Down(src) {
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
	g := f.Clone()
	m.maybeCorrupt(g)
	m.sched.At(end, func() { m.complete(src, g) })
}

func (m *Perfect) complete(src frame.NodeID, f *frame.Frame) {
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

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
	eng       *simtime.Engine
}

// NewPerfect returns a perfect broadcast medium.
func NewPerfect(cfg Config, sched *simtime.Scheduler, rng *simtime.Rand, log *trace.Log) *Perfect {
	return &Perfect{base: newBase(cfg, sched, rng, log)}
}

// SetEngine attaches the parallel engine. Sends issued from inside a
// parallel execution window are then captured and applied at the merge
// barrier in serial order, because the FIFO busy-until chain, the wire
// stats, and the completion schedule are shared across every sending node.
func (m *Perfect) SetEngine(e *simtime.Engine) { m.eng = e }

// Lookahead: the earliest any frame can complete is one minimal frame time
// after its send — the channel is FIFO with no preemption — so no node can
// observe another node's action sooner than that.
func (m *Perfect) Lookahead() simtime.Time { return m.cfg.FrameTime(0) }

// Send schedules the frame for delivery after the channel drains.
//
// Frame ownership under concurrency: the frame is cloned before Send
// returns on both paths below, so a captured send never retains a buffer
// the caller may reuse — the clone is taken on the sending LP's worker,
// and only the clone crosses the barrier.
func (m *Perfect) Send(src frame.NodeID, f *frame.Frame) {
	if e := m.eng; e != nil && e.InRound() {
		g := f.Clone()
		e.Defer(int(src), func() { m.send(src, g, true) })
		return
	}
	m.send(src, f, false)
}

// send is the serial-context send path; owned marks a frame the medium
// already exclusively owns (pre-cloned by a capturing Send).
func (m *Perfect) send(src frame.NodeID, f *frame.Frame, owned bool) {
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
	g := f
	if !owned {
		g = f.Clone()
	}
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

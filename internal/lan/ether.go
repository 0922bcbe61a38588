package lan

import (
	"publishing/internal/frame"
	"publishing/internal/simtime"
	"publishing/internal/trace"
)

// Ether simulates CSMA/CD (Metcalfe & Boggs): stations sense the carrier,
// defer while it is busy, and transmissions that start within one slot time
// of each other collide and retry after binary exponential backoff.
//
// On a plain Ether the recorder's copy is NOT guaranteed by the medium: the
// taps hear completed frames, but a receiver may use a frame the recorder
// missed. Systems that publish must therefore enforce publish-before-use at
// the transport layer (the recorder-acknowledgement protocol of §3.3.4 /
// §6.1), which internal/transport implements.
type Ether struct {
	base
	// busyUntil is when the channel goes idle.
	busyUntil simtime.Time
	// cur is the transmission currently on the wire, if any.
	cur *etherTx
	// deferred transmissions waiting for the channel.
	deferred []*etherTx
	// maxAttempts before a frame is dropped (classic Ethernet: 16).
	maxAttempts int

	// extraReserve lets a variant reserve channel time after a frame
	// (AckEther's acknowledge slots). Nil means none.
	extraReserve func(f *frame.Frame) simtime.Time
	// gateOnTaps makes a negative tap verdict suppress delivery of
	// guaranteed frames (AckEther's empty recorder-ack slot).
	gateOnTaps bool
}

type etherTx struct {
	src      frame.NodeID
	f        *frame.Frame
	attempts int
	start    simtime.Time
	finish   simtime.Event
}

// NewEther returns a CSMA/CD medium.
func NewEther(cfg Config, sched *simtime.Scheduler, rng *simtime.Rand, log *trace.Log) *Ether {
	return &Ether{base: newBase(cfg, sched, rng, log), maxAttempts: 16}
}

// Send attempts to transmit f from src, contending for the channel.
func (m *Ether) Send(src frame.NodeID, f *frame.Frame) {
	if m.faults.Down(src) {
		return
	}
	m.stats.FramesSent++
	m.maybeCorrupt(f)
	m.attempt(&etherTx{src: src, f: f})
}

func (m *Ether) attempt(tx *etherTx) {
	now := m.sched.Now()
	if m.faults.Down(tx.src) {
		m.stats.FramesLost++
		return
	}
	if m.cur != nil {
		if now-m.cur.start < m.cfg.SlotTime {
			// Both stations believed the channel idle: collision. The
			// in-flight transmission is jammed; both back off.
			m.collide(tx)
			return
		}
		// Carrier sensed busy: defer until the channel drains.
		m.deferred = append(m.deferred, tx)
		return
	}
	if m.busyUntil > now {
		// Interframe gap (or reserved ack slots) still draining.
		m.deferred = append(m.deferred, tx)
		m.kick()
		return
	}
	// Channel idle: start transmitting.
	tx.start = now
	n := tx.f.WireLen()
	m.stats.BytesOnWire += uint64(n)
	end := now + m.cfg.FrameTime(n)
	if m.extraReserve != nil {
		end += m.extraReserve(tx.f)
	}
	m.busyUntil = end
	m.stats.BusyTime += end - now
	m.cur = tx
	tx.finish = m.sched.At(end, func() { m.finish(tx) })
}

// logDrop traces a frame lost on the wire; the id is formatted only when
// tracing is on.
func (m *Ether) logDrop(tx *etherTx, why string) {
	if m.log.Enabled() {
		id := tx.f.ID.String()
		m.log.AddMsg(trace.KindDrop, int(tx.src), id, id, why)
	}
}

func (m *Ether) collide(tx *etherTx) {
	m.stats.Collisions++
	cur := m.cur
	if m.log.Enabled() {
		id := tx.f.ID.String()
		m.log.AddMsg(trace.KindCollision, int(tx.src), id, id,
			"collision with %s from n%d", cur.f.ID, cur.src)
	}
	// Jam: the in-flight transmission is aborted.
	m.sched.Cancel(cur.finish)
	m.cur = nil
	// The channel clears after the jam (one slot). BusyTime was already
	// charged through the aborted frame's full length; charge only any
	// extension the jam adds.
	now := m.sched.Now()
	jamEnd := now + m.cfg.SlotTime
	if jamEnd > m.busyUntil {
		m.stats.BusyTime += jamEnd - m.busyUntil
		m.busyUntil = jamEnd
	} else {
		// Aborting early frees channel time we had charged.
		m.stats.BusyTime -= m.busyUntil - jamEnd
		m.busyUntil = jamEnd
	}
	m.backoff(cur)
	m.backoff(tx)
	m.kick()
}

func (m *Ether) backoff(tx *etherTx) {
	tx.attempts++
	if tx.attempts >= m.maxAttempts {
		m.stats.FramesLost++
		m.logDrop(tx, "excessive collisions")
		return
	}
	m.stats.Backoffs++
	k := tx.attempts
	if k > 10 {
		k = 10
	}
	slots := m.rng.Intn(1 << k)
	delay := m.cfg.SlotTime * simtime.Time(slots+1)
	m.sched.After(delay, func() { m.attempt(tx) })
}

// kick schedules a retry of deferred transmissions when the channel drains.
func (m *Ether) kick() {
	if len(m.deferred) == 0 {
		return
	}
	at := m.busyUntil
	if at < m.sched.Now() {
		at = m.sched.Now()
	}
	m.sched.At(at, m.drainDeferred)
}

func (m *Ether) drainDeferred() {
	if m.cur != nil || len(m.deferred) == 0 {
		return
	}
	if m.busyUntil > m.sched.Now() {
		m.kick()
		return
	}
	tx := m.deferred[0]
	m.deferred = m.deferred[1:]
	m.attempt(tx)
	if len(m.deferred) > 0 {
		m.kick()
	}
}

func (m *Ether) finish(tx *etherTx) {
	m.cur = nil
	defer m.kick()
	if m.faults.Down(tx.src) {
		m.stats.FramesLost++
		return
	}
	if m.faults.LossProb > 0 && m.rng.Bool(m.faults.LossProb) {
		m.stats.FramesLost++
		m.logDrop(tx, "wire loss")
		return
	}
	if tx.f.Corrupt {
		m.stats.FramesLost++
		return
	}
	stored := m.offerToTaps(tx.src, tx.f)
	if m.gateOnTaps && gated(tx.f.Type) && !stored {
		// Empty recorder-ack slot: every receiver discards the frame
		// "exactly as if it had received a bad packet" (§6.1.1).
		m.stats.RecorderBlocks++
		m.logDrop(tx, "no recorder ack in slot; receivers discard")
		return
	}
	m.deliver(tx.src, tx.f)
}

var _ Medium = (*Ether)(nil)

// NewAckEther returns the Acknowledging Ethernet (§6.1.1, after Tokoro &
// Tamaru): after every guaranteed frame the channel reserves acknowledge
// slots — one per recorder plus one for the receiver — and a receiver that
// sees no recorder acknowledgement in its slot discards the frame. The
// medium thus guarantees publish-before-use with no transport round-trips;
// under load it also wastes less bandwidth on ack collisions (Fig 6.2).
func NewAckEther(cfg Config, sched *simtime.Scheduler, rng *simtime.Rand, log *trace.Log) *Ether {
	m := NewEther(cfg, sched, rng, log)
	m.gateOnTaps = true
	m.extraReserve = func(f *frame.Frame) simtime.Time {
		if f.Type != frame.Guaranteed && f.Type != frame.Bundle {
			return 0
		}
		nTaps := len(m.taps)
		if nTaps == 0 {
			nTaps = 1 // slot is reserved by the protocol regardless
		}
		return cfg.AckSlot * simtime.Time(nTaps+1)
	}
	return m
}

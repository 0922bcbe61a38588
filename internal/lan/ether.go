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
	// deferred transmissions waiting for the channel, oldest first.
	deferred []*etherTx
	// free holds the records of finished and dropped transmissions for
	// reuse: nothing refers to a record once its frame has left the wire.
	free []*etherTx
	// maxAttempts before a frame is dropped (classic Ethernet: 16).
	maxAttempts int
	// finishFn and drainFn are bound once, at construction. Every frame
	// arms a completion and most arm a drain, so a closure or method value
	// built per event was a heap object per event.
	finishFn, drainFn func()

	// extraReserve lets a variant reserve channel time after a frame
	// (AckEther's acknowledge slots). Nil means none.
	extraReserve func(f *frame.Frame) simtime.Time
	// gateOnTaps makes a negative tap verdict suppress delivery of
	// guaranteed frames (AckEther's empty recorder-ack slot).
	gateOnTaps bool
}

// etherTx is one frame's transmission record. It is the handler of its own
// collision back-off timer, so backing off allocates nothing; m survives
// recycling, so a recycled record is ready to arm.
type etherTx struct {
	m        *Ether
	src      frame.NodeID
	f        *frame.Frame
	rel      Releaser // the sender, which gets f back
	attempts int
	start    simtime.Time
	finish   simtime.Event
}

// NewEther returns a CSMA/CD medium.
func NewEther(cfg Config, sched *simtime.Scheduler, rng *simtime.Rand, log *trace.Log) *Ether {
	m := &Ether{base: newBase(cfg, sched, rng, log), maxAttempts: 16}
	// The completion that comes due is always the current transmission's:
	// a collision cancels it before anything else can take the wire.
	m.finishFn = func() { m.finish(m.cur) }
	m.drainFn = m.drainDeferred
	return m
}

// Send attempts to transmit f from src, contending for the channel.
func (m *Ether) Send(src frame.NodeID, f *frame.Frame) {
	rel := m.releaser(src)
	if m.faults.Down(src) {
		release(rel, f)
		return
	}
	m.stats.FramesSent++
	m.maybeCorrupt(f)
	var tx *etherTx
	if k := len(m.free); k > 0 {
		tx = m.free[k-1]
		m.free[k-1] = nil
		m.free = m.free[:k-1]
	} else {
		tx = &etherTx{m: m}
	}
	tx.src, tx.f, tx.rel = src, f, rel
	m.attempt(tx)
}

// recycle returns a transmission record whose frame left the wire, delivered
// or dropped, to the free list.
func (m *Ether) recycle(tx *etherTx) {
	*tx = etherTx{m: m}
	m.free = append(m.free, tx)
}

// drop ends a transmission that never completed: the frame goes back to
// its sender and the record to the free list.
func (m *Ether) drop(tx *etherTx) {
	release(tx.rel, tx.f)
	m.recycle(tx)
}

func (m *Ether) attempt(tx *etherTx) {
	now := m.sched.Now()
	if m.faults.Down(tx.src) {
		m.stats.FramesLost++
		m.drop(tx)
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
	tx.finish = m.sched.At(end, m.finishFn)
}

// logDrop traces a frame lost on the wire; the id is formatted only when
// tracing is on.
func (m *Ether) logDrop(src frame.NodeID, f *frame.Frame, why string) {
	if m.log.Enabled() {
		id := f.ID.String()
		m.log.AddMsg(trace.KindDrop, int(src), id, id, why)
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
		m.logDrop(tx.src, tx.f, "excessive collisions")
		m.drop(tx)
		return
	}
	m.stats.Backoffs++
	k := tx.attempts
	if k > 10 {
		k = 10
	}
	slots := m.rng.Intn(1 << k)
	delay := m.cfg.SlotTime * simtime.Time(slots+1)
	m.sched.AfterHandler(delay, tx)
}

// Fire is the back-off timer: the transmission contends for the channel
// again.
func (tx *etherTx) Fire() { tx.m.attempt(tx) }

// kick schedules a retry of deferred transmissions when the channel drains.
func (m *Ether) kick() {
	if len(m.deferred) == 0 {
		return
	}
	at := m.busyUntil
	if at < m.sched.Now() {
		at = m.sched.Now()
	}
	m.sched.At(at, m.drainFn)
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
	// Pop by shifting down rather than reslicing: deferred[1:] bleeds
	// capacity off the front, so the next append reallocates.
	n := copy(m.deferred, m.deferred[1:])
	m.deferred[n] = nil
	m.deferred = m.deferred[:n]
	m.attempt(tx)
	if len(m.deferred) > 0 {
		m.kick()
	}
}

// finish ends the transmission on the wire: the frame reaches its listeners
// or is dropped, goes back to its sender, and deferred senders contend.
func (m *Ether) finish(tx *etherTx) {
	m.cur = nil
	src, f, rel := tx.src, tx.f, tx.rel
	m.recycle(tx)
	m.carry(src, f)
	release(rel, f)
	m.kick()
}

// carry takes a completed frame to the taps and, unless a fault or an empty
// recorder-ack slot drops it, to its receivers.
func (m *Ether) carry(src frame.NodeID, f *frame.Frame) {
	if m.faults.Down(src) {
		m.stats.FramesLost++
		return
	}
	if m.faults.LossProb > 0 && m.rng.Bool(m.faults.LossProb) {
		m.stats.FramesLost++
		m.logDrop(src, f, "wire loss")
		return
	}
	if f.Corrupt {
		m.stats.FramesLost++
		return
	}
	stored := m.offerToTaps(src, f)
	if m.gateOnTaps && gated(f.Type) && !stored {
		// Empty recorder-ack slot: every receiver discards the frame
		// "exactly as if it had received a bad packet" (§6.1.1).
		m.stats.RecorderBlocks++
		m.logDrop(src, f, "no recorder ack in slot; receivers discard")
		return
	}
	m.deliver(src, f)
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

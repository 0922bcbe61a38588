package lan

import (
	"publishing/internal/frame"
	"publishing/internal/simtime"
	"publishing/internal/trace"
)

// hopDelay is the per-station latency of the ring.
const hopDelay = 4 * simtime.Microsecond

// Ring is a token ring (§6.1.2, after Farmer & Newhall / Pierce) with the
// paper's recorder extension: each message slot carries an acknowledge field
// that is empty on insertion. "Messages that have an empty acknowledge field
// are ignored by all nodes except the recorder. When the message passes the
// recorder, the recorder fills the acknowledge field and reads the message."
// If the recorder received the message incorrectly it complements the
// trailing checksum, so the destination discards it too.
//
// Stations and taps occupy ring positions in attachment order. A destination
// upstream of the recorder (relative to the sender) ignores the frame on its
// first pass — the ack field is still empty — and reads it on the second
// pass; the sender removes the frame after the pass on which it became
// readable and then releases the token. With multiple recorders the slot
// carries one acknowledge field per recorder (§6.3) and the frame is
// readable only once every reachable recorder has filled its field.
type Ring struct {
	base
	order []frame.NodeID
	pos   map[frame.NodeID]int
	busy  bool
	queue []*ringTx
}

// ringTx is one frame's slot: the frame, its sender, the recorder
// acknowledge fields it accumulates, and the listener events still to come.
type ringTx struct {
	src frame.NodeID
	f   *frame.Frame
	rel Releaser // the sender, which gets f back
	// anyTap and allStored accumulate the acknowledge fields.
	anyTap    bool
	allStored bool
	// listeners counts the tap and delivery events scheduled and not yet
	// fired; the last one hands the frame back.
	listeners int
}

// heard counts one listener event done, and hands the frame back after the
// last one.
func (tx *ringTx) heard() {
	tx.listeners--
	if tx.listeners == 0 {
		release(tx.rel, tx.f)
	}
}

// NewRing returns a token ring medium.
func NewRing(cfg Config, sched *simtime.Scheduler, rng *simtime.Rand, log *trace.Log) *Ring {
	return &Ring{base: newBase(cfg, sched, rng, log), pos: make(map[frame.NodeID]int)}
}

// Attach places the station at the next ring position.
func (m *Ring) Attach(id frame.NodeID, s Station) {
	m.base.Attach(id, s)
	m.place(id)
}

// AttachTap places the tap's node at the next ring position.
func (m *Ring) AttachTap(id frame.NodeID, t Tap) {
	m.base.AttachTap(id, t)
	m.place(id)
}

func (m *Ring) place(id frame.NodeID) {
	if _, ok := m.pos[id]; ok {
		return
	}
	m.pos[id] = len(m.order)
	m.order = append(m.order, id)
}

// dist returns the number of hops from a to b travelling ring-forward.
// dist(a, a) is a full circle (the frame returns to its sender).
func (m *Ring) dist(a, b frame.NodeID) int {
	n := len(m.order)
	d := (m.pos[b] - m.pos[a] + n) % n
	if d == 0 {
		d = n
	}
	return d
}

// Send waits for the token, inserts the frame, and lets it circulate.
func (m *Ring) Send(src frame.NodeID, f *frame.Frame) {
	rel := m.releaser(src)
	if m.faults.Down(src) {
		release(rel, f)
		return
	}
	if _, ok := m.pos[src]; !ok {
		release(rel, f)
		return
	}
	m.stats.FramesSent++
	m.maybeCorrupt(f)
	m.queue = append(m.queue, &ringTx{src: src, f: f, rel: rel, allStored: true})
	if !m.busy {
		m.startNext()
	}
}

func (m *Ring) startNext() {
	for len(m.queue) > 0 {
		tx := m.queue[0]
		m.queue = m.queue[1:]
		if m.faults.Down(tx.src) {
			m.stats.FramesLost++
			release(tx.rel, tx.f)
			continue
		}
		m.busy = true
		m.circulate(tx)
		return
	}
	m.busy = false
}

// circulate models one frame's trip(s) around the ring with event times
// computed analytically (per-hop events would be pure overhead). The frame
// goes back to its sender after the last tap or delivery event, which can
// come after the token is released when AckSlot exceeds the hops left; a
// frame no listener hears goes back at once.
func (m *Ring) circulate(tx *ringTx) {
	n := len(m.order)
	now := m.sched.Now()
	txTime := m.cfg.TxTime(tx.f.WireLen())
	onRing := now + txTime
	m.stats.BytesOnWire += uint64(tx.f.WireLen())

	lost := tx.f.Corrupt || (m.faults.LossProb > 0 && m.rng.Bool(m.faults.LossProb))

	// Schedule each reachable tap's observation at the instant the frame
	// passes it. Verdicts accumulate into tx; by ring construction every
	// gated delivery happens strictly after the last tap pass, so the
	// delivery events below read the final verdict.
	maxTapDist := 0
	if !lost {
		for _, e := range m.taps {
			e := e
			if !m.faults.reachable(tx.src, e.id) {
				// Down recorders are excused; survivors fill their ack
				// fields for them (§6.3).
				continue
			}
			tx.anyTap = true
			d := m.dist(tx.src, e.id)
			if d > maxTapDist {
				maxTapDist = d
			}
			passAt := onRing + simtime.Time(d)*hopDelay + m.cfg.AckSlot
			miss := m.faults.TapMissProb > 0 && m.rng.Bool(m.faults.TapMissProb)
			tx.listeners++
			m.sched.At(passAt, func() {
				if miss || !e.tap.Observe(tx.f) {
					m.stats.TapMisses++
					tx.allStored = false
				}
				tx.heard()
			})
		}
	}
	gatedTx := len(m.taps) > 0 && gated(tx.f.Type)
	usable := !lost

	deliverAt := func(dst frame.NodeID) (simtime.Time, bool) {
		if !m.faults.reachable(tx.src, dst) {
			return 0, false
		}
		d := m.dist(tx.src, dst)
		pass := 0
		if gatedTx && d < maxTapDist {
			// The destination precedes a recorder: ack field still empty on
			// the first pass; readable on the second.
			pass = 1
		}
		return onRing + simtime.Time(pass*n+d)*hopDelay + m.cfg.AckSlot, true
	}

	// receive wraps delivery with the gated verdict check: a destination
	// only reads a slot whose acknowledge field(s) are filled and whose
	// checksum survived (§6.1.2).
	receive := func(s Station) {
		if gatedTx && !(tx.anyTap && tx.allStored) {
			m.stats.FramesLost++
			m.stats.RecorderBlocks++
			if m.log.Enabled() {
				m.log.Add(trace.KindDrop, int(tx.src), tx.f.ID.String(),
					"recorder invalidated checksum; frame ignored")
			}
		} else {
			m.stats.FramesDelivered++
			s.Receive(tx.f)
		}
		tx.heard()
	}

	lastRead := 0 // passes needed before the sender removes the frame
	if usable {
		delivered := false
		if tx.f.Dst == frame.Broadcast {
			// Walk the ring positions, not the station map: per-receiver rng
			// draws must happen in a deterministic order.
			for _, id := range m.order {
				s, isStation := m.stations[id]
				if !isStation || id == tx.src {
					continue
				}
				at, ok := deliverAt(id)
				if !ok {
					continue
				}
				if m.faults.ReceiverMissProb > 0 && m.rng.Bool(m.faults.ReceiverMissProb) {
					continue
				}
				if gatedTx && m.dist(tx.src, id) < maxTapDist {
					lastRead = 1
				}
				tx.listeners++
				m.sched.At(at, func() { receive(s) })
				delivered = true
			}
		} else if s, ok := m.stations[tx.f.Dst]; ok {
			at, reach := deliverAt(tx.f.Dst)
			miss := m.faults.ReceiverMissProb > 0 && m.rng.Bool(m.faults.ReceiverMissProb)
			if reach && !miss {
				if gatedTx && m.dist(tx.src, tx.f.Dst) < maxTapDist {
					lastRead = 1
				}
				tx.listeners++
				m.sched.At(at, func() { receive(s) })
				delivered = true
			}
		}
		if !delivered {
			m.stats.FramesLost++
		}
	} else {
		m.stats.FramesLost++
	}

	// The sender removes the frame when it returns after the decisive pass,
	// reinserts the token, and the next waiting station may transmit.
	tokenAt := onRing + simtime.Time((lastRead+1)*n)*hopDelay
	m.stats.BusyTime += tokenAt - now
	m.sched.At(tokenAt, m.startNext)
	if tx.listeners == 0 {
		release(tx.rel, tx.f)
	}
}

var _ Medium = (*Ring)(nil)

// Package transport implements the paper's transport layer (§4.3.3). If
// neither sender nor receiver crashes and network failures are temporary, it
// guarantees that messages are not duplicated, that all guaranteed messages
// arrive at the receiver's processor, and that messages from one process to
// another arrive in the order sent.
//
// Mechanisms:
//
//   - Guaranteed messages use an end-to-end acknowledgement: the originating
//     processor resends a message until the destination processor
//     acknowledges it, on a timeout measured from ack round trips.
//   - Each message carries a unique id (sender process id + send sequence)
//     and a per-destination stream sequence; the receiver re-acks and
//     discards a copy below the sequence it expects next.
//   - The paper's frame and Ack frame per message "is inefficient under load"
//     (§4.3.3): sends to one destination share a Bundle frame (a transmission
//     unit) and acks ride reverse traffic or leave as one cumulative Ack
//     frame (DESIGN.md "Steady-state wire efficiency").
//   - Ordering is preserved by allowing only one unacknowledged transmission
//     unit in transit from each processor.
//   - Unguaranteed messages are fire-and-forget.
//
// When Config.RecorderAckHold is positive (plain Ethernet without hardware
// ack slots), the endpoint enforces publish-before-use at the transport
// level (§6.1): a received guaranteed frame is held until a RecorderAck
// frame for its id is heard; otherwise it is discarded and the sender's
// retransmission tries again.
package transport

import (
	"slices"

	"publishing/internal/frame"
	"publishing/internal/lan"
	"publishing/internal/metrics"
	"publishing/internal/simtime"
	"publishing/internal/trace"
)

// Config tunes an endpoint.
type Config struct {
	// RetransmitInterval is how long to wait for an end-to-end ack before
	// resending a guaranteed frame to a destination no round trip has been
	// measured for yet; after that the timeout follows the measurement.
	RetransmitInterval simtime.Time
	// MaxRetries bounds resends of one frame; 0 means retry forever. The
	// default is generous: a message outlives the recovery of its receiver.
	// A flight is also abandoned MaxRetries × RetransmitInterval after its
	// first transmission, the bound crash detection assumes: backoff
	// stretches the attempts, so the count alone would outlive it.
	MaxRetries int
	// Peers, when > 0, hints how many distinct node ids this endpoint will
	// talk to, pre-sizing its send and receive tables so cluster bringup
	// does not pay growth reallocations on every endpoint.
	Peers int
	// DisableDupSuppression turns the receive stream's and the kernel's
	// duplicate guards off, so a duplicated or retransmitted frame is
	// delivered upward again. Negative
	// testing only: the chaos harness uses it to prove its exactly-once
	// invariant actually fires when the guard is broken.
	DisableDupSuppression bool
	// RecorderAckHold, when positive, holds each received guaranteed frame
	// until the recorder acknowledges it (publish-before-use on media that
	// cannot gate), and discards it if no recorder ack arrives within the
	// hold, letting the sender's retransmission drive another attempt. Zero
	// means no hold. publishing.New derives it from the medium and the
	// publish cost, and a recorder built with a positive hold emits the
	// acks.
	RecorderAckHold simtime.Time
	// AckDelay delays end-to-end acknowledgements so they ride piggybacked
	// on reverse-direction gated frames, falling back to one standalone
	// cumulative Ack frame per destination when no reverse traffic appears
	// within the delay.
	AckDelay simtime.Time
	// Metrics, when non-nil, receives the endpoint's counters, the ack
	// round-trip histogram, and the current rto_ns gauge under subsystem
	// "transport".
	Metrics *metrics.Registry
}

// DefaultConfig returns the shipped simulation defaults. New fills any
// non-positive duration of the Config it is given from here.
func DefaultConfig() Config {
	return Config{
		RetransmitInterval: 50 * simtime.Millisecond,
		MaxRetries:         200,
		AckDelay:           2 * simtime.Millisecond,
	}
}

const (
	// flushDelay holds admitted guaranteed (and unicast unguaranteed) sends
	// briefly so several small messages to the same destination coalesce into
	// one Bundle frame, amortizing the fixed per-frame cost (on the paper's
	// network the 1.6 ms interpacket delay dwarfs a small payload).
	flushDelay = 500 * simtime.Microsecond
	// minRTO and maxRTO clamp the measured timeout and its backoff.
	minRTO = 2 * simtime.Millisecond
	maxRTO = 400 * simtime.Millisecond
)

// Stats counts endpoint activity.
type Stats struct {
	GuaranteedSent   uint64
	UnguaranteedSent uint64
	Retransmits      uint64
	AcksSent         uint64
	AcksReceived     uint64
	Delivered        uint64
	DupsSuppressed   uint64
	RecorderHeld     uint64
	RecorderExpired  uint64
	GaveUp           uint64
	// FramesCoalesced counts messages that shared a Bundle frame with at
	// least one other record (each record counts once).
	FramesCoalesced uint64
	// AcksPiggybacked counts acknowledgement records carried on
	// reverse-direction data frames instead of dedicated Ack frames.
	AcksPiggybacked uint64
	// AcksDelayedFlush counts standalone cumulative Ack frames sent because
	// the delayed-ack timer expired with no reverse traffic to ride.
	AcksDelayedFlush uint64
}

// Endpoint is one processor's transport. It implements lan.Station.
type Endpoint struct {
	node  frame.NodeID
	med   lan.Medium
	sched *simtime.Scheduler
	log   *trace.Log
	cfg   Config

	// Deliver is the upcall into the node kernel for each message accepted
	// end-to-end (deduplicated, recorder-acked if required, in order). The
	// frame is valid only during the call: it is a wire frame its sender
	// reuses, or the endpoint's scratch frame for a bundle member. So the
	// kernel copies what it keeps, the header by value; Body and PassedLink
	// it may keep as they are, since nobody writes them again. The
	// kernel returns false to refuse the message — e.g. its destination
	// process is crashed or still recovering (§3.3.3) — in which case no
	// acknowledgement is sent and the sender's retransmission will offer the
	// message again later. Refused frames do not advance the stream.
	Deliver func(f *frame.Frame) bool

	// HoldUndelivered, if set, is consulted when a sender has abandoned
	// (retry exhaustion) a refused in-order frame this endpoint still holds
	// buffered. True means the refusal is transient — the destination
	// process is recovering — so the stream stays parked on the frame until
	// Poke delivers it; delivering later frames first would corrupt the
	// arrival order the recorder infers from acks (§4.4.1). False (or an
	// unset hook) discards the frame and skips, bounding the cost of a
	// truly dead destination just as the sender's give-up did.
	HoldUndelivered func(f *frame.Frame) bool

	// OnAck, if set, is called for every end-to-end ack this endpoint
	// receives for its own guaranteed frames (used by measurement hooks).
	OnAck func(id frame.MsgID)

	// epoch invalidates scheduled timers across Reset (processor crash).
	epoch uint64

	// sendq holds the headers of guaranteed frames not yet admitted to the
	// wire, FIFO.
	sendq frameRing
	// open is the transmission unit with a guaranteed member not yet
	// finished, or nil: one unacknowledged unit in transit from this
	// processor (§4.3.3). Its live flights, in admission order, are the
	// in-flight set.
	open *txUnit

	// tx holds each destination's send state by value, and rx each sender's
	// receive stream; acks holds the acknowledgements owed to a sender, one
	// entry per sender while any are owed (DESIGN.md "Dense
	// per-destination tables").
	tx   destTable[txPeer]
	rx   rxTable
	acks ackPool

	// held are received guaranteed frames awaiting a recorder ack.
	held map[frame.MsgID]*heldFrame

	// idScratch is a decode buffer reused across receives; rxFrame is the
	// frame a bundle member expands into for its upcall.
	idScratch []frame.MsgID
	rxFrame   *frame.Frame

	// sent holds every frame this endpoint has handed the medium, and not
	// yet had back (Release), with where it came from, in the slot the
	// frame's Slot field names. It survives Reset: the medium still holds a
	// crashed node's frames, and hands them back. Free slots form a chain
	// from slotFree, each naming the next, as slot number + 1 (0 ends it).
	sent     []sentFrame
	slotFree uint32
	// The free lists. Each endpoint keeps its own, so same-seed runs reuse
	// memory identically and parallel clusters share nothing. recsFree
	// holds the arrays piggybacked ack blocks are copied into (attachAcks),
	// and batchFree the record arrays of replay batches (BatchRecs).
	unitFree  []*txUnit
	ackFree   []*ackFrame
	frameFree []*frame.Frame
	recsFree  [][]frame.AckRec
	batchFree [][]frame.BundleRec

	stats Stats
	// ackRTT observes send-to-ack round trips in virtual nanoseconds.
	ackRTT *metrics.Histogram
	// rtoGauge mirrors the most recently updated destination's timeout.
	rtoGauge *metrics.Gauge
}

// txUnit is one transmission unit: the set of messages that will share (or
// shared) one wire frame. It stops being the endpoint's open unit when every
// guaranteed member has been acknowledged or withdrawn.
//
// A unit is the handler of its own flush timer, and its flights of their
// retransmission timers, so arming either allocates nothing. The unit holds
// its first flight, with that flight's frame, the backing array of a
// one-member recs, and its Bundle frame's records. It goes back to the
// endpoint's free list once nothing refers to it (recycleUnit) and keeps its
// flights and arrays, so a warm endpoint sends a message, or a bundle,
// without allocating.
type txUnit struct {
	e      *Endpoint
	epoch  uint64 // the endpoint's epoch when the unit opened
	dst    frame.NodeID
	recs   []*flight      // guaranteed members, admission order
	riders []*frame.Frame // unguaranteed records riding along
	bytes  int            // encoded bundle-body bytes committed so far
	live   int            // guaranteed members not yet finished/withdrawn
	// wire counts the unit's frames the medium holds: its bundle, a flight
	// that goes out alone as its own first transmission, and a replay
	// batch's retransmission copies (transmit).
	wire    int
	flushed bool
	closed  bool
	timer   simtime.Event
	first   flight
	recs1   [1]*flight
	// spare holds the flights of the members after the first, kept across
	// reuse.
	spare []*flight
	// bundle is the unit's Bundle frame once flushed as one, a plain frame
	// until the unit is recycled, and bundleRecs its records' array
	// (sendBundle).
	bundle     *frame.Frame
	bundleRecs []frame.BundleRec
}

// Fire is the flush timer: flushDelay after the unit opened, it goes on the
// wire with whatever joined it.
func (u *txUnit) Fire() {
	if u.e.epoch != u.epoch {
		return
	}
	u.e.flushUnit(u)
}

// txPeer is one destination's send state, held by value in the tx table, so
// sending to a new destination allocates nothing. The RFC 6298 estimator
// reads as unmeasured while rto is 0: the timeout is RetransmitInterval
// until the first round trip or backoff sets it.
type txPeer struct {
	// form is the coalescing unit being filled.
	form *txUnit
	// xseq numbers the next outgoing guaranteed frame.
	xseq              uint64
	srtt, rttvar, rto simtime.Time
	// valid is set once srtt and rttvar hold a round-trip sample.
	valid bool
}

// ackPending is the delayed-acknowledgement queue toward one peer, and the
// handler of its own delay timer. It is an entry of the endpoint's ackPool,
// held only while acks are owed: ack takes it with the first record queued
// toward the peer and arms its timer, and flushAcks, attachAcks and Reset
// give it back once its queue is empty and no timer is armed, so a held
// entry always has its timer armed. one backs the record array until more
// records are pending than it holds. A flush or a piggyback copies records
// out, so the array stays the entry's, and a returned entry keeps it.
type ackPending struct {
	e     *Endpoint
	epoch uint64 // the endpoint's epoch when the timer was armed
	recs  []frame.AckRec
	timer simtime.Event
	peer  frame.NodeID
	// next chains the free entries: the handle of the next one, 0 ending it.
	next uint32
	one  [1]frame.AckRec
}

// Fire is the delayed-ack timer: no reverse traffic took the pending
// records, so they leave as standalone cumulative Ack frames.
func (p *ackPending) Fire() {
	if p.e.epoch != p.epoch {
		return
	}
	p.e.flushAcks(p.peer)
}

// ackPool holds an endpoint's ackPending entries, each named by a handle
// from 1: the first ackChunk are held inline, and the rest in chunks of
// ackChunk, so an entry never moves and can be its timer's handler. Free
// entries chain from free. n is how many entries the pool has handed out
// at once at most, its high-water mark.
type ackPool struct {
	first [ackChunk]ackPending
	more  []*[ackChunk]ackPending
	free  uint32
	n     uint32
}

// ackChunk is how many entries the pool holds inline, and adds at a time.
const ackChunk = 8

// at returns entry h.
func (p *ackPool) at(h uint32) *ackPending {
	i := h - 1
	if i < ackChunk {
		return &p.first[i]
	}
	i -= ackChunk
	return &p.more[i/ackChunk][i%ackChunk]
}

// take hands out a free entry, or a new one, and its handle.
func (p *ackPool) take() (uint32, *ackPending) {
	if h := p.free; h != 0 {
		a := p.at(h)
		p.free, a.next = a.next, 0
		return h, a
	}
	p.n++
	if p.n > ackChunk*uint32(1+len(p.more)) {
		p.more = append(p.more, new([ackChunk]ackPending))
	}
	a := p.at(p.n)
	a.recs = a.one[:0]
	return p.n, a
}

// releaseAcks gives the entry of the acks owed to st's sender back to the
// pool. Its queue is empty and its timer fired or cancelled.
func (e *Endpoint) releaseAcks(st *rxStream) {
	a := e.acks.at(st.ack)
	a.recs = a.recs[:0]
	a.next, e.acks.free = e.acks.free, st.ack
	st.ack = 0
}

// maxPiggybackRecs bounds acknowledgement records attached to one data
// frame; bundles reserve this much body budget so the block always fits.
const maxPiggybackRecs = 8

// ackReserve is the body budget a bundle leaves for the piggyback block.
const ackReserve = maxPiggybackRecs*frame.AckRecLen + 16

// rtoGranularity is the RFC 6298 clock granularity G in the rto formula
// srtt + max(G, 4*rttvar).
const rtoGranularity = simtime.Millisecond

// rxStream is one sender's receive state, a 24-byte row of the rx table:
// its guaranteed-frame stream, reassembled in order, and the handle of the
// acknowledgements owed to it. The zero row is a sender not heard yet.
type rxStream struct {
	epoch  uint16
	synced bool
	// ack is the handle of the ackPending holding the acks owed to the
	// sender while any are, and 0 otherwise. It packs into the padding
	// before expected.
	ack      uint32
	expected uint64
	// buf holds out-of-order and refused frames, each a header copy of the
	// stream's own: a wire frame is valid only during Receive.
	buf map[uint64]*frame.Frame
}

// keep buffers a copy of f's header at seq, reusing the copy already there.
// The copy drops the ack records: they were applied on arrival, and their
// array is the sender's to reuse. A replay batch's records stay: the sender
// reuses their array only after this copy is delivered and acknowledged.
func (st *rxStream) keep(seq uint64, f *frame.Frame) {
	if st.buf == nil {
		st.buf = make(map[uint64]*frame.Frame)
	}
	g := st.buf[seq]
	if g == nil {
		g = new(frame.Frame)
		st.buf[seq] = g
	}
	*g = *f
	g.AckRecs = nil
}

// XSeq field layout (see frame.Frame.XSeq).
const xseqSeqMask = uint64(1)<<48 - 1

func xseqEpoch(x uint64) uint16 { return uint16(x >> 48) }
func xseqSeq(x uint64) uint64   { return x & xseqSeqMask }

// flight is one guaranteed message awaiting its end-to-end ack. It holds the
// message's frame by value: the endpoint's own copy of the sender's header,
// which the first transmission puts on the wire as is (transmit).
type flight struct {
	f        frame.Frame
	attempts int
	// done is set once the flight is acked, given up or withdrawn, and it
	// leaves the in-flight set; acked once its end-to-end ack arrived.
	done, acked bool
	// sentAt is virtual time of the first transmission, the start of the
	// end-to-end ack round trip.
	sentAt simtime.Time
	timer  simtime.Event
	// unit is the transmission unit this flight belongs to.
	unit *txUnit
}

// Fire is the retransmission timer. A flight is only ever armed in its
// unit's epoch.
func (fl *flight) Fire() {
	e := fl.unit.e
	if e.epoch != fl.unit.epoch {
		return
	}
	e.retransmit(fl)
}

// heldFrame is a received guaranteed frame awaiting its recorder ack, and the
// handler of its own expiry timer. It holds a copy of the frame's header, less
// its ack records: the wire frame is valid only during Receive. A replay
// batch's records stay, as in rxStream.keep.
type heldFrame struct {
	e     *Endpoint
	epoch uint64 // the endpoint's epoch when the frame was held
	f     frame.Frame
	timer simtime.Event
}

// Fire is the expiry timer: no recorder ack arrived, so the frame is
// discarded and the sender's retransmission tries again.
func (h *heldFrame) Fire() {
	e := h.e
	if e.epoch != h.epoch {
		return
	}
	if _, ok := e.held[h.f.ID]; ok {
		delete(e.held, h.f.ID)
		e.stats.RecorderExpired++
		if e.log.Enabled() {
			id := h.f.ID.String()
			e.log.AddMsg(trace.KindDrop, int(e.node), id, id,
				"discarded: no recorder ack (will be resent)")
		}
	}
}

// New creates an endpoint for node and attaches it to the medium.
func New(node frame.NodeID, med lan.Medium, sched *simtime.Scheduler, log *trace.Log, cfg Config) *Endpoint {
	def := DefaultConfig()
	cfg.RetransmitInterval = positiveOr(cfg.RetransmitInterval, def.RetransmitInterval)
	cfg.AckDelay = positiveOr(cfg.AckDelay, def.AckDelay)
	e := &Endpoint{
		node:  node,
		med:   med,
		sched: sched,
		log:   log,
		cfg:   cfg,
		held:  make(map[frame.MsgID]*heldFrame),
		sent:  make([]sentFrame, 0, sentPresize),
	}
	if n := cfg.Peers; n > 0 {
		e.tx.presize(n)
		e.rx.first = make([]rxStream, n)
	}
	if cfg.Metrics != nil {
		e.ackRTT = cfg.Metrics.Histogram(int(node), "transport", "ack_rtt_ns")
		e.rtoGauge = cfg.Metrics.Gauge(int(node), "transport", "rto_ns")
		e.rtoGauge.Set(int64(cfg.RetransmitInterval))
		cfg.Metrics.AddStats(int(node), "transport", &e.stats)
	}
	med.Attach(node, e)
	return e
}

func positiveOr(v, def simtime.Time) simtime.Time {
	if v > 0 {
		return v
	}
	return def
}

// Node returns the endpoint's node id.
func (e *Endpoint) Node() frame.NodeID { return e.node }

// Stats returns the endpoint counters.
func (e *Endpoint) Stats() *Stats { return &e.stats }

// Config returns the endpoint configuration.
func (e *Endpoint) Config() Config { return e.cfg }

// Reset models a processor crash and reboot: all transport state — queued
// and unacknowledged frames, receive streams, held frames — is volatile
// and lost (§3.3.2 rounds a kernel fault up to a whole-processor crash).
// Frames on the medium still come back (Release) and the free lists stay:
// they are memory, not state.
func (e *Endpoint) Reset() {
	e.epoch++
	if u := e.open; u != nil {
		for _, fl := range u.recs {
			if !fl.done {
				e.sched.Cancel(fl.timer)
			}
		}
	}
	for _, h := range e.held { //det:ok order-free: cancels only
		e.sched.Cancel(h.timer)
	}
	for i := range e.tx.v {
		if u := e.tx.v[i].form; u != nil {
			e.sched.Cancel(u.timer)
		}
	}
	for id := range e.rx.len() {
		if st := e.rx.get(frame.NodeID(id)); st.ack != 0 {
			e.sched.Cancel(e.acks.at(st.ack).timer)
			e.releaseAcks(st)
		}
	}
	e.sendq = frameRing{}
	e.open = nil
	e.tx.reset()
	e.held = make(map[frame.MsgID]*heldFrame)
	e.rx.reset()
}

// SendGuaranteed queues a guaranteed frame for reliable delivery. The frame
// must carry a unique ID and a concrete destination node. The endpoint
// copies f's header and keeps no pointer to f, so the caller may reuse it at
// once, and f may live on the caller's stack. The body and passed link are
// shared, not copied: every transmission, every receiver and the recorder's
// log hold them, and nobody writes them again (demos.Msg.Body). So is a
// replay batch's record array, which the endpoint owns from here on and
// reuses once the message is acknowledged (BatchRecs).
func (e *Endpoint) SendGuaranteed(f *frame.Frame) {
	if f.ID.IsNil() {
		panic("transport: guaranteed frame without message id")
	}
	if f.Dst == frame.Broadcast {
		panic("transport: guaranteed frames must be addressed to one node")
	}
	g := e.sendq.push(f)
	g.Type = frame.Guaranteed
	g.Src = e.node
	// The ack block and the corrupt mark belong to one transmission: a frame
	// the kernel forwards or re-routes must carry neither from its last one.
	g.AckCumSet, g.AckCum, g.AckRecs, g.Corrupt = false, 0, nil, false
	e.stats.GuaranteedSent++
	e.pump()
}

// SendUnguaranteed transmits a frame with no delivery guarantee: dated or
// statistical information whose retransmission would be pointless (§4.3.3).
// A unicast frame that fits an already-forming unit for its destination
// rides along in that unit's Bundle — it is never retransmitted; otherwise it
// goes out immediately. The endpoint copies f's header, as SendGuaranteed
// does, and keeps no pointer to f, so the caller may reuse it at once, and f
// may live on the caller's stack. The body and passed link are shared, not
// copied.
func (e *Endpoint) SendUnguaranteed(f *frame.Frame) {
	g := e.copyFrame(f)
	g.Type = frame.Unguaranteed
	g.Src = e.node
	e.stats.UnguaranteedSent++
	if u := e.tx.get(g.Dst).form; u != nil && !u.flushed && !u.closed {
		if n := bundleRecLen(g); u.bytes+n <= bundleBudget {
			u.riders = append(u.riders, g)
			u.bytes += n
			return
		}
	}
	e.send(g, owner{})
}

// SendRaw transmits a copy of f's header verbatim but for its source (used by
// the recorder to emit RecorderAck frames, and by tests), under the same
// ownership rule as SendUnguaranteed.
func (e *Endpoint) SendRaw(f *frame.Frame) {
	g := e.copyFrame(f)
	g.Src = e.node
	e.send(g, owner{})
}

// owner is where a frame handed to the medium came from, so Release can put
// it back: a flight's own frame, a bundle or a replay batch's
// retransmission copy counts against its unit, an Ack frame goes back to
// its pool with its record array, and any other is a plain frame. copy
// marks a unit's plain frame, which goes back to the free list as well.
type owner struct {
	unit *txUnit
	ack  *ackFrame
	copy bool
}

// sentPresize is the sent table's starting capacity. An endpoint rarely has
// more frames on the medium at once, so the table seldom grows once a
// cluster runs.
const sentPresize = 8

// sentFrame is one slot of the sent table: a frame on the medium and its
// owner, laid out flat so the copy mark fits beside next, or, while free,
// the next free slot.
type sentFrame struct {
	f    *frame.Frame
	unit *txUnit
	ack  *ackFrame
	next uint32
	copy bool
}

// send hands f to the medium, writing into f.Slot the slot that remembers
// where it came from. The slot is filled first: a medium hands a frame back
// inside Send when it drops it there.
func (e *Endpoint) send(f *frame.Frame, o owner) {
	i := uint32(len(e.sent))
	if e.slotFree > 0 {
		i = e.slotFree - 1
		e.slotFree = e.sent[i].next
	} else {
		e.sent = append(e.sent, sentFrame{})
	}
	e.sent[i] = sentFrame{f: f, unit: o.unit, ack: o.ack, copy: o.copy}
	f.Slot = i
	e.med.Send(e.node, f)
}

// Release implements lan.Releaser: the medium and every listener are done
// with a frame this endpoint sent, so it goes back where it came from. A
// frame the endpoint did not send, such as a test's raw medium Send under
// this node's id, is not the frame its Slot names and is left alone.
// Release schedules, cancels and sends nothing.
func (e *Endpoint) Release(f *frame.Frame) {
	i := f.Slot
	if int(i) >= len(e.sent) || e.sent[i].f != f {
		return
	}
	o := e.sent[i]
	e.sent[i] = sentFrame{next: e.slotFree}
	e.slotFree = i + 1
	switch {
	case o.unit != nil:
		if o.copy {
			e.putFrame(f)
		}
		o.unit.wire--
		e.recycleUnit(o.unit)
	case o.ack != nil:
		o.ack.f = frame.Frame{}
		e.ackFree = append(e.ackFree, o.ack)
	default:
		e.putFrame(f)
	}
}

// newFrame takes a zeroed plain frame from the free list, or the heap.
func (e *Endpoint) newFrame() *frame.Frame {
	k := len(e.frameFree)
	if k == 0 {
		return new(frame.Frame)
	}
	f := e.frameFree[k-1]
	e.frameFree = e.frameFree[:k-1]
	return f
}

// copyFrame takes a plain frame holding a copy of f's header. An ack block's
// records are copied into an array of the endpoint's, as attachAcks's are,
// so putFrame may reuse the array of every plain frame.
func (e *Endpoint) copyFrame(f *frame.Frame) *frame.Frame {
	g := e.newFrame()
	*g = *f
	if f.AckRecs != nil {
		g.AckRecs = append(e.newAckRecs(), f.AckRecs...)
	}
	return g
}

// putFrame zeroes a plain frame, so the free list pins no body, and frees it
// with its ack records' array.
func (e *Endpoint) putFrame(f *frame.Frame) {
	e.putAckRecs(f.AckRecs)
	*f = frame.Frame{}
	e.frameFree = append(e.frameFree, f)
}

// newAckRecs takes an empty ack record array from the free list, or makes
// one with room for a piggybacked block.
func (e *Endpoint) newAckRecs() []frame.AckRec {
	k := len(e.recsFree)
	if k == 0 {
		return make([]frame.AckRec, 0, maxPiggybackRecs)
	}
	recs := e.recsFree[k-1]
	e.recsFree = e.recsFree[:k-1]
	return recs
}

// putAckRecs frees the array of a frame that is being reused. It is never
// called when a frame merely comes back (Release): a flight's own frame is
// the header its retransmissions copy, and its block must not be written
// while the flight's unit holds it.
func (e *Endpoint) putAckRecs(recs []frame.AckRec) {
	if cap(recs) > 0 {
		e.recsFree = append(e.recsFree, recs[:0])
	}
}

// BatchRecs takes an empty record array for a replay batch (frame.Frame's
// Recs), from the free list or nil: the caller appends the batch's records
// and hands the frame to SendGuaranteed, which takes the array over. The
// array is freed only when the message's unit is recycled after its
// end-to-end ack, with every copy of it back from the medium: until then a
// retransmission, a receiver's held or buffered copy and a duplicate all
// read it, and the receiver is done with it before it acknowledges. An
// array whose message was given up or withdrawn is left to the collector.
func (e *Endpoint) BatchRecs() []frame.BundleRec {
	k := len(e.batchFree)
	if k == 0 {
		return nil
	}
	recs := e.batchFree[k-1]
	e.batchFree = e.batchFree[:k-1]
	return recs
}

// putBatchRecs frees an acknowledged batch's record array, cleared so the
// free list pins no body.
func (e *Endpoint) putBatchRecs(recs []frame.BundleRec) {
	if cap(recs) > 0 {
		clear(recs)
		e.batchFree = append(e.batchFree, recs[:0])
	}
}

// InFlight reports the number of guaranteed frames not yet acknowledged,
// including frames still queued behind the open unit.
func (e *Endpoint) InFlight() int { return e.inflight() + e.sendq.len() }

// inflight counts the live flights: the open unit's live members.
func (e *Endpoint) inflight() int {
	if e.open == nil {
		return 0
	}
	return e.open.live
}

// InFlightIDs returns the ids of frames admitted to the wire and awaiting
// their end-to-end acknowledgement (excludes frames still queued).
func (e *Endpoint) InFlightIDs() []frame.MsgID {
	ids := make([]frame.MsgID, 0, e.inflight())
	if u := e.open; u != nil {
		for _, fl := range u.recs {
			if !fl.done {
				ids = append(ids, fl.f.ID)
			}
		}
	}
	return ids
}

// oldest returns the live flight with the lowest stream sequence toward dst,
// or nil: the open unit's members are in sequence order, so it is the first
// live one, if the unit is toward dst.
func (e *Endpoint) oldest(dst frame.NodeID) *flight {
	if u := e.open; u != nil && u.dst == dst {
		for _, fl := range u.recs {
			if !fl.done {
				return fl
			}
		}
	}
	return nil
}

// flightOf returns the live flight carrying id, or nil.
func (e *Endpoint) flightOf(id frame.MsgID) *flight {
	if u := e.open; u != nil {
		for _, fl := range u.recs {
			if !fl.done && fl.f.ID == id {
				return fl
			}
		}
	}
	return nil
}

// pump admits queued frames to the wire, one unacknowledged transmission unit
// at a time (§4.3.3): the head of the queue may always join the forming unit
// for its destination, which is the open unit, while opening a new unit waits
// until the open one has finished. The head is copied into its unit before it
// is popped, since popping clears its slot.
func (e *Endpoint) pump() {
	for e.sendq.len() > 0 {
		f := e.sendq.peek()
		n := bundleRecLen(f)
		if u := e.tx.get(f.Dst).form; u != nil && !u.flushed && !u.closed {
			if u.bytes+n <= bundleBudget {
				e.joinUnit(u, f, n)
				e.sendq.pop()
				continue
			}
			// The forming unit is full: put it on the wire now rather than
			// waiting out the timer it can no longer benefit from.
			e.flushUnit(u)
		}
		if e.open != nil {
			return
		}
		u := e.openUnit(f)
		e.sendq.pop()
		if n > bundleBudget {
			// A frame that fills the budget alone can never coalesce; waiting
			// out the flush timer would be pure latency (replay batches and
			// checkpoint chunks ship full MTUs).
			e.flushUnit(u)
		}
	}
}

// bundleBudget is the bundle body space available to records, leaving room
// for a piggybacked acknowledgement block.
const bundleBudget = frame.MaxBody - ackReserve

// bundleRecLen returns the bundle-record cost of a single-message frame.
func bundleRecLen(f *frame.Frame) int {
	n := frame.BundleRecFixed + f.BodyLen()
	if f.PassedLink != nil {
		n += frame.BundleRecLink
	}
	return n
}

// openUnit starts a new transmission unit with f as its first member and
// arms the flush timer.
func (e *Endpoint) openUnit(f *frame.Frame) *txUnit {
	var u *txUnit
	if k := len(e.unitFree); k > 0 {
		u = e.unitFree[k-1]
		e.unitFree = e.unitFree[:k-1]
	} else {
		u = &txUnit{e: e}
		u.recs = u.recs1[:0]
	}
	u.epoch, u.dst, u.bytes = e.epoch, f.Dst, frame.BundleHdrLen
	e.tx.at(f.Dst).form = u
	e.open = u
	e.joinUnit(u, f, bundleRecLen(f))
	u.timer = e.sched.AfterHandler(flushDelay, u)
	return u
}

// joinUnit admits a copy of a guaranteed frame into a forming unit as a new
// flight, assigning it the next stream sequence toward its destination.
func (e *Endpoint) joinUnit(u *txUnit, f *frame.Frame, n int) {
	fl := &u.first
	if k := len(u.recs); k > 0 {
		if k > len(u.spare) {
			u.spare = append(u.spare, new(flight))
		}
		fl = u.spare[k-1]
	}
	*fl = flight{f: *f, unit: u}
	p := e.tx.at(f.Dst)
	seq := p.xseq
	p.xseq++
	fl.f.XSeq = uint64(e.epoch&0xffff)<<48 | (seq & xseqSeqMask)
	u.recs = append(u.recs, fl)
	u.live++
	u.bytes += n
}

// unitMemberDone records that one guaranteed member of the open unit
// finished (acked, given up, or withdrawn); the last one closes it, so a new
// unit may open, and may free the unit itself, so the caller touches neither
// it nor its flights afterwards.
func (e *Endpoint) unitMemberDone(u *txUnit) {
	u.live--
	if u.live > 0 || u.closed {
		return
	}
	u.closed = true
	if !u.flushed && len(u.riders) == 0 {
		// Withdrawn before the flush with nothing riding along: nothing is
		// left to send. (Riders otherwise still wait on the flush timer, while
		// a new unit may open: an unguaranteed-only flush needs no ack.)
		u.flushed = true
		e.sched.Cancel(u.timer)
		if p := e.tx.at(u.dst); p.form == u {
			p.form = nil
		}
	}
	e.open = nil
	e.recycleUnit(u)
}

// recycleUnit frees a unit once nothing refers to it: every member finished
// or withdrawn (closed), the flush done or cancelled (flushed), and none of
// its frames left on the medium. A unit a Reset abandoned never closes, so
// it is left to the collector. The flights' frames are zeroed and their ack
// arrays freed, with an acknowledged replay batch's record array
// (BatchRecs), the bundle goes back to the free list and its records are
// cleared, so the free list pins no body; recs, riders, spare and
// bundleRecs keep their arrays.
func (e *Endpoint) recycleUnit(u *txUnit) {
	if !u.closed || !u.flushed || u.wire > 0 {
		return
	}
	for _, fl := range u.recs {
		e.putAckRecs(fl.f.AckRecs)
		if fl.acked {
			e.putBatchRecs(fl.f.Recs)
		}
		fl.f = frame.Frame{}
	}
	if u.bundle != nil {
		e.putFrame(u.bundle)
		u.bundle = nil
	}
	clear(u.bundleRecs)
	u.recs, u.riders, u.bundleRecs = u.recs[:0], u.riders[:0], u.bundleRecs[:0]
	u.live, u.flushed, u.closed = 0, false, false
	e.unitFree = append(e.unitFree, u)
}

// flushUnit puts a forming unit on the wire: one plain frame when it holds a
// single record, a Bundle frame otherwise. Members withdrawn since admission
// (Abort) are skipped.
func (e *Endpoint) flushUnit(u *txUnit) {
	if u.flushed {
		return
	}
	u.flushed = true
	e.sched.Cancel(u.timer)
	if p := e.tx.at(u.dst); p.form == u {
		p.form = nil
	}
	live := u.recs[:0]
	for _, fl := range u.recs {
		if !fl.done {
			live = append(live, fl)
		}
	}
	u.recs = live
	switch {
	case len(live) == 0 && len(u.riders) == 0:
	case len(live) == 1 && len(u.riders) == 0:
		e.transmit(live[0])
	case len(live) == 0 && len(u.riders) == 1:
		e.send(u.riders[0], owner{})
		u.riders = u.riders[:0]
	default:
		e.sendBundle(u, live)
	}
	e.recycleUnit(u)
}

// sendBundle puts a unit's live members and riders on the wire as one Bundle
// frame, the unit's own. Each message is a record in the unit's array,
// holding its header and sharing its body, so nothing is copied but
// headers, and the unit waits for the medium to hand the bundle back before
// it is reused. A rider's record holds all of its frame the bundle needs, so
// the rider goes back to the free list at once.
func (e *Endpoint) sendBundle(u *txUnit, live []*flight) {
	n := len(live) + len(u.riders)
	recs := slices.Grow(u.bundleRecs[:0], n)[:n]
	for i, fl := range live {
		recs[i].RecOf(&fl.f)
	}
	for i, g := range u.riders {
		recs[len(live)+i].RecOf(g)
		e.putFrame(g)
		u.riders[i] = nil
	}
	u.riders, u.bundleRecs = u.riders[:0], recs
	b := e.newFrame()
	u.bundle = b
	b.Type, b.Src, b.Dst, b.Recs = frame.Bundle, e.node, u.dst, recs
	b.XLow = e.xlowFor(u.dst, ^uint64(0))
	e.stats.FramesCoalesced += uint64(n)
	e.attachAcks(b)
	u.wire++
	e.send(b, owner{unit: u})
	for _, fl := range live {
		e.armFlight(fl)
	}
}

// xlowFor computes the stream low-water mark toward dst: the lowest
// unacknowledged sequence, seeded with seed (the sending frame's own seq, or
// all-ones when stamping a bundle).
func (e *Endpoint) xlowFor(dst frame.NodeID, seed uint64) uint64 {
	low := seed
	if fl := e.oldest(dst); fl != nil {
		low = min(low, xseqSeq(fl.f.XSeq))
	}
	return uint64(e.epoch&0xffff)<<48 | (low & xseqSeqMask)
}

// transmit puts one attempt of a flight on the wire, with the low-water mark
// and ack block of this send time. The first attempt is the flight's own
// frame: stamped, then handed to the medium, which holds it until Release,
// so nothing writes fl.f after that. Every later attempt, like every attempt
// of a flight first sent inside a bundle, is a plain frame holding a copy of
// the header, cleared of what belonged to the first: the medium's corrupt
// mark and the ack block that went out with it. The body, passed link and a
// batch's records are always shared: a body is read-only from Send through
// every receiver and the recorder's log (demos.Msg.Body), and a batch's
// record array is reused only once every copy is back (BatchRecs), so the
// unit counts a batch's copies on the wire as well as its own frames.
func (e *Endpoint) transmit(fl *flight) {
	g, o := &fl.f, owner{unit: fl.unit}
	if fl.attempts > 0 {
		g, o = e.newFrame(), owner{}
		*g = fl.f
		g.Corrupt = false
		g.AckCumSet, g.AckCum, g.AckRecs = false, 0, nil
		if g.Recs != nil {
			o = owner{unit: fl.unit, copy: true}
		}
	}
	if o.unit != nil {
		fl.unit.wire++
	}
	// Stamp the stream low-water mark: the lowest sequence still
	// unacknowledged toward this destination. Receivers sync on it.
	g.XLow = e.xlowFor(g.Dst, xseqSeq(g.XSeq))
	e.attachAcks(g)
	e.send(g, o)
	e.armFlight(fl)
}

// armFlight counts one transmission attempt and arms the retransmit timer.
func (e *Endpoint) armFlight(fl *flight) {
	fl.attempts++
	if fl.attempts == 1 {
		fl.sentAt = e.sched.Now()
	}
	fl.timer = e.sched.AfterHandler(e.rtoDelay(fl), fl)
}

// rtoDelay returns the retransmission timeout for the flight's next attempt:
// the destination's current RTO — measured from ack round trips, and doubled
// persistently by backoffRTO on every timeout — or RetransmitInterval before
// the first measurement.
func (e *Endpoint) rtoDelay(fl *flight) simtime.Time {
	d := e.cfg.RetransmitInterval
	if r := e.tx.get(fl.f.Dst).rto; r != 0 {
		d = r
	}
	return min(max(d, minRTO), maxRTO)
}

// rtoFor returns dst's send state, its estimator's timeout starting at
// RetransmitInterval if nothing has set it yet.
func (e *Endpoint) rtoFor(dst frame.NodeID) *txPeer {
	st := e.tx.at(dst)
	if st.rto == 0 {
		st.rto = e.cfg.RetransmitInterval
	}
	return st
}

// observeRTT feeds one ack round trip into the histogram and the RFC 6298
// estimator. Karn's algorithm: only first-attempt acks are unambiguous
// samples, so retransmitted flights contribute nothing.
func (e *Endpoint) observeRTT(fl *flight) {
	if fl.attempts != 1 {
		return
	}
	r := e.sched.Now() - fl.sentAt
	e.ackRTT.Observe(int64(r))
	st := e.rtoFor(fl.f.Dst)
	if !st.valid {
		st.srtt = r
		st.rttvar = r / 2
		st.valid = true
	} else {
		d := st.srtt - r
		if d < 0 {
			d = -d
		}
		st.rttvar = (3*st.rttvar + d) / 4
		st.srtt = (7*st.srtt + r) / 8
	}
	vv := 4 * st.rttvar
	if vv < rtoGranularity {
		vv = rtoGranularity
	}
	st.rto = min(max(st.srtt+vv, minRTO), maxRTO)
	e.rtoGauge.Set(int64(st.rto))
}

func (e *Endpoint) retransmit(fl *flight) {
	if fl.done {
		return // acked in the meantime
	}
	budget := simtime.Time(e.cfg.MaxRetries) * e.cfg.RetransmitInterval
	if e.cfg.MaxRetries > 0 && (fl.attempts >= e.cfg.MaxRetries || e.sched.Now()-fl.sentAt >= budget) {
		// Give up; the crash-detection machinery owns this situation now.
		// KindGiveUp (not a generic drop) because retry exhaustion is the
		// premise the recorder's cumulative-ack inference must not cross —
		// internal/monitor keys its giveup-inference invariant off it.
		e.stats.GaveUp++
		if e.log.Enabled() {
			id := fl.f.ID.String()
			e.log.AddMsg(trace.KindGiveUp, int(e.node), id, id,
				"gave up after %d attempts", fl.attempts)
		}
		e.finish(fl)
		return
	}
	e.stats.Retransmits++
	e.backoffRTO(fl.f.Dst)
	if e.log.Enabled() {
		id := fl.f.ID.String()
		e.log.AddMsgSeq(trace.KindSend, int(e.node), id, id, uint64(fl.attempts), "retransmit #%d", fl.attempts)
	}
	e.transmit(fl)
}

// backoffRTO doubles the destination's timeout after a loss signal (RFC 6298
// §5.5), clamped to [minRTO, maxRTO]. The backed-off value persists for every
// later flight to the destination until a fresh round-trip sample replaces
// it: retransmitted flights never produce samples (Karn's algorithm), so
// without persistence a timeout below the true round trip would fire
// spuriously again for every subsequent message.
func (e *Endpoint) backoffRTO(dst frame.NodeID) {
	st := e.rtoFor(dst)
	st.rto = max(min(2*st.rto, maxRTO), minRTO)
	e.rtoGauge.Set(int64(st.rto))
}

// finish removes a live flight from the in-flight set and admits the next.
func (e *Endpoint) finish(fl *flight) {
	e.withdraw(fl)
	e.pump()
}

// withdraw takes a live flight out of the in-flight set. It may free the
// flight's unit (unitMemberDone), so the caller reads neither afterwards.
func (e *Endpoint) withdraw(fl *flight) {
	fl.done = true
	e.sched.Cancel(fl.timer)
	e.unitMemberDone(fl.unit)
}

// Receive implements lan.Station.
func (e *Endpoint) Receive(f *frame.Frame) {
	switch f.Type {
	case frame.Ack:
		// Everything an Ack acknowledges is in its block (flushAcks attaches
		// at least one record); the header id repeats the newest record for
		// trace readers.
		e.processAckPayload(f)
	case frame.RecorderAck:
		e.handleRecorderAck(f)
	case frame.Guaranteed:
		e.processAckPayload(f)
		e.handleGuaranteed(f)
	case frame.Bundle:
		e.processAckPayload(f)
		e.handleBundle(f)
	case frame.Unguaranteed:
		if e.Deliver != nil {
			e.stats.Delivered++
			e.Deliver(f)
		}
	}
}

// handleBundle runs every record of a coalesced frame through the regular
// single-frame paths. Each record expands into one scratch frame: like a
// wire frame, it is valid only during the call it is handed to, and what
// keeps a record (a held or buffered frame) copies its header. Record bodies
// are the messages' bodies, which nobody writes once sent (lan.Station), so
// no body is copied. The scratch frame is taken, not shared, while the
// records run, so a handleBundle re-entered from an upcall would get a
// fresh one. (None is: media deliver only from scheduled events.)
func (e *Endpoint) handleBundle(f *frame.Frame) {
	if f.Dst != e.node {
		return
	}
	g := e.rxFrame
	if g == nil {
		g = new(frame.Frame)
	}
	e.rxFrame = nil
	for i := range f.Recs {
		f.Recs[i].ExpandInto(g, f)
		switch g.Type {
		case frame.Guaranteed:
			e.handleGuaranteed(g)
		case frame.Unguaranteed:
			if e.Deliver != nil {
				e.stats.Delivered++
				e.Deliver(g)
			}
		}
	}
	*g = frame.Frame{} // pin no member body
	e.rxFrame = g
}

// deliverUp completes delivery of one in-order guaranteed frame. A refusal
// by the kernel leaves the frame unacknowledged and the stream position
// unchanged; the sender's retransmission re-offers it.
func (e *Endpoint) deliverUp(f *frame.Frame) bool {
	if e.Deliver != nil && !e.Deliver(f) {
		return false
	}
	e.stats.Delivered++
	e.ack(f)
	return true
}

// ackOne completes one acknowledged flight.
func (e *Endpoint) ackOne(fl *flight) {
	fl.acked = true
	e.stats.AcksReceived++
	e.observeRTT(fl)
	if e.log.Detailed() {
		id := fl.f.ID.String()
		e.log.AddMsg(trace.KindAck, int(e.node), id, id,
			"end-to-end ack after %d attempt(s)", fl.attempts)
	}
	if e.OnAck != nil {
		e.OnAck(fl.f.ID)
	}
	e.finish(fl)
}

// processAckPayload applies a piggybacked (or standalone-cumulative)
// acknowledgement block: every listed record completes individually, then
// the cumulative mark completes everything at or below it on the stream to
// the sending peer — including retransmitted frames whose individual ack
// record was superseded or lost.
func (e *Endpoint) processAckPayload(f *frame.Frame) {
	if f.Dst != e.node || (!f.AckCumSet && len(f.AckRecs) == 0) {
		return
	}
	for i := range f.AckRecs {
		if fl := e.flightOf(f.AckRecs[i].ID); fl != nil {
			e.ackOne(fl)
		}
	}
	if !f.AckCumSet || xseqEpoch(f.AckCum) != uint16(e.epoch&0xffff) {
		return
	}
	// Complete in stream order, the oldest live flight each time: a
	// completion may free the open unit, and pump may open a new one with
	// new messages, which take higher sequences. The first flight not yet
	// sent ends the transmitted ones.
	cum := xseqSeq(f.AckCum)
	for {
		fl := e.oldest(f.Src)
		if fl == nil || fl.attempts == 0 || xseqSeq(fl.f.XSeq) > cum {
			return
		}
		e.ackOne(fl)
	}
}

func (e *Endpoint) handleGuaranteed(f *frame.Frame) {
	if f.Dst != e.node && f.Dst != frame.Broadcast {
		return
	}
	if e.cfg.RecorderAckHold > 0 {
		if _, dup := e.held[f.ID]; dup {
			return // already holding a copy
		}
		if !e.cfg.DisableDupSuppression && e.delivered(f) {
			// Already accepted earlier; the ack was lost. Re-ack.
			e.ack(f)
			e.stats.DupsSuppressed++
			return
		}
		e.stats.RecorderHeld++
		h := &heldFrame{e: e, epoch: e.epoch, f: *f}
		h.f.AckRecs = nil // applied on arrival; the array is the sender's to reuse
		h.timer = e.sched.AfterHandler(e.cfg.RecorderAckHold, h)
		e.held[f.ID] = h
		return
	}
	e.accept(f)
}

// handleRecorderAck releases held frames the recorder has stored. A frame
// with a non-empty Body covers a whole batch (a packed id list, in storage
// order); an empty Body is the legacy single-id form covering f.ID.
func (e *Endpoint) handleRecorderAck(f *frame.Frame) {
	if len(f.Body) == 0 {
		e.releaseHeld(f.ID)
		return
	}
	ids, err := frame.DecodeAckIDs(f.Body, e.idScratch)
	if err != nil {
		e.log.Add(trace.KindDrop, int(e.node), "", "recorder-ack decode failed: %v", err)
		return
	}
	e.idScratch = ids
	for _, id := range ids {
		e.releaseHeld(id)
	}
}

// releaseHeld completes publish-before-use for one held frame.
func (e *Endpoint) releaseHeld(id frame.MsgID) {
	h, ok := e.held[id]
	if !ok {
		return
	}
	e.sched.Cancel(h.timer)
	delete(e.held, id)
	e.accept(&h.f)
}

// delivered reports whether f's sender stream has handed f up already. It
// is a read-only look: unlike stream, it never restarts the stream.
func (e *Endpoint) delivered(f *frame.Frame) bool {
	st := e.rx.get(f.Src)
	return st != nil && st.synced && st.epoch == xseqEpoch(f.XSeq) && xseqSeq(f.XSeq) < st.expected
}

// accept finishes end-to-end reception: in-order reassembly, duplicate
// suppression, acknowledge, deliver upward. Acks are sent only as frames are
// delivered, so the recorder's ack-order inference (§4.4.1) remains the true
// order in which messages reached the process queues.
func (e *Endpoint) accept(f *frame.Frame) {
	st := e.stream(f.Src, xseqEpoch(f.XSeq))
	if st == nil {
		return // a stale copy from before the sender's reboot
	}
	low := xseqSeq(f.XLow)
	if !st.synced {
		// First contact with this sender epoch: sequences below XLow were
		// acknowledged before we existed and will never be resent.
		st.synced = true
		st.expected = low
	} else if low > st.expected {
		// The sender abandoned everything below XLow (retry exhaustion);
		// waiting for the gap would stall the stream forever. But abandoned
		// frames we already hold — buffered out of order, or refused by a
		// recovering process — are still delivered, in order: the recorder
		// infers arrival order from our acks, so handing sequence n up while
		// silently discarding a held n-1 would corrupt the inferred stream.
		// Only sequences that never arrived are skipped.
		for st.expected < low {
			g, held := st.buf[st.expected]
			if !held {
				st.expected++
				continue
			}
			if !e.deliverUp(g) {
				if e.HoldUndelivered != nil && e.HoldUndelivered(g) {
					break // transient; Poke or a later frame resumes here
				}
				delete(st.buf, st.expected)
				st.expected++
				continue
			}
			delete(st.buf, st.expected)
			st.expected++
		}
		e.drain(st)
	}
	e.advance(st, f)
}

// stream returns the reassembly state for src's current boot epoch. A newer
// epoch (the sender rebooted and restarted its sequence space) restarts the
// stream in place, discarding what it buffered; the acks owed to the sender
// stay queued. A frame from an older epoch (16-bit serial order) is a stale
// copy: stream returns nil and leaves the stream alone.
func (e *Endpoint) stream(src frame.NodeID, epoch uint16) *rxStream {
	st := e.rx.at(src)
	if st.synced && int16(epoch-st.epoch) < 0 {
		return nil
	}
	if st.epoch != epoch {
		// buf is made lazily on the first out-of-order or refused frame; an
		// in-order stream never needs it.
		clear(st.buf)
		*st = rxStream{epoch: epoch, ack: st.ack, buf: st.buf}
	}
	return st
}

func (e *Endpoint) advance(st *rxStream, f *frame.Frame) {
	seq := xseqSeq(f.XSeq)
	switch {
	case seq < st.expected:
		// Delivered already: "discarded as a duplicate" (§4.3.3), but re-acked,
		// since a lost ack is why the duplicate exists.
		if e.cfg.DisableDupSuppression {
			// Broken-guard mode: hand the duplicate up anyway so the chaos
			// exactly-once invariant has something real to catch.
			e.deliverUp(f)
		}
		e.stats.DupsSuppressed++
		e.ack(f)
	case seq == st.expected:
		if !e.deliverUp(f) {
			// Refused: remember the frame so a retransmission (or a later
			// poke) can retry; the stream does not advance past it.
			st.keep(seq, f)
			return
		}
		delete(st.buf, seq) // drop any stale buffered copy
		st.expected++
		e.drain(st)
	default:
		if _, ok := st.buf[seq]; !ok {
			st.keep(seq, f)
		}
	}
}

func (e *Endpoint) drain(st *rxStream) {
	for {
		f, ok := st.buf[st.expected]
		if !ok {
			return
		}
		if !e.deliverUp(f) {
			return // refused; frame stays buffered at expected
		}
		delete(st.buf, st.expected)
		st.expected++
	}
}

// Poke retries delivery of any frames refused earlier (the kernel calls it
// when a recovering process becomes able to accept messages again, rather
// than waiting out a retransmission interval).
func (e *Endpoint) Poke() {
	for id := range e.rx.len() {
		if st := e.rx.get(frame.NodeID(id)); st.synced {
			e.drain(st)
		}
	}
}

// Abort withdraws queued and in-flight guaranteed frames matching pred and
// returns copies of their headers in their original send order: the open
// unit's members in admission order, then the queue. The kernel uses it to
// re-route traffic when it learns a destination process has moved to another
// node. They are copies because withdrawing a flight may free its unit, and
// the caller's re-sends pump and may reuse it.
func (e *Endpoint) Abort(pred func(f *frame.Frame) bool) []*frame.Frame {
	var out []*frame.Frame
	if u := e.open; u != nil {
		// The unit closes, and may clear its flights, only when its last
		// live member is withdrawn, so each is copied first, and every member
		// the loop reaches after that is done.
		for _, fl := range u.recs {
			if !fl.done && pred(&fl.f) {
				g := new(frame.Frame)
				*g = fl.f
				out = append(out, g)
				e.withdraw(fl)
			}
		}
	}
	e.sendq.filter(func(f *frame.Frame) bool {
		if pred(f) {
			out = append(out, f)
			return false
		}
		return true
	})
	e.pump()
	return out
}

// ack acknowledges one accepted guaranteed frame end-to-end. The recorder
// overhears acknowledgements and learns the order in which messages were
// accepted at this node (§4.4.1: "It is possible to discover the order in
// which messages are received at the receiving node by tracing the
// acknowledgements") — delayed acknowledgement records keep that acceptance
// order. The record is queued to ride piggybacked on the next
// reverse-direction gated frame, falling back to a standalone cumulative Ack
// frame when the delay expires first.
func (e *Endpoint) ack(f *frame.Frame) {
	e.stats.AcksSent++
	rec := frame.AckRec{ID: f.ID, Rcv: f.To}
	st := e.rx.at(f.Src)
	if st.ack == 0 {
		var p *ackPending
		st.ack, p = e.acks.take()
		p.e, p.epoch, p.peer = e, e.epoch, f.Src
		p.recs = append(p.recs, rec)
		p.timer = e.sched.AfterHandler(e.cfg.AckDelay, p)
		return
	}
	p := e.acks.at(st.ack)
	for i := range p.recs {
		if p.recs[i] == rec {
			return // a duplicate's re-ack is already queued
		}
	}
	p.recs = append(p.recs, rec)
}

// maxFlushAckRecs bounds the acknowledgement records of one standalone
// cumulative Ack frame to the MTU.
const maxFlushAckRecs = (frame.MaxBody - 16) / frame.AckRecLen

// ackFrame is a flushed Ack frame and its record array, reused together.
// one backs the array until a flush needs more records, so a new ackFrame
// with one record is one object.
type ackFrame struct {
	f    frame.Frame
	recs []frame.AckRec
	one  [1]frame.AckRec
}

// newAck takes an Ack frame from the free list, or the heap.
func (e *Endpoint) newAck() *ackFrame {
	k := len(e.ackFree)
	if k == 0 {
		a := &ackFrame{}
		a.recs = a.one[:0]
		return a
	}
	a := e.ackFree[k-1]
	e.ackFree = e.ackFree[:k-1]
	return a
}

// flushAcks emits the acknowledgements pending toward src as standalone
// cumulative Ack frames — the fallback when the delay expires with no
// reverse-direction traffic to ride. Each frame copies its records into its
// own array, so the pending queue keeps its backing array for the next acks,
// and the emptied queue goes back to the pool.
func (e *Endpoint) flushAcks(src frame.NodeID) {
	st := e.rx.get(src)
	if st == nil || st.ack == 0 {
		return
	}
	p := e.acks.at(st.ack)
	for recs := p.recs; len(recs) > 0; {
		n := min(len(recs), maxFlushAckRecs)
		a := e.newAck()
		a.recs = append(a.recs[:0], recs[:n]...)
		f := &a.f
		f.AckRecs = a.recs
		last := recs[n-1]
		cum, cumOK := e.cumFor(src)
		e.stats.AcksDelayedFlush++
		f.Type = frame.Ack
		f.Src, f.Dst = e.node, src
		f.ID = last.ID // header echoes the newest record for tracing
		f.From, f.To = last.Rcv, last.ID.Sender
		f.AckCumSet, f.AckCum = cumOK, cum
		e.send(f, owner{ack: a})
		recs = recs[n:]
	}
	e.releaseAcks(st)
}

// cumFor returns the cumulative acknowledgement (XSeq layout) for the stream
// received from src: every sequence at or below it in that sender epoch has
// been accepted and acknowledged here, so the sender may complete frames
// whose individual acks were lost or superseded.
func (e *Endpoint) cumFor(src frame.NodeID) (uint64, bool) {
	st := e.rx.get(src)
	if st == nil || !st.synced || st.expected == 0 {
		return 0, false
	}
	return uint64(st.epoch)<<48 | ((st.expected - 1) & xseqSeqMask), true
}

// attachAcks piggybacks pending acknowledgement state for f.Dst onto an
// outgoing gated frame about to be sent. f is the frame of one transmission:
// a bundle, a flight's own frame on its first attempt, or a retransmission's
// header copy, which transmit clears of the first attempt's block, so each
// attempt carries only what is pending at its own send time. The records
// are copied into an array from the free list, which goes back when f is
// reused, so the pending queue keeps its own array for the next acks. A
// queue the frame empties stops its timer and goes back to the pool.
func (e *Endpoint) attachAcks(f *frame.Frame) {
	if f.Dst == frame.Broadcast {
		return
	}
	if cum, ok := e.cumFor(f.Dst); ok {
		f.AckCumSet = true
		f.AckCum = cum
	}
	st := e.rx.get(f.Dst)
	if st == nil || st.ack == 0 {
		return
	}
	p := e.acks.at(st.ack)
	n := len(p.recs)
	if n > maxPiggybackRecs {
		n = maxPiggybackRecs
	}
	// Never push the frame past the MTU (the 16-byte margin also covers the
	// ack block header when the cumulative mark was not attachable).
	if room := (frame.MTU - f.WireLen() - 16) / frame.AckRecLen; n > room {
		n = room
	}
	if n <= 0 {
		return
	}
	f.AckRecs = append(e.newAckRecs(), p.recs[:n]...)
	p.recs = p.recs[:copy(p.recs, p.recs[n:])]
	e.stats.AcksPiggybacked += uint64(n)
	if len(p.recs) == 0 {
		e.sched.Cancel(p.timer)
		e.releaseAcks(st)
	}
}

var (
	_ lan.Station  = (*Endpoint)(nil)
	_ lan.Releaser = (*Endpoint)(nil)
)

// destTable is per-destination state kept in a slice indexed by NodeID.
// Node ids are small and dense (0..n-1), so a slice lookup replaces a map
// probe on the per-frame hot path. The zero value is ready to use; the
// backing slice grows on first touch of a high id. Negative ids (the
// Broadcast sentinel is -1) read as the zero value and must never be set.
type destTable[T any] struct {
	v []T
}

func (d *destTable[T]) get(id frame.NodeID) T {
	if id < 0 || int(id) >= len(d.v) {
		var zero T
		return zero
	}
	return d.v[id]
}

// at returns id's slot, growing the table to hold it. The pointer is valid
// until the table next grows.
func (d *destTable[T]) at(id frame.NodeID) *T {
	if id < 0 {
		panic("transport: destTable.at on negative node id")
	}
	if int(id) >= len(d.v) {
		if int(id) < cap(d.v) {
			// Spare capacity is always zeroed (allocated by make, never
			// written past len, and reset clears the full length).
			d.v = d.v[:int(id)+1]
		} else {
			// Grow geometrically: touching ids 0..n-1 in order must cost
			// O(log n) reallocations, not one per new maximum.
			n := int(id) + 1
			if c := 2 * cap(d.v); n < c {
				n = c
			}
			nv := make([]T, int(id)+1, n)
			copy(nv, d.v)
			d.v = nv
		}
	}
	return &d.v[id]
}

func (d *destTable[T]) reset() {
	clear(d.v)
}

// presize reserves room for node ids 0..n-1 up front.
func (d *destTable[T]) presize(n int) {
	if n > len(d.v) {
		d.v = make([]T, n)
	}
}

// rxTable holds one rxStream row per sender, by value, indexed by NodeID.
// Rows never move, so a *rxStream stays valid while a delivery upcall adds
// rows for new senders: ids below len(first), which Config.Peers sizes, are
// rows of first, and the ids past it fall in chunks of rxChunk rows, added
// as the ids appear. A row no frame has reached is the zero row, a sender
// not heard yet.
type rxTable struct {
	first []rxStream
	more  []*[rxChunk]rxStream
}

// rxChunk is how many rows a chunk holds: 16 of 24 bytes fill a 384-byte
// size class. Past 512 bytes the allocator adds an 8-byte header to an
// object with pointers, so 32 rows would take an 896-byte class.
const rxChunk = 16

// len is the number of ids the table has rows for.
func (t *rxTable) len() int { return len(t.first) + rxChunk*len(t.more) }

// get returns id's row, or nil if the table has none for it.
func (t *rxTable) get(id frame.NodeID) *rxStream {
	i := int(id)
	switch {
	case i < 0:
		return nil
	case i < len(t.first):
		return &t.first[i]
	}
	i -= len(t.first)
	if k := i / rxChunk; k < len(t.more) {
		return &t.more[k][i%rxChunk]
	}
	return nil
}

// at returns id's row, adding chunks until the table has one.
func (t *rxTable) at(id frame.NodeID) *rxStream {
	if id < 0 {
		panic("transport: rxTable.at on negative node id")
	}
	for int(id) >= t.len() {
		t.more = append(t.more, new([rxChunk]rxStream))
	}
	return t.get(id)
}

// reset zeroes every row in place.
func (t *rxTable) reset() {
	clear(t.first)
	for _, c := range t.more {
		clear(c[:])
	}
}

// frameRing is the send queue: a FIFO of frame headers, held by value on a
// power-of-two ring, so queueing a frame copies it into a slot and popping
// the head keeps the capacity the next push needs.
type frameRing struct {
	buf  []frame.Frame // len is zero or a power of two
	head int
	n    int
}

func (r *frameRing) len() int { return r.n }

// push copies *f to the tail and returns the tail's slot.
func (r *frameRing) push(f *frame.Frame) *frame.Frame {
	if r.n == len(r.buf) {
		buf := make([]frame.Frame, max(4, 2*len(r.buf)))
		k := copy(buf, r.buf[r.head:])
		copy(buf[k:], r.buf[:r.head])
		r.buf, r.head = buf, 0
	}
	g := &r.buf[(r.head+r.n)&(len(r.buf)-1)]
	*g = *f
	r.n++
	return g
}

// peek returns the head's slot, valid until the head is popped.
func (r *frameRing) peek() *frame.Frame { return &r.buf[r.head] }

// pop clears the head's slot, so the ring pins no body, and drops it.
func (r *frameRing) pop() {
	r.buf[r.head] = frame.Frame{}
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}

// filter keeps, in order, the queued frames keep reports true for. keep is
// handed a heap copy of each frame, which it may retain.
func (r *frameRing) filter(keep func(f *frame.Frame) bool) {
	n := r.n
	for i := 0; i < n; i++ {
		f := *r.peek()
		r.pop()
		if keep(&f) {
			r.push(&f)
		}
	}
}

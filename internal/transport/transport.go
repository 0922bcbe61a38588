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
//   - Each message carries a unique id (sender process id + send sequence);
//     each processor keeps a cache of recently received ids and discards
//     duplicates caused by resends.
//   - The paper's frame and Ack frame per message "is inefficient under load"
//     (§4.3.3): sends to one destination share a Bundle frame (a transmission
//     unit) and acks ride reverse traffic or leave as one cumulative Ack
//     frame (DESIGN.md "Steady-state wire efficiency").
//   - Ordering is preserved by allowing only one unacknowledged transmission
//     unit in transit from each processor; Config.Window > 1 is the windowing
//     extension the paper anticipates (per-destination sliding windows).
//   - Unguaranteed messages are fire-and-forget.
//
// When Config.NeedRecorderAck is set (plain Ethernet without hardware ack
// slots), the endpoint enforces publish-before-use at the transport level
// (§6.1): a received guaranteed frame is held until a RecorderAck frame for
// its id is heard; otherwise it is discarded and the sender's retransmission
// tries again.
package transport

import (
	"fmt"

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
	// talk to, pre-sizing the per-destination tables so cluster bringup does
	// not pay growth reallocations on every endpoint.
	Peers int
	// DisableDupSuppression turns the duplicate-detection guards off, so a
	// duplicated or retransmitted frame is delivered upward again. Negative
	// testing only: the chaos harness uses it to prove its exactly-once
	// invariant actually fires when the guard is broken.
	DisableDupSuppression bool
	// Window is the number of unacknowledged transmission units allowed in
	// transit from this processor. 1 is the thesis discipline; >1 is the
	// windowing extension it anticipates (per destination).
	Window int
	// NeedRecorderAck holds received guaranteed frames until the recorder
	// acknowledges them (publish-before-use on media that cannot gate).
	NeedRecorderAck bool
	// RecorderAckTimeout discards a held frame if no recorder ack arrives,
	// letting the sender's retransmission drive another attempt.
	RecorderAckTimeout simtime.Time
	// FlushDelay holds admitted guaranteed (and unicast unguaranteed) sends
	// briefly so several small messages to the same destination coalesce into
	// one Bundle frame, amortizing the fixed per-frame cost (on the paper's
	// network the 1.6 ms interpacket delay dwarfs a small payload).
	FlushDelay simtime.Time
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
// non-positive Window or duration of the Config it is given from here.
func DefaultConfig() Config {
	return Config{
		RetransmitInterval: 50 * simtime.Millisecond,
		MaxRetries:         200,
		Window:             1,
		RecorderAckTimeout: 40 * simtime.Millisecond,
		FlushDelay:         500 * simtime.Microsecond,
		AckDelay:           2 * simtime.Millisecond,
	}
}

const (
	// minRTO and maxRTO clamp the measured timeout and its backoff.
	minRTO = 2 * simtime.Millisecond
	maxRTO = 400 * simtime.Millisecond
	// dupCacheSize is the number of recently received message ids remembered
	// for duplicate suppression. The paper sizes it so an id's lifetime is
	// "many times greater than the time for a message to follow the longest
	// path through the network".
	dupCacheSize = 4096
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

func (s *Stats) String() string {
	return fmt.Sprintf("gsent=%d usent=%d rexmit=%d acks=%d/%d delivered=%d dups=%d held=%d expired=%d gaveup=%d coalesced=%d piggyback=%d ackflush=%d",
		s.GuaranteedSent, s.UnguaranteedSent, s.Retransmits, s.AcksSent, s.AcksReceived,
		s.Delivered, s.DupsSuppressed, s.RecorderHeld, s.RecorderExpired, s.GaveUp,
		s.FramesCoalesced, s.AcksPiggybacked, s.AcksDelayedFlush)
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

	// OnGiveUp, if set, is called when retry exhaustion abandons a frame;
	// the kernel uses it to re-route traffic whose destination moved.
	OnGiveUp func(f *frame.Frame)

	// epoch invalidates scheduled timers across Reset (processor crash).
	epoch uint64

	// sendq holds guaranteed frames not yet admitted to the wire, FIFO.
	sendq []*frame.Frame
	// inflight maps outstanding unacked frames to their retry state.
	inflight map[frame.MsgID]*flight
	// perDest counts outstanding transmission units per destination
	// (window > 1).
	perDest destTable[int]
	// openUnits is the global unit count (thesis Window == 1 discipline).
	openUnits int
	// form holds the per-destination coalescing buffer being filled.
	form destTable[*txUnit]

	// xseq numbers outgoing guaranteed frames per destination.
	xseq destTable[uint64]

	dup *dupCache

	// held are received guaranteed frames awaiting a recorder ack.
	held map[frame.MsgID]*heldFrame

	// rx holds per-sender in-order reassembly state (windowing extension).
	rx destTable[*rxStream]

	// ackPend accumulates delayed acknowledgements per peer.
	ackPend destTable[*ackPending]
	// rto holds the per-destination measured retransmission timeout.
	rto destTable[*rtoState]

	// recScratch and idScratch are decode buffers reused across receives.
	recScratch []frame.BundleRec
	idScratch  []frame.MsgID

	stats Stats
	// ackRTT observes send-to-ack round trips in virtual nanoseconds.
	ackRTT *metrics.Histogram
	// rtoGauge mirrors the most recently updated destination's timeout.
	rtoGauge *metrics.Gauge
}

// txUnit is one transmission unit under the window discipline: the set of
// messages that will share (or shared) one wire frame. Its window slot frees
// when every guaranteed member has been acknowledged or withdrawn.
type txUnit struct {
	dst     frame.NodeID
	recs    []*flight      // guaranteed members, admission order
	riders  []*frame.Frame // unguaranteed records riding along
	bytes   int            // encoded bundle-body bytes committed so far
	open    int            // guaranteed members not yet finished/withdrawn
	flushed bool
	closed  bool
	timer   simtime.Event
}

// ackPending is one peer's delayed-acknowledgement state.
type ackPending struct {
	recs     []frame.AckRec
	timerSet bool
	timer    simtime.Event
}

// rtoState is the RFC 6298 estimator for one destination.
type rtoState struct {
	srtt, rttvar, rto simtime.Time
	valid             bool
}

// maxPiggybackRecs bounds acknowledgement records attached to one data
// frame; bundles reserve this much body budget so the block always fits.
const maxPiggybackRecs = 8

// ackReserve is the body budget a bundle leaves for the piggyback block.
const ackReserve = maxPiggybackRecs*frame.AckRecLen + 16

// rtoGranularity is the RFC 6298 clock granularity G in the rto formula
// srtt + max(G, 4*rttvar).
const rtoGranularity = simtime.Millisecond

// rxStream reassembles one sender's guaranteed-frame stream in order.
type rxStream struct {
	epoch    uint16
	synced   bool
	expected uint64
	buf      map[uint64]*frame.Frame
}

// XSeq field layout (see frame.Frame.XSeq).
const xseqSeqMask = uint64(1)<<48 - 1

func xseqEpoch(x uint64) uint16 { return uint16(x >> 48) }
func xseqSeq(x uint64) uint64   { return x & xseqSeqMask }

type flight struct {
	f        *frame.Frame
	attempts int
	// sentAt is virtual time of the first transmission, the start of the
	// end-to-end ack round trip.
	sentAt simtime.Time
	timer  simtime.Event
	// unit is the transmission unit this flight belongs to.
	unit *txUnit
}

type heldFrame struct {
	f     *frame.Frame
	timer simtime.Event
}

// New creates an endpoint for node and attaches it to the medium.
func New(node frame.NodeID, med lan.Medium, sched *simtime.Scheduler, log *trace.Log, cfg Config) *Endpoint {
	def := DefaultConfig()
	cfg.Window = positiveOr(cfg.Window, def.Window)
	cfg.RetransmitInterval = positiveOr(cfg.RetransmitInterval, def.RetransmitInterval)
	cfg.RecorderAckTimeout = positiveOr(cfg.RecorderAckTimeout, def.RecorderAckTimeout)
	cfg.FlushDelay = positiveOr(cfg.FlushDelay, def.FlushDelay)
	cfg.AckDelay = positiveOr(cfg.AckDelay, def.AckDelay)
	e := &Endpoint{
		node:     node,
		med:      med,
		sched:    sched,
		log:      log,
		cfg:      cfg,
		inflight: make(map[frame.MsgID]*flight),
		dup:      newDupCache(dupCacheSize),
		held:     make(map[frame.MsgID]*heldFrame),
	}
	if n := cfg.Peers; n > 0 {
		e.perDest.presize(n)
		e.form.presize(n)
		e.xseq.presize(n)
		e.rx.presize(n)
		e.ackPend.presize(n)
		e.rto.presize(n)
	}
	if cfg.Metrics != nil {
		e.ackRTT = cfg.Metrics.Histogram(int(node), "transport", "ack_rtt_ns")
		e.rtoGauge = cfg.Metrics.Gauge(int(node), "transport", "rto_ns")
		e.rtoGauge.Set(int64(cfg.RetransmitInterval))
		s := &e.stats
		cfg.Metrics.AddCollector(int(node), "transport", func(emit func(string, int64)) {
			emit("guaranteed_sent", int64(s.GuaranteedSent))
			emit("unguaranteed_sent", int64(s.UnguaranteedSent))
			emit("retransmits", int64(s.Retransmits))
			emit("acks_sent", int64(s.AcksSent))
			emit("acks_received", int64(s.AcksReceived))
			emit("delivered", int64(s.Delivered))
			emit("dups_suppressed", int64(s.DupsSuppressed))
			emit("recorder_held", int64(s.RecorderHeld))
			emit("recorder_expired", int64(s.RecorderExpired))
			emit("gave_up", int64(s.GaveUp))
			emit("frames_coalesced", int64(s.FramesCoalesced))
			emit("acks_piggybacked", int64(s.AcksPiggybacked))
			emit("acks_delayed_flush", int64(s.AcksDelayedFlush))
		})
	}
	med.Attach(node, e)
	return e
}

func positiveOr[T int | simtime.Time](v, def T) T {
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
// and unacknowledged frames, the duplicate cache, held frames — is volatile
// and lost (§3.3.2 rounds a kernel fault up to a whole-processor crash).
func (e *Endpoint) Reset() {
	e.epoch++
	for _, fl := range e.inflight {
		e.sched.Cancel(fl.timer)
	}
	for _, h := range e.held {
		e.sched.Cancel(h.timer)
	}
	for _, u := range e.form.v {
		if u != nil {
			e.sched.Cancel(u.timer)
		}
	}
	for _, p := range e.ackPend.v {
		if p != nil && p.timerSet {
			e.sched.Cancel(p.timer)
		}
	}
	e.sendq = nil
	e.inflight = make(map[frame.MsgID]*flight)
	e.perDest.reset()
	e.openUnits = 0
	e.form.reset()
	e.xseq.reset()
	e.dup = newDupCache(dupCacheSize)
	e.held = make(map[frame.MsgID]*heldFrame)
	e.rx.reset()
	e.ackPend.reset()
	e.rto.reset()
}

// SendGuaranteed queues a guaranteed frame for reliable delivery. The frame
// must carry a unique ID and a concrete destination node.
func (e *Endpoint) SendGuaranteed(f *frame.Frame) {
	e.SendGuaranteedOwned(f.Clone())
}

// SendGuaranteedOwned is SendGuaranteed for callers handing over ownership:
// the endpoint retains f for retransmission and mutates it (type/src stamps,
// transient piggyback blocks), so the caller must not touch f — or anything
// it aliases — after the call. The kernel's send path builds a fresh frame
// per message, and cloning it again here was one of the two largest
// allocation sites in the cluster profile.
func (e *Endpoint) SendGuaranteedOwned(f *frame.Frame) {
	if f.ID.IsNil() {
		panic("transport: guaranteed frame without message id")
	}
	if f.Dst == frame.Broadcast {
		panic("transport: guaranteed frames must be addressed to one node")
	}
	f.Type = frame.Guaranteed
	f.Src = e.node
	e.stats.GuaranteedSent++
	e.sendq = append(e.sendq, f)
	e.pump()
}

// SendUnguaranteed transmits a frame with no delivery guarantee: dated or
// statistical information whose retransmission would be pointless (§4.3.3).
// A unicast frame that fits an already-forming unit for its destination
// rides along in that unit's Bundle — it consumes no window slot and is never
// retransmitted; otherwise it goes out immediately.
func (e *Endpoint) SendUnguaranteed(f *frame.Frame) {
	f = f.Clone()
	f.Type = frame.Unguaranteed
	f.Src = e.node
	e.stats.UnguaranteedSent++
	if u := e.form.get(f.Dst); u != nil && !u.flushed && !u.closed {
		if n := bundleRecLen(f); u.bytes+n <= bundleBudget {
			u.riders = append(u.riders, f)
			u.bytes += n
			return
		}
	}
	e.med.Send(e.node, f)
}

// SendRaw transmits a frame verbatim (used by the recorder to emit
// RecorderAck frames and by tests).
func (e *Endpoint) SendRaw(f *frame.Frame) {
	f = f.Clone()
	f.Src = e.node
	e.med.Send(e.node, f)
}

// InFlight reports the number of guaranteed frames not yet acknowledged,
// including frames still queued behind the window.
func (e *Endpoint) InFlight() int { return len(e.inflight) + len(e.sendq) }

// InFlightIDs returns the ids of frames transmitted and awaiting their
// end-to-end acknowledgement (excludes frames still queued).
func (e *Endpoint) InFlightIDs() []frame.MsgID {
	ids := make([]frame.MsgID, 0, len(e.inflight))
	for id := range e.inflight {
		ids = append(ids, id)
	}
	return ids
}

// pump admits queued frames to the wire subject to the window discipline.
// The window counts transmission units rather than messages: the head of the
// queue may always join the forming unit for its destination (that unit
// already holds a window slot), while opening a new unit requires a free slot.
func (e *Endpoint) pump() {
	for len(e.sendq) > 0 {
		f := e.sendq[0]
		n := bundleRecLen(f)
		if u := e.form.get(f.Dst); u != nil && !u.flushed && !u.closed {
			if u.bytes+n <= bundleBudget {
				e.sendq = e.sendq[1:]
				e.joinUnit(u, f, n)
				continue
			}
			// The forming unit is full: put it on the wire now rather than
			// waiting out the timer it can no longer benefit from.
			e.flushUnit(u)
		}
		if e.cfg.Window == 1 {
			// Thesis discipline: one unacknowledged unit per processor, total.
			if e.openUnits >= 1 {
				return
			}
		} else if e.perDest.get(f.Dst) >= e.cfg.Window {
			// Head-of-line blocked per destination; strict FIFO keeps
			// cross-destination order too, which publishing's read-order
			// accounting relies on.
			return
		}
		e.sendq = e.sendq[1:]
		u := e.openUnit(f)
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
	n := frame.BundleRecFixed + len(f.Body)
	if f.PassedLink != nil {
		n += frame.BundleRecLink
	}
	return n
}

// openUnit starts a new transmission unit with f as its first member and
// arms the flush timer.
func (e *Endpoint) openUnit(f *frame.Frame) *txUnit {
	u := &txUnit{dst: f.Dst, bytes: frame.BundleHdrLen}
	e.form.set(f.Dst, u)
	e.perDest.set(f.Dst, e.perDest.get(f.Dst)+1)
	e.openUnits++
	e.joinUnit(u, f, bundleRecLen(f))
	epoch := e.epoch
	u.timer = e.sched.After(e.cfg.FlushDelay, func() {
		if e.epoch != epoch {
			return
		}
		e.flushUnit(u)
	})
	return u
}

// joinUnit admits a guaranteed frame into a forming unit, assigning it the
// next stream sequence toward its destination.
func (e *Endpoint) joinUnit(u *txUnit, f *frame.Frame, n int) {
	seq := e.xseq.get(f.Dst)
	e.xseq.set(f.Dst, seq+1)
	f.XSeq = uint64(e.epoch&0xffff)<<48 | (seq & xseqSeqMask)
	fl := &flight{f: f, unit: u}
	e.inflight[f.ID] = fl
	u.recs = append(u.recs, fl)
	u.open++
	u.bytes += n
}

// unitMemberDone records that one guaranteed member of a unit finished
// (acked, given up, or withdrawn); the last one frees the window slot.
func (e *Endpoint) unitMemberDone(u *txUnit) {
	u.open--
	if u.open > 0 || u.closed {
		return
	}
	u.closed = true
	if !u.flushed && len(u.riders) == 0 {
		// Withdrawn before the flush with nothing riding along: nothing is
		// left to send. (Riders otherwise still wait on the flush timer; the
		// slot frees anyway — an unguaranteed-only flush consumes no window.)
		u.flushed = true
		e.sched.Cancel(u.timer)
		if e.form.get(u.dst) == u {
			e.form.set(u.dst, nil)
		}
	}
	e.perDest.set(u.dst, e.perDest.get(u.dst)-1)
	e.openUnits--
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
	if e.form.get(u.dst) == u {
		e.form.set(u.dst, nil)
	}
	live := u.recs[:0]
	for _, fl := range u.recs {
		if e.inflight[fl.f.ID] == fl {
			live = append(live, fl)
		}
	}
	u.recs = live
	switch {
	case len(live) == 0 && len(u.riders) == 0:
		return
	case len(live) == 1 && len(u.riders) == 0:
		e.transmit(live[0])
		return
	case len(live) == 0 && len(u.riders) == 1:
		e.med.Send(e.node, u.riders[0])
		return
	}
	bundle := &frame.Frame{
		Type: frame.Bundle,
		Src:  e.node,
		Dst:  u.dst,
		XLow: e.xlowFor(u.dst, ^uint64(0)),
	}
	body := frame.BeginBundle(make([]byte, 0, u.bytes))
	count := 0
	var rec frame.BundleRec
	for _, fl := range live {
		rec.RecOf(fl.f)
		body = frame.AppendBundleRec(body, &rec)
		count++
	}
	for _, g := range u.riders {
		rec.RecOf(g)
		body = frame.AppendBundleRec(body, &rec)
		count++
	}
	bundle.Body = frame.FinishBundle(body, 0, count)
	e.stats.FramesCoalesced += uint64(count)
	e.attachAcks(bundle)
	e.med.Send(e.node, bundle)
	e.detachAcks(bundle)
	for _, fl := range live {
		e.armFlight(fl)
	}
}

// xlowFor computes the stream low-water mark toward dst: the lowest
// unacknowledged sequence, seeded with seed (the sending frame's own seq, or
// all-ones when scanning on behalf of a bundle).
func (e *Endpoint) xlowFor(dst frame.NodeID, seed uint64) uint64 {
	low := seed
	for _, g := range e.inflight {
		if g.f.Dst == dst {
			if s := xseqSeq(g.f.XSeq); s < low {
				low = s
			}
		}
	}
	return uint64(e.epoch&0xffff)<<48 | (low & xseqSeqMask)
}

func (e *Endpoint) transmit(fl *flight) {
	// Stamp the stream low-water mark: the lowest sequence still
	// unacknowledged toward this destination. Receivers sync on it.
	fl.f.XLow = e.xlowFor(fl.f.Dst, xseqSeq(fl.f.XSeq))
	e.attachAcks(fl.f)
	e.med.Send(e.node, fl.f)
	e.detachAcks(fl.f)
	e.armFlight(fl)
}

// armFlight counts one transmission attempt and arms the retransmit timer.
func (e *Endpoint) armFlight(fl *flight) {
	fl.attempts++
	if fl.attempts == 1 {
		fl.sentAt = e.sched.Now()
	}
	epoch := e.epoch
	fl.timer = e.sched.After(e.rtoDelay(fl), func() {
		if e.epoch != epoch {
			return
		}
		e.retransmit(fl)
	})
}

// rtoDelay returns the retransmission timeout for the flight's next attempt:
// the destination's current RTO — measured from ack round trips, and doubled
// persistently by backoffRTO on every timeout — or RetransmitInterval before
// the first measurement.
func (e *Endpoint) rtoDelay(fl *flight) simtime.Time {
	d := e.cfg.RetransmitInterval
	if st := e.rto.get(fl.f.Dst); st != nil {
		d = st.rto
	}
	return min(max(d, minRTO), maxRTO)
}

// rtoFor returns dst's estimator, creating it on first use.
func (e *Endpoint) rtoFor(dst frame.NodeID) *rtoState {
	st := e.rto.get(dst)
	if st == nil {
		st = &rtoState{rto: e.cfg.RetransmitInterval}
		e.rto.set(dst, st)
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
	if _, ok := e.inflight[fl.f.ID]; !ok {
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
		e.finish(fl.f)
		if e.OnGiveUp != nil {
			e.OnGiveUp(fl.f)
		}
		return
	}
	e.stats.Retransmits++
	e.backoffRTO(fl.f.Dst)
	if e.log.Enabled() {
		id := fl.f.ID.String()
		e.log.AddMsg(trace.KindSend, int(e.node), id, id, "retransmit #%d", fl.attempts)
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

// finish removes a frame from the in-flight set and admits the next.
func (e *Endpoint) finish(f *frame.Frame) {
	fl, ok := e.inflight[f.ID]
	if !ok {
		return
	}
	e.sched.Cancel(fl.timer)
	delete(e.inflight, f.ID)
	e.unitMemberDone(fl.unit)
	e.pump()
}

// Receive implements lan.Station.
func (e *Endpoint) Receive(f *frame.Frame) {
	switch f.Type {
	case frame.Ack:
		e.handleAck(f)
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

// handleBundle unpacks a coalesced frame and runs every record through the
// regular single-frame paths. Record bodies alias the bundle body, which
// belongs to this endpoint (media deliver private copies), so no copies are
// made even for records that end up held or buffered.
func (e *Endpoint) handleBundle(f *frame.Frame) {
	if f.Dst != e.node {
		return
	}
	recs, err := frame.DecodeBundle(f.Body, e.recScratch)
	if err != nil {
		e.log.Add(trace.KindDrop, int(e.node), "", "bundle decode failed: %v", err)
		return
	}
	e.recScratch = recs
	for i := range recs {
		g := recs[i].Expand(f)
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
}

// deliverUp completes delivery of one in-order guaranteed frame. A refusal
// by the kernel leaves the frame unacknowledged and the stream position
// unchanged; the sender's retransmission re-offers it.
func (e *Endpoint) deliverUp(f *frame.Frame) bool {
	if e.Deliver != nil && !e.Deliver(f) {
		return false
	}
	e.dup.add(f.ID)
	e.stats.Delivered++
	e.ack(f)
	return true
}

func (e *Endpoint) handleAck(f *frame.Frame) {
	if f.Dst != e.node {
		return
	}
	if f.AckCumSet || len(f.AckRecs) > 0 {
		// Cumulative/range ack: everything acknowledged is in the payload;
		// the header id merely repeats the last record for trace readers.
		e.processAckPayload(f)
		return
	}
	fl, ok := e.inflight[f.ID]
	if !ok {
		return // duplicate ack
	}
	e.ackOne(fl)
}

// ackOne completes one acknowledged flight.
func (e *Endpoint) ackOne(fl *flight) {
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
	e.finish(fl.f)
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
		if fl, ok := e.inflight[f.AckRecs[i].ID]; ok {
			e.ackOne(fl)
		}
	}
	if !f.AckCumSet || xseqEpoch(f.AckCum) != uint16(e.epoch&0xffff) {
		return
	}
	cum := xseqSeq(f.AckCum)
	var done []*frame.Frame
	for _, fl := range e.inflight {
		if fl.f.Dst == f.Src && fl.attempts > 0 && xseqSeq(fl.f.XSeq) <= cum {
			done = append(done, fl.f)
		}
	}
	// Map iteration is unordered; completing in stream order keeps the run
	// deterministic (finish order decides what pump admits next).
	sortFrames(done)
	for _, g := range done {
		if fl, ok := e.inflight[g.ID]; ok {
			e.ackOne(fl)
		}
	}
}

func (e *Endpoint) handleGuaranteed(f *frame.Frame) {
	if f.Dst != e.node && f.Dst != frame.Broadcast {
		return
	}
	if f.Dst == frame.Broadcast {
		// A broadcast frame is a shared read-only view (lan.Station
		// contract) and this path retains frames — in the recorder-ack hold
		// map and the reorder buffer — so take a private copy up front.
		f = f.Clone()
	}
	if e.cfg.NeedRecorderAck {
		if _, dup := e.held[f.ID]; dup {
			return // already holding a copy
		}
		if !e.cfg.DisableDupSuppression && e.dup.contains(f.ID) {
			// Already accepted earlier; the ack was lost. Re-ack.
			e.ack(f)
			e.stats.DupsSuppressed++
			return
		}
		e.stats.RecorderHeld++
		h := &heldFrame{f: f}
		epoch := e.epoch
		h.timer = e.sched.After(e.cfg.RecorderAckTimeout, func() {
			if e.epoch != epoch {
				return
			}
			if _, ok := e.held[f.ID]; ok {
				delete(e.held, f.ID)
				e.stats.RecorderExpired++
				if e.log.Enabled() {
					id := f.ID.String()
					e.log.AddMsg(trace.KindDrop, int(e.node), id, id,
						"discarded: no recorder ack (will be resent)")
				}
			}
		})
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
	e.accept(h.f)
}

// accept finishes end-to-end reception: dedup, in-order reassembly,
// acknowledge, deliver upward. Acks are sent only as frames are delivered,
// so the recorder's ack-order inference (§4.4.1) remains the true order in
// which messages reached the process queues.
func (e *Endpoint) accept(f *frame.Frame) {
	if !e.cfg.DisableDupSuppression && e.dup.contains(f.ID) {
		// "If the identifier of a received message is found in this cache,
		// then the message is discarded as a duplicate" — but the ack must
		// be repeated, since its loss is why the duplicate exists.
		e.stats.DupsSuppressed++
		e.ack(f)
		return
	}
	st := e.stream(f.Src, xseqEpoch(f.XSeq))
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

// stream returns the reassembly state for src's current boot epoch,
// discarding state from a previous epoch (the sender rebooted and restarted
// its sequence space).
func (e *Endpoint) stream(src frame.NodeID, epoch uint16) *rxStream {
	st := e.rx.get(src)
	if st != nil && st.epoch == epoch {
		return st
	}
	// buf is allocated lazily on the first out-of-order or refused frame;
	// an in-order stream never needs it.
	st = &rxStream{epoch: epoch}
	e.rx.set(src, st)
	return st
}

func (e *Endpoint) advance(st *rxStream, f *frame.Frame) {
	seq := xseqSeq(f.XSeq)
	switch {
	case seq < st.expected:
		// Already delivered before the dup cache forgot it; just re-ack.
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
			if st.buf == nil {
				st.buf = make(map[uint64]*frame.Frame)
			}
			st.buf[seq] = f
			return
		}
		delete(st.buf, seq) // drop any stale buffered copy
		st.expected++
		e.drain(st)
	default:
		if _, ok := st.buf[seq]; !ok {
			if st.buf == nil {
				st.buf = make(map[uint64]*frame.Frame)
			}
			st.buf[seq] = f
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
	for _, st := range e.rx.v {
		if st != nil && st.synced {
			e.drain(st)
		}
	}
}

// Abort withdraws queued and in-flight guaranteed frames matching pred and
// returns them in their original send order. The kernel uses it to re-route
// traffic when it learns a destination process has moved to another node.
func (e *Endpoint) Abort(pred func(f *frame.Frame) bool) []*frame.Frame {
	var out []*frame.Frame
	for id, fl := range e.inflight {
		if pred(fl.f) {
			e.sched.Cancel(fl.timer)
			delete(e.inflight, id)
			e.unitMemberDone(fl.unit)
			out = append(out, fl.f)
		}
	}
	// In-flight frames were admitted before anything still queued; order
	// them by their stream sequence.
	sortFrames(out)
	keep := e.sendq[:0]
	for _, f := range e.sendq {
		if pred(f) {
			out = append(out, f)
		} else {
			keep = append(keep, f)
		}
	}
	e.sendq = keep
	e.pump()
	return out
}

func sortFrames(fs []*frame.Frame) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && xseqSeq(fs[j].XSeq) < xseqSeq(fs[j-1].XSeq); j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
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
	p := e.ackPend.get(f.Src)
	if p == nil {
		p = &ackPending{}
		e.ackPend.set(f.Src, p)
	}
	rec := frame.AckRec{ID: f.ID, Rcv: f.To}
	for i := range p.recs {
		if p.recs[i] == rec {
			return // a duplicate's re-ack is already queued
		}
	}
	p.recs = append(p.recs, rec)
	if !p.timerSet {
		p.timerSet = true
		src := f.Src
		epoch := e.epoch
		p.timer = e.sched.After(e.cfg.AckDelay, func() {
			if e.epoch != epoch {
				return
			}
			e.flushAcks(src)
		})
	}
}

// maxFlushAckRecs bounds the acknowledgement records of one standalone
// cumulative Ack frame to the MTU.
const maxFlushAckRecs = (frame.MaxBody - 16) / frame.AckRecLen

// flushAcks emits the acknowledgements pending toward src as standalone
// cumulative Ack frames — the fallback when the delay expires with no
// reverse-direction traffic to ride.
func (e *Endpoint) flushAcks(src frame.NodeID) {
	p := e.ackPend.get(src)
	if p == nil {
		return
	}
	p.timerSet = false
	for len(p.recs) > 0 {
		n := len(p.recs)
		if n > maxFlushAckRecs {
			n = maxFlushAckRecs
		}
		last := p.recs[n-1]
		cum, cumOK := e.cumFor(src)
		e.stats.AcksDelayedFlush++
		e.med.Send(e.node, &frame.Frame{
			Type:      frame.Ack,
			Src:       e.node,
			Dst:       src,
			ID:        last.ID, // header echoes the newest record for tracing
			From:      last.Rcv,
			To:        last.ID.Sender,
			AckCumSet: cumOK,
			AckCum:    cum,
			AckRecs:   p.recs[:n],
		})
		p.recs = p.recs[n:]
	}
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
// outgoing gated frame. The attachment is transient: media clone frames at
// Send, so the caller detaches immediately after — a later retransmission
// then carries whatever is pending at its own send time.
func (e *Endpoint) attachAcks(f *frame.Frame) {
	if f.Dst == frame.Broadcast {
		return
	}
	if cum, ok := e.cumFor(f.Dst); ok {
		f.AckCumSet = true
		f.AckCum = cum
	}
	p := e.ackPend.get(f.Dst)
	if p == nil || len(p.recs) == 0 {
		return
	}
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
	f.AckRecs = p.recs[:n]
	p.recs = p.recs[n:]
	e.stats.AcksPiggybacked += uint64(n)
	if len(p.recs) == 0 && p.timerSet {
		p.timerSet = false
		e.sched.Cancel(p.timer)
	}
}

// detachAcks strips a transient piggyback block after Send.
func (e *Endpoint) detachAcks(f *frame.Frame) {
	f.AckRecs = nil
	f.AckCumSet = false
	f.AckCum = 0
}

var _ lan.Station = (*Endpoint)(nil)

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

func (d *destTable[T]) set(id frame.NodeID, x T) {
	if id < 0 {
		panic("transport: destTable.set on negative node id")
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
	d.v[id] = x
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

// dupCache is a fixed-size FIFO set of message ids. The map and ring grow
// on demand up to the configured capacity: hundred-node clusters construct
// hundreds of endpoints, and pre-reserving 4096 slots apiece made endpoint
// construction the single largest line in the cluster-bringup profile.
type dupCache struct {
	set  map[frame.MsgID]struct{}
	ring []frame.MsgID
	next int
	cap  int
}

func newDupCache(n int) *dupCache {
	return &dupCache{set: make(map[frame.MsgID]struct{}), cap: n}
}

func (c *dupCache) contains(id frame.MsgID) bool {
	_, ok := c.set[id]
	return ok
}

func (c *dupCache) add(id frame.MsgID) {
	if c.contains(id) {
		return
	}
	if len(c.ring) < c.cap {
		// Still filling: nothing to evict yet.
		c.ring = append(c.ring, id)
		c.set[id] = struct{}{}
		return
	}
	old := c.ring[c.next]
	if !old.IsNil() {
		delete(c.set, old)
	}
	c.ring[c.next] = id
	c.next = (c.next + 1) % len(c.ring)
	c.set[id] = struct{}{}
}

// Package lan simulates the local-area network media the paper targets
// (§3.1, Ch. 6): broadcast media where "not only may any node overhear the
// messages destined for another node, but it may do so passively".
//
// Five media are provided:
//
//   - Perfect: an idealized zero-loss broadcast used by unit tests.
//   - Ether: CSMA/CD with collisions and binary exponential backoff
//     (Metcalfe & Boggs). Publish-before-use must be enforced by the
//     transport on this medium.
//   - AckEther: the Acknowledging Ethernet of Tokoro & Tamaru extended with
//     recorder-ack slots (§6.1.1) — a receiver discards any guaranteed frame
//     the recorder did not acknowledge in the reserved slot.
//   - Ring: a slotted token ring with an acknowledge field the recorder
//     fills; it invalidates the checksum of frames it failed to store
//     (§6.1.2).
//   - Star: the Z8000 experimental configuration (Fig 4.1a) with the
//     recorder as hub; "any messages received incorrectly by the recorder
//     are not passed on" (§4.1).
//
// All media run on a shared simtime.Scheduler and support deterministic
// fault injection: frame loss, tap misses, node downtime, and network
// partition (§3.6).
package lan

import (
	"fmt"

	"publishing/internal/frame"
	"publishing/internal/metrics"
	"publishing/internal/simtime"
	"publishing/internal/trace"
)

// Station is a network interface attached to a medium. The transport layer
// of each node implements it.
type Station interface {
	// Receive hands the station a frame that completed transmission and that
	// the medium's semantics allow it to use. It is the one frame the sender
	// put on the wire (Medium.Send), heard by every receiver, every tap and
	// any injected duplicate, and it is valid only during the call: the
	// sender reuses it once the medium hands it back (Releaser). The station
	// must not write to it, nor to anything reached through it, and must not
	// keep the pointer or its AckRecs. What it keeps it copies: the header by
	// value. Body and PassedLink may be kept as they are, since nobody writes
	// them again, and so may a replay batch's Recs until the station
	// acknowledges the message: the sender reuses their array only then.
	Receive(f *frame.Frame)
}

// Releaser is an optional Station extension for a sender that reuses its
// frames. For every Send from the station's node, the medium calls Release
// exactly once: after the frame's last Receive or Observe, an injected
// duplicate included, or at the point where the medium drops the frame.
// From then on nothing on the medium refers to the frame. Release must not
// send: the medium may be between two steps of its own bookkeeping.
type Releaser interface {
	Release(f *frame.Frame)
}

// Tap is a passive listener — the recorder's attachment (§3.7 cites METRIC
// and other Ethernet listeners as precedent). Observe is called for every
// frame the tap hears; its return value reports whether the tap reliably
// stored the frame. Media that enforce publish-before-use use that verdict
// to decide whether receivers may accept the frame.
//
// The frame is the one the sender put on the wire, valid only during the
// call, as for a Station: the tap must not write to it, and copies what it
// keeps.
type Tap interface {
	Observe(f *frame.Frame) bool
}

// VotingTap is an optional Tap extension for sharded recorders: ObserveVote
// returns both the stored verdict and whether this tap's verdict should count
// toward the medium's publish gate at all. A sharded recorder abstains
// (voting=false) on frames whose streams it does not replicate — the owning
// recorders' verdicts alone gate the frame, so a shard's availability is a
// property of its replicas, not of every recorder on the wire. Plain Taps
// always vote.
type VotingTap interface {
	Tap
	ObserveVote(f *frame.Frame) (stored, voting bool)
}

// Medium is a broadcast network.
type Medium interface {
	// Attach registers a station under a node id. Attaching twice replaces
	// the previous station (a rebooted node re-attaches its interface).
	Attach(id frame.NodeID, s Station)
	// AttachTap registers a passive listener resident at node id (partition
	// and downtime apply to taps by node id).
	AttachTap(id frame.NodeID, t Tap)
	// Send transmits f from node src. Media never block: delivery is
	// scheduled on the virtual clock according to the medium's semantics.
	// The frame belongs to the medium until the medium hands it back to the
	// station attached at src (Releaser), and meanwhile nobody writes to it,
	// the sender included: a broadcast medium carries one copy of a
	// transmission and every listener hears that one.
	Send(src frame.NodeID, f *frame.Frame)
	// Faults exposes the medium's fault-injection plan.
	Faults() *FaultPlan
	// Stats exposes medium counters.
	Stats() *Stats
}

// Config carries the physical parameters shared by all media, defaulting to
// the paper's measured environment (Fig 5.2).
type Config struct {
	// BitsPerSecond is the raw bandwidth. Paper: 10 megabits/second.
	BitsPerSecond int64
	// InterframeGap is the fixed per-frame interface overhead. Paper
	// ("Ethernet interface interpacket delay"): 1.6 ms.
	InterframeGap simtime.Time
	// SlotTime is the CSMA/CD collision window (classic 10 Mb Ethernet:
	// 51.2 µs).
	SlotTime simtime.Time
	// AckSlot is the reserved acknowledge slot of the Acknowledging
	// Ethernet and the ring's ack field fill time.
	AckSlot simtime.Time
}

// DefaultConfig returns the Fig 5.2 parameters.
func DefaultConfig() Config {
	return Config{
		BitsPerSecond: 10_000_000,
		InterframeGap: 1600 * simtime.Microsecond,
		SlotTime:      simtime.Time(51200), // 51.2 µs in ns
		AckSlot:       64 * simtime.Microsecond,
	}
}

// TxTime returns the time to clock a frame of n bytes onto the wire.
func (c Config) TxTime(n int) simtime.Time {
	return simtime.Time(int64(n) * 8 * int64(simtime.Second) / c.BitsPerSecond)
}

// FrameTime is gap + transmission time, the full channel occupancy.
func (c Config) FrameTime(n int) simtime.Time {
	return c.InterframeGap + c.TxTime(n)
}

// FaultPlan injects deterministic or seeded-random faults into a medium.
// The zero value injects nothing.
type FaultPlan struct {
	// LossProb drops a completed frame before any delivery (noise on the
	// wire). Dropped frames are also unseen by taps.
	LossProb float64
	// TapMissProb makes a tap fail to store a heard frame — the "recorder
	// received incorrectly" case that publish-before-use must handle.
	TapMissProb float64
	// ReceiverMissProb makes one receiving station fail to accept a frame
	// even though it was on the wire (local interface error); the transport
	// retransmission recovers it.
	ReceiverMissProb float64
	// CorruptProb invalidates a frame's checksum at transmission time —
	// wire noise the link layer catches (§4.3.3). A corrupt frame is
	// discarded by every listener, tap included, so it behaves like loss
	// but exercises the checksum-discard path and its counters.
	CorruptProb float64
	// DupProb delivers a completed frame to its receivers a second time
	// (a reflected or re-acknowledged transmission); the transport layer's
	// duplicate suppression must absorb it.
	DupProb float64
	// AckSlotErrProb corrupts the recorder's acknowledgement indication
	// (the §6.1.1 ack slot / §6.1.2 ack field) after the recorder HAS
	// stored the frame: receivers see no valid recorder ack and discard,
	// the sender retransmits, and the recorder's duplicate detection must
	// recognize the resend.
	AckSlotErrProb float64

	down      map[frame.NodeID]bool
	partition map[frame.NodeID]int
	// linkLoss drops frames on one directed (src, dst) station pair only —
	// a bad cable segment between two particular nodes.
	linkLoss map[[2]frame.NodeID]float64
	// nDown counts entries of down that are currently true, so the no-fault
	// delivery fast path can establish "nobody is down" without a map scan.
	nDown int
}

// deliveryClean reports whether per-receiver delivery can skip all fault
// machinery: no node down, no partition ever configured (Heal resets it),
// and no per-receiver probability draws armed. In that state every attached
// station other than the sender hears every completed frame, in the same
// order the faulted path would deliver, with no RNG consumption — so the
// fast path below is byte-identical to the slow one in every fingerprinted
// observable.
func (p *FaultPlan) deliveryClean() bool {
	return p.nDown == 0 && p.partition == nil && len(p.linkLoss) == 0 &&
		p.ReceiverMissProb == 0 && p.DupProb == 0
}

// SetLinkLoss makes the directed link from src to dst lose frames with
// probability p (0 removes the entry). Loss applies at delivery to dst only;
// other receivers of a broadcast and the taps still hear the frame.
func (p *FaultPlan) SetLinkLoss(src, dst frame.NodeID, prob float64) {
	if p.linkLoss == nil {
		p.linkLoss = make(map[[2]frame.NodeID]float64)
	}
	if prob <= 0 {
		delete(p.linkLoss, [2]frame.NodeID{src, dst})
		return
	}
	p.linkLoss[[2]frame.NodeID{src, dst}] = prob
}

// linkLossProb returns the injected loss probability of the src->dst link.
func (p *FaultPlan) linkLossProb(src, dst frame.NodeID) float64 {
	if p.linkLoss == nil {
		return 0
	}
	return p.linkLoss[[2]frame.NodeID{src, dst}]
}

// SetDown marks a node's network interface up or down. A down node neither
// sends nor receives; its watchdog will eventually notice (§3.3.2).
func (p *FaultPlan) SetDown(id frame.NodeID, down bool) {
	if p.down == nil {
		p.down = make(map[frame.NodeID]bool)
	}
	if p.down[id] != down {
		if down {
			p.nDown++
		} else {
			p.nDown--
		}
	}
	p.down[id] = down
}

// Down reports whether a node is down.
func (p *FaultPlan) Down(id frame.NodeID) bool { return p.down[id] }

// SetPartition assigns node id to partition group g. Nodes in different
// groups cannot hear each other (§3.6). Group 0 is the default group.
func (p *FaultPlan) SetPartition(id frame.NodeID, g int) {
	if p.partition == nil {
		p.partition = make(map[frame.NodeID]int)
	}
	p.partition[id] = g
}

// Heal removes all partitions.
func (p *FaultPlan) Heal() { p.partition = nil }

// group returns the partition group of a node.
func (p *FaultPlan) group(id frame.NodeID) int { return p.partition[id] }

// reachable reports whether b can hear a transmission from a. With no node
// down and no partition set, everyone hears everyone, and no map is read.
func (p *FaultPlan) reachable(a, b frame.NodeID) bool {
	if p.nDown == 0 && p.partition == nil {
		return true
	}
	return !p.Down(b) && p.group(a) == p.group(b)
}

// Stats counts medium-level activity.
type Stats struct {
	FramesSent      uint64
	FramesDelivered uint64
	FramesLost      uint64
	Collisions      uint64
	Backoffs        uint64 // binary-exponential-backoff waits entered
	TapMisses       uint64
	RecorderBlocks  uint64 // frames receivers discarded for lack of recorder ack
	FramesCorrupted uint64 // checksums invalidated by injected wire noise
	FramesDuped     uint64 // extra deliveries injected by DupProb
	AckSlotErrs     uint64 // stored-but-unacknowledged flips from AckSlotErrProb
	LinkDrops       uint64 // frames lost to a per-link fault (SetLinkLoss)
	BytesOnWire     uint64
	BusyTime        simtime.Time
}

func (s *Stats) String() string {
	return fmt.Sprintf("sent=%d delivered=%d lost=%d collisions=%d backoffs=%d tapMiss=%d recBlock=%d corrupt=%d duped=%d ackErr=%d linkDrop=%d bytes=%d busy=%v",
		s.FramesSent, s.FramesDelivered, s.FramesLost, s.Collisions, s.Backoffs, s.TapMisses, s.RecorderBlocks,
		s.FramesCorrupted, s.FramesDuped, s.AckSlotErrs, s.LinkDrops, s.BytesOnWire, s.BusyTime)
}

// Utilization returns the fraction of the elapsed window the channel was
// busy, the quantity plotted in Figure 5.5(c).
func (s *Stats) Utilization(window simtime.Time) float64 {
	if window <= 0 {
		return 0
	}
	return float64(s.BusyTime) / float64(window)
}

// gated reports whether a frame type is subject to publish-before-use: the
// recorder must store both messages and their end-to-end acknowledgements
// (§4.4.1: "If it incorrectly receives a message or message acknowledgement,
// the recorder can block the transmission"); a lost ack would otherwise let
// a sender stop retransmitting a message whose arrival the recorder never
// learned about.
func gated(t frame.Type) bool {
	return t == frame.Guaranteed || t == frame.Ack || t == frame.Bundle
}

// base carries the plumbing every medium shares.
type base struct {
	cfg      Config
	sched    *simtime.Scheduler
	rng      *simtime.Rand
	log      *trace.Log
	stations map[frame.NodeID]Station
	// order lists attached station ids sorted ascending. Broadcast delivery
	// iterates it instead of the map: per-receiver rng draws (interface miss,
	// link loss, duplication) must happen in a fixed order or map iteration
	// would leak nondeterminism into the fault stream.
	order []frame.NodeID
	// recv caches (id, station) pairs in order's order so the per-frame
	// broadcast loop touches one dense slice instead of a map lookup per
	// receiver; byID is the same cache keyed by node id for unicast (node
	// ids are small and dense — slice indexing beats the map on the hottest
	// line in the simulator). Attach invalidates both.
	recv     []recvEntry
	byID     []Station
	recvSane bool
	taps     []tapEntry
	faults   FaultPlan
	stats    Stats
}

type recvEntry struct {
	id frame.NodeID
	s  Station
}

// refreshRecv rebuilds the delivery caches from stations/order.
func (b *base) refreshRecv() {
	b.recv = b.recv[:0]
	maxID := frame.NodeID(-1)
	for _, id := range b.order {
		b.recv = append(b.recv, recvEntry{id: id, s: b.stations[id]})
		if id > maxID {
			maxID = id
		}
	}
	if n := int(maxID) + 1; cap(b.byID) < n {
		b.byID = make([]Station, n)
	} else {
		b.byID = b.byID[:n]
		for i := range b.byID {
			b.byID[i] = nil
		}
	}
	for _, e := range b.recv {
		b.byID[e.id] = e.s
	}
	b.recvSane = true
}

// releaser returns the station attached at id if it takes its sent frames
// back, or nil. Media look it up at Send, so a station re-attached while
// its frame is in flight does not get the old one's frame.
func (b *base) releaser(id frame.NodeID) Releaser {
	s, _ := b.station(id)
	r, _ := s.(Releaser)
	return r
}

// release hands a frame the medium is done with back to its sender.
func release(r Releaser, f *frame.Frame) {
	if r != nil {
		r.Release(f)
	}
}

// station resolves a unicast destination through the dense cache.
func (b *base) station(id frame.NodeID) (Station, bool) {
	if !b.recvSane {
		b.refreshRecv()
	}
	if int(id) >= len(b.byID) || id < 0 {
		return nil, false
	}
	s := b.byID[id]
	return s, s != nil
}

type tapEntry struct {
	id  frame.NodeID
	tap Tap
}

func newBase(cfg Config, sched *simtime.Scheduler, rng *simtime.Rand, log *trace.Log) base {
	return base{
		cfg:      cfg,
		sched:    sched,
		rng:      rng,
		log:      log,
		stations: make(map[frame.NodeID]Station),
	}
}

func (b *base) Attach(id frame.NodeID, s Station) {
	if _, known := b.stations[id]; !known {
		i := 0
		for i < len(b.order) && b.order[i] < id {
			i++
		}
		b.order = append(b.order, 0)
		copy(b.order[i+1:], b.order[i:])
		b.order[i] = id
	}
	b.stations[id] = s
	b.recvSane = false
}

func (b *base) AttachTap(id frame.NodeID, t Tap) {
	for i, e := range b.taps {
		if e.id == id {
			b.taps[i].tap = t
			return
		}
	}
	b.taps = append(b.taps, tapEntry{id: id, tap: t})
}

func (b *base) Faults() *FaultPlan { return &b.faults }
func (b *base) Stats() *Stats      { return &b.stats }

// UseMetrics exposes the medium's counters through reg under subsystem
// "lan" (node -1: the medium is not any one node's). Every concrete medium
// inherits it; callers reach it through a type assertion so the Medium
// interface stays minimal.
func (b *base) UseMetrics(reg *metrics.Registry) { reg.AddStats(-1, "lan", &b.stats) }

// offerToTaps lets every reachable tap observe the frame and reports
// whether all reachable voting taps stored it and at least one voting tap is
// reachable. Down or partitioned-away taps are excused — with multiple
// recorders the survivors supply the missing acknowledgements (§6.3); with a
// single recorder down, nothing is reachable and the frame blocks. With no
// taps attached at all it returns true (publishing disabled; nothing to wait
// for).
//
// Sharded recorders attach as VotingTaps and abstain on frames outside
// their shards: an abstaining tap still hears the frame (it may carry
// piggybacked acks for streams it does own) but its verdict neither blocks
// nor satisfies the publish gate — availability of a stream is a property of
// its shard's replicas. A tap-miss fault hit is charged before the vote is
// known (same rng draw order as the classic path) and conservatively counts
// as a voting failure.
func (b *base) offerToTaps(src frame.NodeID, f *frame.Frame) bool {
	if len(b.taps) == 0 {
		return true
	}
	anyVoter := false
	allStored := true
	for _, e := range b.taps {
		if !b.faults.reachable(src, e.id) {
			continue
		}
		if b.faults.TapMissProb > 0 && b.rng.Bool(b.faults.TapMissProb) {
			b.stats.TapMisses++
			anyVoter = true
			allStored = false
			continue
		}
		if vt, ok := e.tap.(VotingTap); ok {
			stored, voting := vt.ObserveVote(f)
			if !voting {
				continue
			}
			anyVoter = true
			if !stored {
				b.stats.TapMisses++
				allStored = false
			}
			continue
		}
		anyVoter = true
		if !e.tap.Observe(f) {
			b.stats.TapMisses++
			allStored = false
		}
	}
	ok := anyVoter && allStored
	// Ack-slot interference: the recorder stored the frame, but the slot
	// carrying its acknowledgement is garbled, so receivers must treat the
	// frame as unpublished. The retransmit lands on the recorder's duplicate
	// detection (the tap stores stay — only the verdict flips).
	if ok && b.faults.AckSlotErrProb > 0 && b.rng.Bool(b.faults.AckSlotErrProb) {
		b.stats.AckSlotErrs++
		ok = false
	}
	return ok
}

// maybeCorrupt applies CorruptProb to the sent frame at transmission time,
// before any listener sees it: a hit invalidates the checksum so every
// listener (taps included) discards the frame through the medium's existing
// corrupt-frame path. It is the medium's one write to a frame, and it lands
// inside Send, where the frame has just become the medium's.
func (b *base) maybeCorrupt(f *frame.Frame) {
	if b.faults.CorruptProb > 0 && b.rng.Bool(b.faults.CorruptProb) {
		f.Corrupt = true
		b.stats.FramesCorrupted++
	}
}

// deliver hands the frame to its destination station(s). Every receiver
// gets the same read-only frame (Station contract). Media that gate on the
// recorder call it only after a positive tap verdict.
//
// The common case — no per-receiver faults armed — takes a precomputed
// path: broadcast walks the cached receiver slice (no map lookups, no RNG
// draws), unicast is a dense-slice index. Both consume zero RNG and bump the
// same counters the faulted path would, so fingerprints cannot tell them
// apart. Any armed fault falls back to the per-receiver loop, whose draw
// order is part of the determinism contract.
func (b *base) deliver(src frame.NodeID, f *frame.Frame) {
	if !b.recvSane {
		b.refreshRecv()
	}
	clean := b.faults.deliveryClean()
	if f.Dst == frame.Broadcast {
		if clean {
			n := uint64(0)
			for i := range b.recv {
				if b.recv[i].id == src {
					continue
				}
				b.recv[i].s.Receive(f)
				n++
			}
			b.stats.FramesDelivered += n
			return
		}
		for _, id := range b.order {
			if id == src || !b.faults.reachable(src, id) {
				continue
			}
			b.deliverTo(src, id, b.stations[id], f)
		}
		return
	}
	s, ok := b.station(f.Dst)
	if !ok {
		return
	}
	if clean {
		b.stats.FramesDelivered++
		s.Receive(f)
		return
	}
	if !b.faults.reachable(src, f.Dst) {
		return
	}
	b.deliverTo(src, f.Dst, s, f)
}

// deliverTo hands one receiver the frame under armed per-receiver faults:
// interface miss, per-link loss, and injected duplication.
func (b *base) deliverTo(src, dst frame.NodeID, s Station, f *frame.Frame) {
	if b.faults.ReceiverMissProb > 0 && b.rng.Bool(b.faults.ReceiverMissProb) {
		return
	}
	if p := b.faults.linkLossProb(src, dst); p > 0 && b.rng.Bool(p) {
		b.stats.LinkDrops++
		return
	}
	b.stats.FramesDelivered++
	s.Receive(f)
	// Injected duplication: the same wire transmission is handed up twice
	// (a reflected frame); transport duplicate suppression must absorb it.
	if b.faults.DupProb > 0 && b.rng.Bool(b.faults.DupProb) {
		b.stats.FramesDuped++
		s.Receive(f)
	}
}

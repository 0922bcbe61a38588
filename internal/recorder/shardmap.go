package recorder

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"publishing/internal/frame"
)

// ShardMap is the deterministic, seed-stable assignment of process streams
// to recorders. Streams hash into a fixed number of shard slots; each slot
// has an ordered list of replica recorders, chosen and ranked by rendezvous
// (highest random weight) hashing. The first replica is the slot's leader;
// the rest stand behind it in order, and a replica acts for the slot once
// every replica ahead of it is silent (Recorder.ActsFor). A one-slot map
// lists every recorder as a replica: that is §6.3's "all recorders record
// all messages", and the weight order is every node's priority vector over
// the recorders. A map of more than one slot keeps each slot's top two.
// Rendezvous hashing gives the rebalance property the shard-map tests pin:
// adding recorder R to the set changes a slot's leader only when R itself
// wins it, so the only streams that move are the ones the new recorder takes
// over — nothing shuffles between survivors.
//
// The map is immutable after construction and shared read-only by every
// recorder in a cluster; same seed + same recorder count ⇒ byte-identical
// ownership (asserted by TestShardMapDeterminism).
type ShardMap struct {
	seed     uint64
	slots    int
	recs     int
	replicas [][]int // per slot: replica ranks, highest weight first
}

// Salts separating the slot-weight, rank-weight, and stream-hash domains of
// the seed so the three derived streams never collapse onto each other.
const (
	shardSlotSalt   = 0x9e3779b97f4a7c15
	shardRankSalt   = 0xd6e8feb86659fd93
	shardStreamSalt = 0xa5a5a5a55a5a5a5a
)

// mix64 is the splitmix64 finalizer: a cheap, statistically strong 64-bit
// mixer whose output is a pure function of its input — the whole map derives
// from it, so determinism reduces to arithmetic.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// shardWeight is recorder rank's rendezvous weight for a slot.
func shardWeight(seed uint64, slot, rank int) uint64 {
	return mix64(seed ^ uint64(slot)*shardSlotSalt ^ uint64(rank)*shardRankSalt)
}

// NewShardMap builds the ownership map for a cluster of recs recorders over
// slots shard slots. Ties (astronomically unlikely) break toward the lower
// rank, keeping the order independent of iteration order.
func NewShardMap(seed uint64, recs, slots int) *ShardMap {
	if recs < 1 {
		recs = 1
	}
	if slots < 1 {
		slots = 1
	}
	perSlot := min(2, recs)
	if slots == 1 {
		perSlot = recs
	}
	m := &ShardMap{seed: seed, slots: slots, recs: recs, replicas: make([][]int, slots)}
	for s := range m.replicas {
		ranks := make([]int, recs)
		for rank := range ranks {
			ranks[rank] = rank
		}
		slices.SortStableFunc(ranks, func(a, b int) int {
			return cmp.Compare(shardWeight(seed, s, b), shardWeight(seed, s, a))
		})
		m.replicas[s] = ranks[:perSlot]
	}
	return m
}

// Slots returns the shard-slot count.
func (m *ShardMap) Slots() int { return m.slots }

// Recorders returns the recorder count the map was built for.
func (m *ShardMap) Recorders() int { return m.recs }

// Seed returns the seed the map derives from.
func (m *ShardMap) Seed() uint64 { return m.seed }

// Leader returns the owning recorder rank for a slot.
func (m *ShardMap) Leader(slot int) int { return m.replicas[slot][0] }

// Follower returns the slot's second replica, or -1 when the cluster runs a
// single recorder.
func (m *ShardMap) Follower(slot int) int {
	if r := m.replicas[slot]; len(r) > 1 {
		return r[1]
	}
	return -1
}

// Replicas returns a slot's replica ranks in priority order, leader first.
// The slice is the map's own and must not be written.
func (m *ShardMap) Replicas(slot int) []int { return m.replicas[slot] }

// Replicates reports whether rank holds a copy of slot.
func (m *ShardMap) Replicates(rank, slot int) bool {
	return slices.Contains(m.replicas[slot], rank)
}

// Total reports whether every recorder replicates every slot: the map of a
// single slot, or of a single recorder. Such a map constrains nothing.
func (m *ShardMap) Total() bool { return len(m.replicas[0]) == m.recs }

// ShardOf hashes a process stream into its slot. The hash covers the full
// process identity (node and local id) so streams spread evenly even when
// every node runs the same local-id layout.
func (m *ShardMap) ShardOf(p frame.ProcID) int {
	h := mix64(m.seed ^ shardStreamSalt ^ uint64(uint32(p.Node))<<32 | uint64(p.Local))
	return int(h % uint64(m.slots))
}

// SharedSlots returns whether ranks a and b co-replicate at least one slot —
// the condition under which a restarting recorder hands off to a partner.
func (m *ShardMap) SharedSlots(a, b int) bool {
	for s := 0; s < m.slots; s++ {
		if m.Replicates(a, s) && m.Replicates(b, s) {
			return true
		}
	}
	return false
}

// Fingerprint renders the complete ownership table as text — the
// byte-comparable form the determinism test and reports use.
func (m *ShardMap) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "shardmap seed=%d recs=%d slots=%d\n", m.seed, m.recs, m.slots)
	for s := 0; s < m.slots; s++ {
		fmt.Fprintf(&b, "slot %d: replicas=%v\n", s, m.replicas[s])
	}
	return b.String()
}

// Package chaos is the fault-schedule language of the simulation tests: a
// Schedule is a seed plus timed, composable faults — process and node
// crashes, recorder outages, a crashed shard handoff, partitions, per-link
// loss, and bursts of loss, duplication, corruption, tap misses, receiver
// misses, ack-slot errors and store failures — kept in their encoded units,
// so a schedule is a value a test can encode, compare and replay. Generate
// derives one from a seed, Sanitize folds arbitrary (fuzzed) values into
// the survivable envelope Limits describes, and Minimize shrinks a failing
// one. The package drives no cluster: the root package's chaos harness
// (RunChaos) applies a schedule to its canonical scenario and checks the
// paper's guarantees once the run has settled.
package chaos

import (
	"encoding/hex"
	"fmt"
	"strings"

	"publishing/internal/frame"
	"publishing/internal/simtime"
)

// Kind enumerates fault types. The zero value is invalid so a zeroed record
// is detectable.
type Kind uint8

const (
	// KindProcCrash crashes the scenario's worker process at At.
	KindProcCrash Kind = iota + 1
	// KindNodeCrash crashes the worker's whole processor.
	KindNodeCrash
	// KindRecorderOutage crashes the primary recorder at At and restarts it
	// at At+Dur (§3.3.4: guaranteed traffic suspends meanwhile).
	KindRecorderOutage
	// KindPartition isolates the producer's or the worker's node (by A)
	// into its own partition group for Dur (§3.6), then heals it back to
	// group 0.
	KindPartition
	// KindLossBurst raises the medium's frame-loss probability for Dur.
	KindLossBurst
	// KindDupBurst raises the medium's duplicate-delivery probability.
	KindDupBurst
	// KindCorruptBurst raises the checksum-corruption probability.
	KindCorruptBurst
	// KindTapMissBurst makes the taps fail to store frames (the medium-level
	// "recorder received incorrectly" fault).
	KindTapMissBurst
	// KindRecvMissBurst raises the per-receiver interface-miss probability.
	KindRecvMissBurst
	// KindAckSlotBurst corrupts the recorder's ack slot after a successful
	// store, forcing retransmits into the recorder's duplicate detection.
	KindAckSlotBurst
	// KindStoreFailBurst raises the recorder's own store-failure probability
	// — the in-model stand-in for stable-storage write faults (the recorder
	// treats a hard store error as beyond the paper's fault model and
	// panics, so chaos injects the equivalent observable failure: the frame
	// is not stored and no ack is published).
	KindStoreFailBurst
	// KindLinkLoss drops frames on one directed link between two of the
	// scenario's stations, chosen by A and B, for Dur.
	KindLinkLoss
	// KindHandoffCrash crashes recorder A%len(recorders) at At, then at
	// At+Dur/2 arms its shard-handoff partner to crash itself mid-transfer
	// (after 1+B%3 chunks) and restarts the first victim — so the restart's
	// handoff pull dies partway through and the requester must fall back to
	// its local basis. Crashed recorders are restarted at At+Dur. On clusters
	// without at least two recorders it degrades to a recorder outage.
	KindHandoffCrash

	kindMax = KindHandoffCrash
)

var kindNames = map[Kind]string{
	KindProcCrash:      "proc-crash",
	KindNodeCrash:      "node-crash",
	KindRecorderOutage: "recorder-outage",
	KindPartition:      "partition",
	KindLossBurst:      "loss-burst",
	KindDupBurst:       "dup-burst",
	KindCorruptBurst:   "corrupt-burst",
	KindTapMissBurst:   "tapmiss-burst",
	KindRecvMissBurst:  "recvmiss-burst",
	KindAckSlotBurst:   "ackslot-burst",
	KindStoreFailBurst: "storefail-burst",
	KindLinkLoss:       "link-loss",
	KindHandoffCrash:   "handoff-crash",
}

func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// instant reports whether the kind is a point event (Dur unused).
func (k Kind) instant() bool { return k == KindProcCrash || k == KindNodeCrash }

// probCap bounds each kind's effective probability so generated and
// sanitized schedules stay survivable: retransmission and recovery must be
// able to outrun the fault (a 100% loss burst longer than the retry budget
// would make every invariant vacuous).
func probCap(k Kind) float64 {
	switch k {
	case KindLossBurst, KindCorruptBurst, KindRecvMissBurst:
		return 0.25
	case KindTapMissBurst, KindAckSlotBurst, KindStoreFailBurst:
		return 0.3
	case KindDupBurst, KindLinkLoss:
		return 0.5
	default:
		return 0
	}
}

// maxDurMs bounds each kind's duration. Outages and partitions must end well
// inside the watchdog's silence tolerance so the scenario's witness and
// producer nodes are never falsely declared crashed (a witness re-execution
// would legitimately duplicate its external output — see ROADMAP open
// items).
func maxDurMs(k Kind) uint32 {
	switch k {
	case KindRecorderOutage, KindHandoffCrash:
		return 2500
	case KindPartition:
		return 2000
	default:
		return 3000
	}
}

// Fault is one scheduled fault. Fields are kept in their encoded units
// (milliseconds, scaled probability bytes) so Encode/Decode round-trip
// exactly and fuzzers mutate the same representation tests minimize.
type Fault struct {
	Kind  Kind
	AtMs  uint32 // fault start, ms after schedule start
	DurMs uint32 // duration for non-instant kinds, ms
	A, B  uint8  // kind-specific operands (target indices)
	Prob  uint8  // scaled probability: effective = Prob/255 * probCap(Kind)
}

// At returns the fault's start offset in virtual time.
func (f Fault) At() simtime.Time { return simtime.Time(f.AtMs) * simtime.Millisecond }

// Dur returns the fault's duration (zero for instant kinds).
func (f Fault) Dur() simtime.Time {
	if f.Kind.instant() {
		return 0
	}
	return simtime.Time(f.DurMs) * simtime.Millisecond
}

// EffProb returns the effective injection probability.
func (f Fault) EffProb() float64 { return float64(f.Prob) / 255 * probCap(f.Kind) }

func (f Fault) String() string {
	switch {
	case f.Kind.instant():
		return fmt.Sprintf("%s at=%dms a=%d", f.Kind, f.AtMs, f.A)
	case f.Kind == KindRecorderOutage:
		return fmt.Sprintf("%s at=%dms dur=%dms", f.Kind, f.AtMs, f.DurMs)
	case f.Kind == KindHandoffCrash:
		return fmt.Sprintf("%s at=%dms dur=%dms a=%d b=%d", f.Kind, f.AtMs, f.DurMs, f.A, f.B)
	case f.Kind == KindPartition:
		return fmt.Sprintf("%s at=%dms dur=%dms a=%d", f.Kind, f.AtMs, f.DurMs, f.A)
	case f.Kind == KindLinkLoss:
		return fmt.Sprintf("%s at=%dms dur=%dms a=%d b=%d p=%.3f", f.Kind, f.AtMs, f.DurMs, f.A, f.B, f.EffProb())
	default:
		return fmt.Sprintf("%s at=%dms dur=%dms p=%.3f", f.Kind, f.AtMs, f.DurMs, f.EffProb())
	}
}

// Schedule is a seed plus its timed faults. The seed drives the cluster's
// randomness; the faults are applied on the virtual clock, so one Schedule
// fully determines an execution.
type Schedule struct {
	Seed   uint64
	Faults []Fault
}

func (s Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d faults=%d", s.Seed, len(s.Faults))
	for _, f := range s.Faults {
		b.WriteString("\n  ")
		b.WriteString(f.String())
	}
	return b.String()
}

// faultLen is a fault record's encoded size.
const faultLen = 1 + 4 + 4 + 1 + 1 + 1

// codeFault codes one fault record in wire mode:
//
//	kind u8, at u32, dur u32, a u8, b u8, prob u8
//
// A decoder takes only a known kind.
func codeFault(c *frame.Coder, f *Fault) {
	if frame.Uint(c, &f.Kind); f.Kind == 0 || f.Kind > kindMax {
		c.Fail()
	}
	frame.Uint(c, &f.AtMs)
	frame.Uint(c, &f.DurMs)
	frame.Uint(c, &f.A)
	frame.Uint(c, &f.B)
	frame.Uint(c, &f.Prob)
}

// codeSchedule codes a schedule in wire mode: its seed u64, then its fault
// records to the end, with no count. The format is the fuzzing surface of
// FuzzChaosSchedule.
func codeSchedule(c *frame.Coder, s *Schedule) {
	frame.Uint(c, &s.Seed)
	frame.Tail(c, &s.Faults, faultLen)
	for i := range s.Faults {
		codeFault(c, &s.Faults[i])
	}
}

// Encode serializes the schedule (codeSchedule).
func (s Schedule) Encode() []byte {
	return frame.AppendWire(make([]byte, 0, 8+faultLen*len(s.Faults)), &s, codeSchedule)
}

// Hex returns the encoded schedule as a hex string — the one-line reproducer
// token printed on failures (see DecodeHex).
func (s Schedule) Hex() string { return hex.EncodeToString(s.Encode()) }

// Decode parses an encoded schedule, strictly: truncated input, trailing
// bytes, and unknown kinds are errors (Sanitize, not Decode, makes arbitrary
// values survivable).
func Decode(b []byte) (Schedule, error) {
	var s Schedule
	if err := frame.DecodeWire(b, &s, codeSchedule); err != nil {
		return Schedule{}, fmt.Errorf("chaos: schedule: %w", err)
	}
	return s, nil
}

// DecodeHex parses the reproducer token printed by a failing run.
func DecodeHex(s string) (Schedule, error) {
	b, err := hex.DecodeString(strings.TrimSpace(s))
	if err != nil {
		return Schedule{}, fmt.Errorf("chaos: bad hex schedule: %w", err)
	}
	return Decode(b)
}

// Limits bounds schedule generation and sanitization.
type Limits struct {
	// WindowMs is the fault window: every fault starts and ends within
	// [0, WindowMs]. It must stay well below the watchdog silence tolerance
	// of the scenario so bursts never falsely kill an untargeted node.
	WindowMs uint32
	// MaxFaults caps the faults per generated schedule (>= 1).
	MaxFaults int
}

// DefaultLimits matches the canonical chaos scenario (watchdog tolerance
// 10 s; see the root package's ChaosScenario).
func DefaultLimits() Limits { return Limits{WindowMs: 8000, MaxFaults: 8} }

// normLimits fills defaults and enforces the smallest window the envelope
// arithmetic supports (a window under a second could not fit the minimum
// 200 ms burst plus its margins).
func normLimits(lim Limits) Limits {
	if lim.WindowMs == 0 {
		lim = DefaultLimits()
	}
	if lim.WindowMs < 1000 {
		lim.WindowMs = 1000
	}
	if lim.MaxFaults < 1 {
		lim.MaxFaults = 1
	}
	return lim
}

// Sanitize clamps an arbitrary (decoded, possibly fuzzer-mutated) schedule
// into the survivable envelope: every fault starts inside the window, ends
// inside it too, and keeps its kind's duration bound. Values are folded with
// modulo rather than saturated so fuzz inputs keep their diversity. The
// result always passes Validate.
func Sanitize(s Schedule, lim Limits) Schedule {
	lim = normLimits(lim)
	out := Schedule{Seed: s.Seed, Faults: make([]Fault, 0, len(s.Faults))}
	for _, f := range s.Faults {
		if f.Kind == 0 || f.Kind > kindMax {
			continue
		}
		if !f.Kind.instant() {
			max := maxDurMs(f.Kind)
			f.DurMs = 200 + f.DurMs%(max-200+1)
		} else {
			f.DurMs = 0
		}
		span := f.DurMs
		if span+100 >= lim.WindowMs {
			span = lim.WindowMs - 100 - 1
			f.DurMs = span
		}
		f.AtMs = 100 + f.AtMs%(lim.WindowMs-span-100)
		out.Faults = append(out.Faults, f)
	}
	if len(out.Faults) == 0 {
		out.Faults = nil // canonical empty form, so Decode∘Encode is identity
	}
	return out
}

// Validate reports whether every fault respects the envelope Sanitize
// establishes; Generate and Sanitize outputs must always pass.
func Validate(s Schedule, lim Limits) error {
	lim = normLimits(lim)
	for i, f := range s.Faults {
		if f.Kind == 0 || f.Kind > kindMax {
			return fmt.Errorf("chaos: fault %d: invalid kind %d", i, f.Kind)
		}
		if f.Kind.instant() && f.DurMs != 0 {
			return fmt.Errorf("chaos: fault %d (%s): instant kind with duration", i, f.Kind)
		}
		if !f.Kind.instant() && (f.DurMs < 200 || f.DurMs > maxDurMs(f.Kind)) {
			return fmt.Errorf("chaos: fault %d (%s): duration %dms outside [200, %d]", i, f.Kind, f.DurMs, maxDurMs(f.Kind))
		}
		if f.AtMs < 100 || f.AtMs+f.DurMs >= lim.WindowMs {
			return fmt.Errorf("chaos: fault %d (%s): [%d, %d]ms outside fault window [100, %d)", i, f.Kind, f.AtMs, f.AtMs+f.DurMs, lim.WindowMs)
		}
	}
	return nil
}

// Generate derives a schedule from a seed: every seed is a new adversary,
// and the same seed always yields the same schedule. The output passes
// Validate for the same limits.
func Generate(seed uint64, lim Limits) Schedule {
	lim = normLimits(lim)
	// The generator's stream is separate from the cluster's (the cluster
	// forks its own from the same seed), but derive it from the seed so a
	// schedule is one number to report.
	rng := simtime.NewRand(seed ^ 0xc4a05ce5)
	n := 1 + rng.Intn(lim.MaxFaults)
	s := Schedule{Seed: seed, Faults: make([]Fault, 0, n)}
	outages := 0
	for i := 0; i < n; i++ {
		f := Fault{
			Kind: Kind(1 + rng.Intn(int(kindMax))),
			A:    uint8(rng.Intn(256)),
			B:    uint8(rng.Intn(256)),
			Prob: uint8(64 + rng.Intn(192)), // strong enough to matter
		}
		if f.Kind == KindRecorderOutage || f.Kind == KindHandoffCrash {
			// At most two recorder-downing faults per schedule: each suspends
			// guaranteed traffic (all of it, or its shards') for its whole
			// duration, and stacking many makes the run boringly serial
			// rather than adversarial.
			if outages >= 2 {
				f.Kind = KindLossBurst
			} else {
				outages++
			}
		}
		if !f.Kind.instant() {
			f.DurMs = uint32(rng.Intn(int(maxDurMs(f.Kind))))
		}
		f.AtMs = uint32(rng.Intn(int(lim.WindowMs)))
		s.Faults = append(s.Faults, f)
	}
	return Sanitize(s, lim)
}

// Minimize greedily shrinks a failing schedule: it repeatedly drops any
// fault whose removal keeps stillFails true, until no single removal does.
// The result is the reproducer printed alongside the seed. stillFails is
// re-run O(n²) times worst case; chaos runs are virtual-time cheap.
func Minimize(s Schedule, stillFails func(Schedule) bool) Schedule {
	for {
		shrunk := false
		for i := 0; i < len(s.Faults); i++ {
			cand := Schedule{Seed: s.Seed, Faults: make([]Fault, 0, len(s.Faults)-1)}
			cand.Faults = append(cand.Faults, s.Faults[:i]...)
			cand.Faults = append(cand.Faults, s.Faults[i+1:]...)
			if stillFails(cand) {
				s = cand
				shrunk = true
				break
			}
		}
		if !shrunk {
			return s
		}
	}
}

package chaos

import (
	"publishing/internal/demos"
	"publishing/internal/frame"
	"publishing/internal/lan"
	"publishing/internal/metrics"
	"publishing/internal/monitor"
	"publishing/internal/recorder"
	"publishing/internal/simtime"
	"publishing/internal/trace"
)

// System is the slice of a cluster the chaos harness drives. The root
// package's *publishing.Cluster satisfies it structurally, so chaos never
// imports publishing (which would cycle through the root test suite).
type System interface {
	Scheduler() *simtime.Scheduler
	Medium() lan.Medium
	Trace() *trace.Log
	Metrics() *metrics.Registry
	// Monitor is the online invariant monitor; Check reads the exactly-once
	// verdict from it.
	Monitor() *monitor.Monitor
	Kernel(n frame.NodeID) *demos.Kernel
	Nodes() []frame.NodeID
	RecorderAt(i int) *recorder.Recorder
	CrashProcess(p frame.ProcID)
	CrashNode(n frame.NodeID)
	CrashRecorderAt(i int)
	RestartRecorderAt(i int) error
	Run(d simtime.Time)
	RunUntil(pred func() bool, max simtime.Time) bool
	Now() simtime.Time
	// Close releases the system's process goroutines once a run is over.
	Close()
}

// Targets maps a schedule's abstract operands onto one scenario's concrete
// victims. Fault operands are indices reduced modulo these slices, so any
// byte value (fuzzed included) resolves to a legal target. Nodes whose
// external effects cannot be replay-deduplicated (the scenario's witness)
// are simply left out of the crash/partition lists.
type Targets struct {
	// Worker is the KindProcCrash victim.
	Worker frame.ProcID
	// CrashNodes are KindNodeCrash candidates.
	CrashNodes []frame.NodeID
	// PartNodes are KindPartition candidates.
	PartNodes []frame.NodeID
	// LinkNodes are KindLinkLoss endpoint candidates.
	LinkNodes []frame.NodeID
}

func pick(ids []frame.NodeID, idx uint8) (frame.NodeID, bool) {
	if len(ids) == 0 {
		return 0, false
	}
	return ids[int(idx)%len(ids)], true
}

// Apply schedules every fault of s onto sys's virtual clock, offset from the
// current instant. Burst faults set an injection knob at At and restore it
// at At+Dur; overlapping bursts of the same kind resolve last-writer-wins,
// which is deterministic under the simulation scheduler's stable event
// order. Recorder outages are guarded so overlapping outages cannot
// double-crash or double-restart.
func Apply(sys System, s Schedule, tg Targets) {
	start := sys.Scheduler().Now()
	for i, f := range s.Faults {
		f := f
		at := start + f.At()
		end := at + f.Dur()
		switch f.Kind {
		case KindProcCrash:
			sys.Scheduler().At(at, func() { sys.CrashProcess(tg.Worker) })
		case KindNodeCrash:
			if n, ok := pick(tg.CrashNodes, f.A); ok {
				sys.Scheduler().At(at, func() { sys.CrashNode(n) })
			}
		case KindRecorderOutage:
			sys.Scheduler().At(at, func() {
				if r := sys.RecorderAt(0); r != nil && !r.Crashed() {
					sys.CrashRecorderAt(0)
				}
			})
			sys.Scheduler().At(end, func() {
				if r := sys.RecorderAt(0); r != nil && r.Crashed() {
					_ = sys.RestartRecorderAt(0)
				}
			})
		case KindHandoffCrash:
			nRecs := 0
			for sys.RecorderAt(nRecs) != nil {
				nRecs++
			}
			if nRecs < 2 {
				// Degenerate cluster: behave like a recorder outage so the
				// fault still exercises something on classic scenarios.
				sys.Scheduler().At(at, func() {
					if r := sys.RecorderAt(0); r != nil && !r.Crashed() {
						sys.CrashRecorderAt(0)
					}
				})
				sys.Scheduler().At(end, func() {
					if r := sys.RecorderAt(0); r != nil && r.Crashed() {
						_ = sys.RestartRecorderAt(0)
					}
				})
				break
			}
			victim := int(f.A) % nRecs
			partner := (victim + 1) % nRecs
			chunks := 1 + int(f.B)%3
			sys.Scheduler().At(at, func() {
				if r := sys.RecorderAt(victim); r != nil && !r.Crashed() {
					sys.CrashRecorderAt(victim)
				}
			})
			// Halfway through, arm the surviving partner to kill itself a few
			// chunks into serving the victim's catch-up handoff, then restart
			// the victim so that handoff actually starts.
			sys.Scheduler().At(at+f.Dur()/2, func() {
				if r := sys.RecorderAt(partner); r != nil && !r.Crashed() {
					r.ArmHandoffCrash(chunks)
				}
				if r := sys.RecorderAt(victim); r != nil && r.Crashed() {
					_ = sys.RestartRecorderAt(victim)
				}
			})
			sys.Scheduler().At(end, func() {
				for i := 0; i < nRecs; i++ {
					if r := sys.RecorderAt(i); r != nil && r.Crashed() {
						_ = sys.RestartRecorderAt(i)
					}
				}
			})
		case KindPartition:
			if n, ok := pick(tg.PartNodes, f.A); ok {
				group := 1 + i // distinct per fault so overlaps stay separate
				sys.Scheduler().At(at, func() { sys.Medium().Faults().SetPartition(n, group) })
				sys.Scheduler().At(end, func() { sys.Medium().Faults().SetPartition(n, 0) })
			}
		case KindLinkLoss:
			src, okA := pick(tg.LinkNodes, f.A)
			dst, okB := pick(tg.LinkNodes, f.B)
			if okA && okB && src != dst {
				p := f.EffProb()
				sys.Scheduler().At(at, func() { sys.Medium().Faults().SetLinkLoss(src, dst, p) })
				sys.Scheduler().At(end, func() { sys.Medium().Faults().SetLinkLoss(src, dst, 0) })
			}
		case KindStoreFailBurst:
			p := f.EffProb()
			sys.Scheduler().At(at, func() {
				if r := sys.RecorderAt(0); r != nil {
					r.SetStoreFailProb(p)
				}
			})
			sys.Scheduler().At(end, func() {
				if r := sys.RecorderAt(0); r != nil {
					r.SetStoreFailProb(0)
				}
			})
		default:
			if knob := probKnob(sys.Medium().Faults(), f.Kind); knob != nil {
				p := f.EffProb()
				sys.Scheduler().At(at, func() { *knob = p })
				sys.Scheduler().At(end, func() { *knob = 0 })
			}
		}
	}
}

// probKnob maps a burst kind to its FaultPlan field.
func probKnob(fp *lan.FaultPlan, k Kind) *float64 {
	switch k {
	case KindLossBurst:
		return &fp.LossProb
	case KindDupBurst:
		return &fp.DupProb
	case KindCorruptBurst:
		return &fp.CorruptProb
	case KindTapMissBurst:
		return &fp.TapMissProb
	case KindRecvMissBurst:
		return &fp.ReceiverMissProb
	case KindAckSlotBurst:
		return &fp.AckSlotErrProb
	default:
		return nil
	}
}

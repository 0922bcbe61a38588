package publishing

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"publishing/internal/chaos"
	"publishing/internal/monitor"
	"publishing/internal/recorder"
	"publishing/internal/simtime"
	"publishing/internal/trace"
)

// chaosOutcome is what a run of the chaos pipeline produced, or its Model.
type chaosOutcome struct {
	// Done reports whether the pipeline completed by the time the run
	// settled.
	Done bool
	// Output is the witness's transcript.
	Output []string
	// State is the worker's encoded final state.
	State []byte
	// Unsettled is what SettleChaos found still moving when it gave up (nil
	// when the run settled).
	Unsettled []string
}

// ChaosViolation is one failed invariant.
type ChaosViolation struct {
	Invariant string
	Detail    string
}

func (v ChaosViolation) String() string { return v.Invariant + ": " + v.Detail }

// ChaosResult is one chaos run's verdict: its violations plus a
// deterministic text report. Two runs of the same options and schedule
// produce byte-identical reports — that property is itself asserted by the
// chaos tests.
type ChaosResult struct {
	Schedule   chaos.Schedule
	Violations []ChaosViolation
	Report     string
	// Artifacts is the directory post-mortem artifacts were dumped into
	// ("" when the run passed, RunChaos was given no artifact directory or
	// the dump failed, which the report's last line then says).
	Artifacts string
}

// Passed reports whether every invariant held.
func (r ChaosResult) Passed() bool { return len(r.Violations) == 0 }

// capList joins up to max items for a report line.
func capList(items []string, max int) string {
	if len(items) <= max {
		return strings.Join(items, ", ")
	}
	return strings.Join(items[:max], ", ") + fmt.Sprintf(", … (%d total)", len(items))
}

// checkChaos asserts the system-wide invariants once a run has settled.
// faulted is the outcome of the run s was applied to (on c); model is its
// PipelineRun.Model, which the report calls the baseline.
//
// Invariants (the paper's §5 claims, made executable):
//
//	I1 exactly-once — the online monitor's verdict (internal/monitor): no
//	   message was queued more often than once, plus once per recovery
//	   replay, plus once per crash that voided a copy its stream never
//	   published. The monitor's other invariants are reported as online-*.
//	I2 output-equivalence — the application output stream is byte-identical
//	   to the model's ("the computation completes exactly as if the crash
//	   had not occurred").
//	I3 state-equivalence — the recoverable process's final state snapshot
//	   is byte-identical to the model's.
//	I4 settled — SettleChaos's stop predicate held before its cap (see
//	   unsettled), so a run that never settles is a violation naming what
//	   still moves, not a silent pass.
//	I5 recovery-completion — every recovery that started also completed.
//	I7 bounded-recovery — undisturbed recoveries respect the checkpoint
//	   policy's time bound (only checked when opt arms one).
//	I8 replay-basis-union — the recorders' shards together are a complete
//	   replay basis.
func checkChaos(c *Cluster, opt ChaosOptions, s chaos.Schedule, faulted, model chaosOutcome) ChaosResult {
	res := ChaosResult{Schedule: s}
	var b strings.Builder
	violate := func(invariant, format string, args ...any) {
		v := ChaosViolation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)}
		res.Violations = append(res.Violations, v)
		fmt.Fprintf(&b, "%-18s VIOLATION %s\n", invariant, v.Detail)
	}
	held := 0
	ok := func(invariant, format string, args ...any) {
		held++
		fmt.Fprintf(&b, "%-18s ok %s\n", invariant, fmt.Sprintf(format, args...))
	}

	fmt.Fprintf(&b, "chaos seed=%d faults=%d schedule=%s\n", s.Seed, len(s.Faults), s.Hex())
	for _, f := range s.Faults {
		fmt.Fprintf(&b, "  %s\n", f)
	}

	// I0: the run must have finished the workload at all.
	if !faulted.Done {
		violate("completion", "workload did not complete under faults")
	} else {
		ok("completion", "%d outputs", len(faulted.Output))
	}

	// I1 exactly-once is the online monitor's verdict, flagged at the
	// violating delivery's virtual time; the rule lives in internal/monitor.
	// The monitor's other invariants (acceptance order, replay basis,
	// give-up inference, shard ownership) are violations in their own right.
	mon := c.Monitor()
	var dups []string
	var online []monitor.Violation
	for _, v := range mon.Violations() {
		switch v.Invariant {
		case monitor.InvExactlyOnce:
			dups = append(dups, v.Msg+" "+v.Detail)
		case monitor.InvReexecOutput:
			dups = append(dups, v.Msg+" "+v.Detail+", re-executed output")
		default:
			online = append(online, v)
		}
	}
	if len(dups) > 0 {
		violate("exactly-once", "%s", capList(dups, 5))
	} else {
		delivered, replayed, voided := mon.Licenses()
		ok("exactly-once", "delivered=%d replayed=%d voided=%d", delivered, replayed, voided)
	}
	for _, v := range online {
		violate("online-"+v.Invariant, "%s", v)
	}

	// I2 output-equivalence.
	if len(faulted.Output) != len(model.Output) {
		violate("output-match", "faulted run produced %d outputs, baseline %d", len(faulted.Output), len(model.Output))
	} else {
		diff := 0
		for diff < len(faulted.Output) && faulted.Output[diff] == model.Output[diff] {
			diff++
		}
		if diff < len(faulted.Output) {
			violate("output-match", "output[%d] = %q, baseline %q", diff, faulted.Output[diff], model.Output[diff])
		} else {
			ok("output-match", "%d outputs identical", len(faulted.Output))
		}
	}

	// I3 state-equivalence.
	if string(faulted.State) != string(model.State) {
		violate("state-match", "final state (%dB) differs from baseline (%dB)", len(faulted.State), len(model.State))
	} else {
		ok("state-match", "%dB identical", len(faulted.State))
	}

	// I4 settled: every later invariant assumes the run has settled.
	if len(faulted.Unsettled) > 0 {
		violate("settled", "not settled by %v: %s", settleCap, capList(faulted.Unsettled, 5))
	} else {
		ok("settled", "all quiet")
	}

	// I5 recovery-completion: per process, the last recovery start must be
	// followed by a recovery done.
	type recWindow struct {
		lastStart, lastDone simtime.Time
		starts, dones       int
	}
	recs := map[string]*recWindow{}
	window := func(e trace.Event) *recWindow {
		if recs[e.Subject] == nil {
			recs[e.Subject] = &recWindow{}
		}
		return recs[e.Subject]
	}
	for _, e := range c.Trace().OfKind(trace.KindRecoveryStart) {
		w := window(e)
		w.starts++
		w.lastStart = e.At
	}
	for _, e := range c.Trace().OfKind(trace.KindRecoveryDone) {
		w := window(e)
		w.dones++
		w.lastDone = e.At
	}
	subjects := slices.Sorted(maps.Keys(recs))
	recoveries := 0
	var unfinished []string
	for _, subj := range subjects {
		w := recs[subj]
		recoveries += w.starts
		if w.dones == 0 || w.lastDone < w.lastStart {
			unfinished = append(unfinished, fmt.Sprintf("%s (starts=%d dones=%d)", subj, w.starts, w.dones))
		}
	}
	if len(unfinished) > 0 {
		violate("recovery-complete", "%s", capList(unfinished, 5))
	} else {
		ok("recovery-complete", "starts=%d", recoveries)
	}

	// I7 bounded-recovery: a recovery no other fault disturbed must finish
	// within 2*bound + 1s (the same slack margin the checkpoint-policy tests
	// allow, doubled for fault-window scheduling noise). A fault disturbs the
	// recovery [rs, rd] if its active interval intersects the open window —
	// the triggering crash (at or before rs) does not.
	if bound := opt.workerBound(); bound > 0 {
		limit := 2*bound + simtime.Second
		checked, skipped := 0, 0
		var slow []string
		for _, subj := range subjects {
			w := recs[subj]
			if w.dones == 0 || w.lastDone < w.lastStart {
				continue
			}
			disturbed := false
			for _, f := range s.Faults {
				if f.At() < w.lastDone && f.At()+f.Dur() > w.lastStart {
					disturbed = true
					break
				}
			}
			if disturbed {
				skipped++
				continue
			}
			checked++
			if d := w.lastDone - w.lastStart; d > limit {
				slow = append(slow, fmt.Sprintf("%s took %v (limit %v)", subj, d, limit))
			}
		}
		if len(slow) > 0 {
			violate("bounded-recovery", "%s", capList(slow, 5))
		} else {
			ok("bounded-recovery", "checked=%d skipped=%d limit=%v", checked, skipped, limit)
		}
	}

	// I8 replay-basis-union: after quiescence, every live stream's shard
	// must have a live replica, a live replica on recovery duty, and every
	// replica on duty must hold the best basis any live replica has —
	// coverage here is the checkpointed-read count plus recorded arrivals,
	// the same total order the handoff protocol ships by. Together these say
	// the union of the shards is a complete replay basis: no recorder crash
	// (mid-handoff included) left a slot whose only competent copy is dead or
	// whose acting copy is stale.
	sm := c.ShardMap()
	procSet := map[ProcID]bool{}
	for i := range c.Recorders() {
		if r := c.RecorderAt(i); !r.Crashed() {
			for _, p := range r.KnownProcs() {
				procSet[p] = true
			}
		}
	}
	procs := slices.SortedFunc(maps.Keys(procSet), ProcID.Compare)
	var holes []string
	checked := 0
	for _, p := range procs {
		slot := sm.ShardOf(p)
		type rep struct {
			rank   int
			acting bool
			sum    recorder.BasisSummary
		}
		var reps []rep
		var maxCov uint64
		dead := false
		for _, rank := range sm.Replicas(slot) {
			r := c.RecorderAt(rank)
			if r == nil || r.Crashed() {
				continue
			}
			sum := r.Basis(p)
			if sum.Dead {
				dead = true
			}
			if sum.Cov() > maxCov {
				maxCov = sum.Cov()
			}
			reps = append(reps, rep{rank: rank, acting: r.ActsFor(slot), sum: sum})
		}
		if dead {
			continue // dead streams are not recovered, so not part of the basis
		}
		checked++
		acting := 0
		for _, r := range reps {
			if !r.acting {
				continue
			}
			acting++
			if r.sum.Cov() < maxCov {
				holes = append(holes, fmt.Sprintf("%v slot %d: acting rec%d coverage %d behind best %d",
					p, slot, r.rank, r.sum.Cov(), maxCov))
			}
		}
		switch {
		case len(reps) == 0:
			holes = append(holes, fmt.Sprintf("%v slot %d: no live replica", p, slot))
		case acting == 0:
			holes = append(holes, fmt.Sprintf("%v slot %d: no live replica on recovery duty", p, slot))
		}
	}
	if len(holes) > 0 {
		violate("replay-basis-union", "%s", capList(holes, 5))
	} else {
		ok("replay-basis-union", "streams=%d slots=%d recorders=%d", checked, sm.Slots(), c.Recorders())
	}

	// The recorders' per-sender watermarks stand in for a set of every id
	// recorded on the strength of in-order delivery. A message dropped below
	// one that such a set might have kept breaks that premise; silent unless
	// it happens, so reports read as before.
	for i := range c.Recorders() {
		if n := c.RecorderAt(i).Stats().BelowWatermark; n != 0 {
			violate("stream-order", "rec%d dropped %d acknowledged messages below a sender's watermark", i, n)
		}
	}

	if len(res.Violations) == 0 {
		fmt.Fprintf(&b, "PASS %d invariants\n", held)
	} else {
		fmt.Fprintf(&b, "FAIL %d violation(s)\n", len(res.Violations))
	}
	res.Report = b.String()
	return res
}

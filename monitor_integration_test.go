package publishing_test

// Integration coverage for the online invariant monitor (internal/monitor)
// as wired through the cluster and the chaos harness: the monitor must flag
// an injected duplicate at the virtual instant it is delivered (not after
// quiescence), its report must be a deterministic function of the seed, and
// attaching it must not perturb the simulation at all — monitor-on and
// monitor-off runs of the same seed end with byte-identical recorder
// databases.

import (
	"bytes"
	"fmt"
	"testing"

	"publishing"
	"publishing/internal/chaos"
	"publishing/internal/simtime"
	"publishing/internal/trace"
)

// dupBurstSchedule is the same deliberately-broken scenario the checker's
// own regression test uses: duplicate suppression disabled, heavy dup burst.
var dupBurstSchedule = chaos.Schedule{Seed: 424242, Faults: []chaos.Fault{
	{Kind: chaos.KindDupBurst, AtMs: 300, DurMs: 3000, Prob: 255},
}}

// TestMonitorFlagsDuplicateBeforeQuiescence is the monitor's headline
// property: with duplicate suppression broken and a dup burst injected, the
// exactly-once violation is flagged while the workload is still running —
// stamped with the virtual timestamp of the violating delivery itself — not
// discovered by the checker after the run drains.
func TestMonitorFlagsDuplicateBeforeQuiescence(t *testing.T) {
	opt := chaos.DefaultOptions()
	sc := publishing.ChaosScenario(dupBurstSchedule.Seed, publishing.ChaosOptions{BreakDupSuppression: true})
	sc.Sys.Trace().SetDetailed(true)
	chaos.Apply(sc.Sys, dupBurstSchedule, sc.Targets)
	if !sc.Sys.RunUntil(sc.Work.Done, opt.MaxRun) {
		t.Fatal("workload did not complete")
	}
	doneAt := sc.Sys.Now()

	mon := sc.Sys.(*publishing.Cluster).Monitor()
	if mon == nil {
		t.Fatal("chaos scenario did not attach the monitor")
	}
	if mon.DupViolations() == 0 {
		t.Fatalf("duplicates not flagged online by workload completion (t=%v):\n%s", doneAt, mon.Report())
	}
	v := mon.Violations()[0]
	if v.At > doneAt {
		t.Fatalf("first violation stamped t=%v, after workload completion t=%v", v.At, doneAt)
	}

	// Quiesce, then corroborate the stamp: it must be the exact virtual time
	// of one of that message's deliveries, and the post-quiescence checker
	// must reach the same verdict the monitor reached mid-run.
	sc.Sys.Run(opt.Grace)
	matched := false
	for _, e := range sc.Sys.Trace().OfKind(trace.KindDeliver) {
		if e.Msg == v.Msg && e.At == v.At {
			matched = true
			break
		}
	}
	if !matched {
		t.Fatalf("violation %s is not stamped with any delivery time of %s", v, v.Msg)
	}
	if v.At >= sc.Sys.Now() {
		t.Fatalf("violation t=%v not before quiescence t=%v", v.At, sc.Sys.Now())
	}
}

// TestMonitorReportDeterminism runs the same faulted scenario twice and
// requires byte-identical monitor reports — the online counterpart of the
// checker's deterministic-report guarantee. The seed is the ROADMAP's known
// exactly-once hole, so the property is pinned on a report that actually
// contains violations, SLO quantiles, and event counts.
func TestMonitorReportDeterminism(t *testing.T) {
	run := func() string {
		s := chaos.Generate(8, chaos.DefaultLimits())
		opt := chaos.DefaultOptions()
		sc := publishing.ChaosScenario(8, publishing.ChaosOptions{Nodes: 4})
		sc.Sys.Trace().SetDetailed(true)
		chaos.Apply(sc.Sys, s, sc.Targets)
		sc.Sys.RunUntil(sc.Work.Done, opt.MaxRun)
		sc.Sys.Run(opt.Grace)
		return sc.Sys.(*publishing.Cluster).Monitor().Report()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("monitor reports differ across identical runs:\n--- first\n%s\n--- second\n%s", a, b)
	}
}

// TestMonitorPassivity pins the monitor's no-perturbation contract: a
// monitored run (tracing on behind a flight-recorder ring, monitor
// subscribed, stall tick armed) and a bare run of the same seed must end
// with byte-identical recorder databases. Any hidden influence — an event
// reordered by observation, randomness drawn, state mutated — would split
// the fingerprints.
func TestMonitorPassivity(t *testing.T) {
	dump := func(monitored bool) []byte {
		s := buildSimCluster(t, 64, simClusterSeed, monitored)
		s.c.Run(s.horizon + 2*simtime.Second)
		if got, want := *s.delivered, int64(s.sent); got != want {
			t.Fatalf("monitored=%v: delivered %d of %d messages", monitored, got, want)
		}
		if monitored {
			mon := s.c.Monitor()
			if mon == nil {
				t.Fatal("monitored cluster has no monitor")
			}
			if !mon.Passed() {
				t.Fatalf("fault-free run violated online invariants:\n%s", mon.Report())
			}
		}
		recs, err := s.c.Store().ReadAll()
		if err != nil {
			t.Fatalf("recorder store: %v", err)
		}
		var buf bytes.Buffer
		for _, r := range recs {
			fmt.Fprintf(&buf, "%d %q %d %x\n", r.Kind, r.Key, r.Seq, r.Data)
		}
		return buf.Bytes()
	}
	on, off := dump(true), dump(false)
	if !bytes.Equal(on, off) {
		t.Fatalf("recorder databases differ between monitored and bare runs (%d vs %d bytes)", len(on), len(off))
	}
}

// TestMonitorPassivitySharded re-pins the no-perturbation contract on the
// sharded replicated recorder path: the 64-node scenario run on the recorder
// trio (three recorders, sixteen shard slots) with the monitor on and off
// must end with byte-identical databases on every replica. Sharding adds
// recorder-to-recorder traffic — peer arbitration, watchdog pings, handoff —
// that the classic passivity test never exercises, so observation leaking
// into any of it would split these fingerprints.
func TestMonitorPassivitySharded(t *testing.T) {
	sharded := func(cfg *publishing.Config) {
		cfg.Recorders = 3
		cfg.ShardSlots = 16
	}
	dump := func(monitored bool) []byte {
		s := buildSimCluster(t, 64, simClusterSeed, monitored, sharded)
		s.c.Run(s.horizon + 2*simtime.Second)
		if got, want := *s.delivered, int64(s.sent); got != want {
			t.Fatalf("monitored=%v: delivered %d of %d messages", monitored, got, want)
		}
		if monitored {
			mon := s.c.Monitor()
			if mon == nil {
				t.Fatal("monitored cluster has no monitor")
			}
			if !mon.Passed() {
				t.Fatalf("fault-free sharded run violated online invariants:\n%s", mon.Report())
			}
		}
		var buf bytes.Buffer
		for rank := 0; rank < s.c.Recorders(); rank++ {
			recs, err := s.c.StoreAt(rank).ReadAll()
			if err != nil {
				t.Fatalf("recorder %d store: %v", rank, err)
			}
			fmt.Fprintf(&buf, "-- recorder %d\n", rank)
			for _, r := range recs {
				fmt.Fprintf(&buf, "%d %q %d %x\n", r.Kind, r.Key, r.Seq, r.Data)
			}
		}
		return buf.Bytes()
	}
	on, off := dump(true), dump(false)
	if !bytes.Equal(on, off) {
		t.Fatalf("sharded recorder databases differ between monitored and bare runs (%d vs %d bytes)", len(on), len(off))
	}
}

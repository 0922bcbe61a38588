package publishing_test

// Integration coverage for the online invariant monitor (internal/monitor)
// as wired through the cluster and the chaos harness: the monitor must flag
// an injected duplicate at the virtual instant it is delivered (not after
// quiescence), its report must be a deterministic function of the seed, and
// attaching it must not perturb the simulation at all — monitor-on and
// monitor-off runs of the same seed end with byte-identical recorder
// databases.

import (
	"regexp"
	"slices"
	"strings"
	"testing"

	"publishing"
	"publishing/internal/chaos"
	"publishing/internal/monitor"
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
// discovered by the checker after the run settles.
func TestMonitorFlagsDuplicateBeforeQuiescence(t *testing.T) {
	c, run := publishing.ChaosScenario(dupBurstSchedule.Seed, publishing.ChaosOptions{BreakDupSuppression: true})
	defer c.Close()
	c.Trace().SetDetailed(true)
	publishing.ApplyChaos(c, run, dupBurstSchedule)
	if c.Monitor() == nil {
		t.Fatal("chaos scenario did not attach the monitor")
	}
	// Monitor flushes the trace's batched events, so each step's verdict is
	// current.
	if !c.RunUntil(func() bool { return !c.Monitor().Passed() }, simtime.Minute) {
		t.Fatal("duplicates never flagged online")
	}
	flaggedAt := c.Now()
	mon := c.Monitor()
	if run.Done() {
		t.Fatalf("duplicates first flagged at t=%v, after the workload completed:\n%s", flaggedAt, mon.Report())
	}
	v := mon.Violations()[0]
	if v.Invariant != monitor.InvExactlyOnce {
		t.Fatalf("first violation is %s, want the duplicate:\n%s", v, mon.Report())
	}
	if v.At > flaggedAt {
		t.Fatalf("first violation stamped t=%v, after it was flagged at t=%v", v.At, flaggedAt)
	}

	// Settle, then corroborate the stamp: it must be the exact virtual time
	// of one of that message's deliveries.
	publishing.SettleChaos(c, dupBurstSchedule)
	if !run.Done() {
		t.Fatal("workload did not complete")
	}
	matched := false
	for _, e := range c.Trace().OfKind(trace.KindDeliver) {
		if e.Msg == v.Msg && e.At == v.At {
			matched = true
			break
		}
	}
	if !matched {
		t.Fatalf("violation %s is not stamped with any delivery time of %s", v, v.Msg)
	}
}

// TestMonitorCheckpointCoversItsSnapshot pins a false positive of the
// exactly-once rule (ROADMAP item 23(b)). The worker checkpoints at 1,500
// ms, a message lands at 1,546 ms while the burst keeps its ack from the
// recorder, the recorder stores the 1,500 ms checkpoint at 1,549 ms and the
// worker's node crashes at 1,550 ms. The checkpoint does not cover that
// delivery, so the crash voids it and the sender's retransmission to the
// next incarnation is licensed.
func TestMonitorCheckpointCoversItsSnapshot(t *testing.T) {
	voided := regexp.MustCompile(`exactly-once +ok .* voided=[1-9]`)
	for _, burst := range []chaos.Kind{chaos.KindLossBurst, chaos.KindRecvMissBurst} {
		s := chaos.Schedule{Seed: 7, Faults: []chaos.Fault{
			{Kind: burst, AtMs: 1000, DurMs: 1000, Prob: 255},
			{Kind: chaos.KindNodeCrash, AtMs: 1550, A: 0},
		}}
		res := publishing.RunChaos(publishing.ChaosOptions{Medium: publishing.MediumAckEther, Checkpoint: true}, s, "")
		if !res.Passed() || !voided.MatchString(res.Report) {
			t.Errorf("%s: want every invariant to hold with a voided copy:\n%s", burst, res.Report)
		}
	}
}

// TestMonitorReportDeterminism runs the same faulted scenario twice and
// requires byte-identical monitor reports — the online counterpart of the
// checker's deterministic-report guarantee. Duplicate suppression is broken
// under a dup burst, so the property is pinned on a report that actually
// contains violations, SLO quantiles, and event counts.
func TestMonitorReportDeterminism(t *testing.T) {
	run := func() string {
		c, run := publishing.ChaosScenario(dupBurstSchedule.Seed, publishing.ChaosOptions{BreakDupSuppression: true})
		defer c.Close()
		publishing.ApplyChaos(c, run, dupBurstSchedule)
		publishing.SettleChaos(c, dupBurstSchedule)
		return c.Monitor().Report()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("monitor reports differ across identical runs:\n--- first\n%s\n--- second\n%s", a, b)
	}
	if !strings.Contains(a, "VIOLATION") {
		t.Fatalf("the pinned report holds no violation:\n%s", a)
	}
}

// TestMonitorPassivity pins the monitor's no-perturbation contract: a
// monitored run (tracing on behind a flight-recorder ring, monitor
// subscribed, stall tick armed) and a bare run of the same seed must end
// with byte-identical recorder databases. Any hidden influence — an event
// reordered by observation, randomness drawn, state mutated — would split
// the fingerprints' store sections. (The rest of the fingerprint differs by
// design: the monitor adds its own histograms and stall-tick events.)
func TestMonitorPassivity(t *testing.T) {
	stores := func(monitored bool) []string {
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
		return s.c.Fingerprint().Stores
	}
	if on, off := stores(true), stores(false); !slices.Equal(on, off) {
		t.Fatal("recorder databases differ between monitored and bare runs")
	}
}

// TestMonitorPassivitySharded re-pins the no-perturbation contract on the
// sharded replicated recorder path: the 64-node scenario run on the recorder
// trio (three recorders, sixteen shard slots) with the monitor on and off
// must end with byte-identical databases on every replica. Sharding adds
// recorder-to-recorder traffic — watchdog pings, handoff — that the
// one-recorder passivity test never exercises, so observation leaking
// into any of it would split these fingerprints.
func TestMonitorPassivitySharded(t *testing.T) {
	sharded := func(cfg *publishing.Config) {
		cfg.Recorders = 3
		cfg.ShardSlots = 16
	}
	stores := func(monitored bool) []string {
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
		return s.c.Fingerprint().Stores
	}
	on, off := stores(true), stores(false)
	if len(on) != 3 {
		t.Fatalf("%d recorder stores, want the trio's 3", len(on))
	}
	if !slices.Equal(on, off) {
		t.Fatal("sharded recorder databases differ between monitored and bare runs")
	}
}

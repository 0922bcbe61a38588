package publishing

import (
	"testing"

	"publishing/internal/simtime"
)

// multiCfg builds the standard scenario config with two recorders.
func multiCfg() Config {
	cfg := DefaultConfig(3)
	cfg.Recorders = 2
	return cfg
}

// With two recorders (§6.3), the network stays available while one is down:
// "If there are n recorders, n−1 can fail before the network becomes
// unavailable."
func TestTrafficSurvivesOneRecorderCrash(t *testing.T) {
	c, run := buildScenario(t, multiCfg(), 12)
	c.Scheduler().At(800*simtime.Millisecond, func() { c.CrashRecorderAt(0) })
	c.Run(60 * simtime.Second)
	expectSteps(t, run)
}

// With both recorders down, everything suspends — and resumes when one
// returns.
func TestAllRecordersDownSuspendsTraffic(t *testing.T) {
	c, run := buildScenario(t, multiCfg(), 12)
	c.Scheduler().At(800*simtime.Millisecond, func() {
		c.CrashRecorderAt(0)
		c.CrashRecorderAt(1)
	})
	c.Run(4 * simtime.Second)
	blocked := len(run.Output())
	c.Run(2 * simtime.Second)
	if len(run.Output()) != blocked {
		t.Fatal("traffic flowed with every recorder down")
	}
	if err := c.RestartRecorderAt(0); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartRecorderAt(1); err != nil {
		t.Fatal(err)
	}
	c.Run(90 * simtime.Second)
	expectSteps(t, run)
}

// A process crash while the slot's leader is down: the follower holds the
// full stream (every recorder replicates the one slot), finds the leader
// silent, and performs the recovery itself. The leader performs none.
func TestSecondaryRecorderPerformsRecovery(t *testing.T) {
	c, run := buildScenario(t, multiCfg(), 12)
	lead, fol := c.ShardMap().Leader(0), c.ShardMap().Follower(0)
	c.Scheduler().At(700*simtime.Millisecond, func() { c.CrashRecorderAt(lead) })
	c.Scheduler().At(1200*simtime.Millisecond, func() { c.CrashProcess(run.Worker) })
	c.Run(120 * simtime.Second)
	expectSteps(t, run)
	if got := c.RecorderAt(fol).Stats().RecoveriesCompleted; got != 1 {
		t.Fatalf("follower rec%d completed %d recoveries, want 1", fol, got)
	}
	if got := c.RecorderAt(lead).Stats().RecoveriesStarted; got != 0 {
		t.Fatalf("crashed leader rec%d started %d recoveries, want 0", lead, got)
	}
}

// Node-crash duty is exclusive: both recorders detect the crash, but only
// the slot's acting replica, its live leader, recovers the node's processes.
func TestArbitrationSingleRecoverer(t *testing.T) {
	c, run := buildScenario(t, multiCfg(), 12)
	lead, fol := c.ShardMap().Leader(0), c.ShardMap().Follower(0)
	c.Scheduler().At(1100*simtime.Millisecond, func() { c.CrashNode(1) })
	c.Run(120 * simtime.Second)
	expectSteps(t, run)
	rl := c.RecorderAt(lead).Stats().RecoveriesStarted
	rf := c.RecorderAt(fol).Stats().RecoveriesStarted
	if rl == 0 {
		t.Fatalf("leader rec%d started no recoveries (leader=%d follower=%d)", lead, rl, rf)
	}
	if rf != 0 {
		t.Fatalf("follower rec%d also recovered (leader=%d follower=%d); duty must be exclusive", fol, rl, rf)
	}
	for _, r := range []int{lead, fol} {
		if got := c.RecorderAt(r).Stats().ProcessorCrashes; got != 1 {
			t.Fatalf("rec%d detected %d processor crashes, want 1", r, got)
		}
	}
}

// With three recorders, two can fail (§6.3: "n−1 can fail"): the slot's
// first two replicas crash, and the third finds both silent and performs
// the worker's recovery alone.
func TestThirdReplicaRecoversAfterTwoCrash(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Recorders = 3
	cfg.ShardSlots = 0
	c, run := buildScenario(t, cfg, 12)
	reps := c.ShardMap().Replicas(0)
	if len(reps) != 3 {
		t.Fatalf("one-slot map over three recorders has replicas %v", reps)
	}
	c.Scheduler().At(700*simtime.Millisecond, func() {
		c.CrashRecorderAt(reps[0])
		c.CrashRecorderAt(reps[1])
	})
	c.Scheduler().At(1200*simtime.Millisecond, func() { c.CrashProcess(run.Worker) })
	c.Run(120 * simtime.Second)
	expectSteps(t, run)
	if got := c.RecorderAt(reps[2]).Stats().RecoveriesCompleted; got != 1 {
		t.Fatalf("third replica rec%d completed %d recoveries, want 1", reps[2], got)
	}
}

// Both recorders stay consistent: their reconstructed streams for the
// worker match even though only one receives the notices end-to-end.
func TestRecordersStayConsistent(t *testing.T) {
	c, run := buildScenario(t, multiCfg(), 10)
	c.Run(30 * simtime.Second)
	expectSteps(t, run)
	s0 := c.RecorderAt(0).StreamSummary(run.Worker)
	s1 := c.RecorderAt(1).StreamSummary(run.Worker)
	if len(s0) == 0 {
		t.Fatal("primary has no stream")
	}
	if len(s0) != len(s1) {
		t.Fatalf("stream lengths differ: %d vs %d", len(s0), len(s1))
	}
	for i := range s0 {
		if s0[i] != s1[i] {
			t.Fatalf("streams diverge at %d: %v vs %v", i, s0[i], s1[i])
		}
	}
	_, _, _, ls0, _ := c.RecorderAt(0).Entry(run.Worker)
	_, _, _, ls1, _ := c.RecorderAt(1).Entry(run.Worker)
	if ls0 != ls1 || ls0 == 0 {
		t.Fatalf("lastSent diverges: %d vs %d", ls0, ls1)
	}
}

// After a restart with peers, a recorder forces every process to checkpoint
// (§6.3 catch-up) and reports CatchingUp until those checkpoints land.
func TestRestartCatchUp(t *testing.T) {
	c, run := buildScenario(t, multiCfg(), 14)
	c.Scheduler().At(800*simtime.Millisecond, func() { c.CrashRecorderAt(0) })
	c.Run(3 * simtime.Second)
	if err := c.RestartRecorderAt(0); err != nil {
		t.Fatal(err)
	}
	if !c.RecorderAt(0).CatchingUp() {
		t.Fatal("restarted recorder is not catching up")
	}
	c.Run(120 * simtime.Second)
	if c.RecorderAt(0).CatchingUp() {
		t.Fatal("catch-up never completed")
	}
	expectSteps(t, run)
	if got := c.RecorderAt(0).Stats().CheckpointsStored; got == 0 {
		t.Fatal("no forced checkpoints were stored during catch-up")
	}
}

func TestMultiRecorderDeterminism(t *testing.T) {
	run := func() string {
		c, run := buildScenario(t, multiCfg(), 10)
		c.Scheduler().At(700*simtime.Millisecond, func() { c.CrashRecorderAt(0) })
		c.Scheduler().At(1200*simtime.Millisecond, func() { c.CrashProcess(run.Worker) })
		c.Run(60 * simtime.Second)
		return joinStrings(run.Output()) + "|" + c.Now().String()
	}
	if run() != run() {
		t.Fatal("multi-recorder cluster not deterministic")
	}
}

func joinStrings(ss []string) string {
	out := ""
	for _, s := range ss {
		out += s + ";"
	}
	return out
}

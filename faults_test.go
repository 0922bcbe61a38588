package publishing

import (
	"fmt"
	"testing"

	"publishing/internal/chaos"
	"publishing/internal/simtime"
)

// Transparent recovery must hold even on a lossy wire: frame loss is
// absorbed by retransmission, tap misses by publish-before-use.
func TestRecoveryUnderLossyWire(t *testing.T) {
	cfg := DefaultConfig(3)
	// Watchdog pings are unguaranteed; on a lossy wire the default
	// 3-miss threshold false-positives (and a false positive restarts a
	// healthy process — §3.3.4 semantics). Detection thresholds must be
	// provisioned for the medium's loss rate.
	cfg.MissThreshold = 10
	c, run := buildScenario(t, cfg, 10)
	c.Medium().Faults().LossProb = 0.15
	c.Scheduler().At(1300*simtime.Millisecond, func() { c.CrashProcess(run.Worker) })
	c.Run(3 * simtime.Minute)
	expectSteps(t, run)
	if c.Medium().Stats().FramesLost == 0 {
		t.Fatal("the wire was not actually lossy")
	}
}

// Publish-before-use under a flaky recorder store: frames the recorder
// fails to record never reach their destinations, so nothing is ever
// usable-but-unrecoverable. Retransmission gets everything through.
func TestFlakyRecorderStoreStillExactlyOnce(t *testing.T) {
	c, run := buildScenario(t, DefaultConfig(3), 10)
	// 20% of tap observations fail: the medium must block those frames.
	c.Medium().Faults().TapMissProb = 0.2
	c.Scheduler().At(1300*simtime.Millisecond, func() { c.CrashProcess(run.Worker) })
	c.Run(3 * simtime.Minute)
	expectSteps(t, run)
	if c.Medium().Stats().RecorderBlocks == 0 {
		t.Fatal("no frames were ever blocked; the fault injection is dead")
	}
}

// §3.6: with a single recorder, a partition wedges the side without the
// recorder; healing resumes it. (The paper declares the general case
// unsolvable with one recorder; the safe behaviour is to wait.)
func TestPartitionSuspendsAndHeals(t *testing.T) {
	cfg := DefaultConfig(3)
	c, run := buildScenario(t, cfg, 12)
	// Partition node 0 (the producer) away from everyone else after a bit.
	c.Scheduler().At(900*simtime.Millisecond, func() {
		c.Medium().Faults().SetPartition(0, 1)
	})
	c.Run(5 * simtime.Second)
	during := len(run.Output())
	if during >= 12 {
		t.Fatal("pipeline finished across a partition")
	}
	c.Medium().Faults().Heal()
	c.Run(3 * simtime.Minute)
	expectSteps(t, run)
	_ = during
}

// Soak test: seed-determined fault schedules from the chaos generator over
// a longer pipeline on a collision-prone medium, checked against the full
// system-wide invariant set (not just step delivery).
func TestSoakRandomFaultSchedule(t *testing.T) {
	lim := chaos.Limits{WindowMs: 12_000, MaxFaults: 10} // longer, denser than the sweep
	for _, seed := range []uint64{7, 21, 99} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			s := chaos.Generate(seed, lim)
			opt := ChaosOptions{Medium: MediumEther, Msgs: 25}
			res := RunChaos(opt, s, "")
			if !res.Passed() {
				t.Errorf("invariants violated:\n%s", res.Report)
				t.Fatal(ChaosReproducer(opt, s))
			}
		})
	}
}

// Same soak schedule, run twice: identical invariant reports (determinism
// under heavy fault injection — the report embeds the full output digest
// comparison, so report equality subsumes the old history check).
func TestSoakDeterminism(t *testing.T) {
	s := chaos.Generate(5, chaos.DefaultLimits())
	a := RunChaos(ChaosOptions{Msgs: 15}, s, "")
	b := RunChaos(ChaosOptions{Msgs: 15}, s, "")
	if a.Report != b.Report {
		t.Fatalf("soak run not deterministic:\n--- first\n%s\n--- second\n%s", a.Report, b.Report)
	}
	if !a.Passed() {
		t.Fatalf("soak schedule failed:\n%s", a.Report)
	}
}

// Back-to-back node crashes (a crash during the recovery of a previous
// crash of the same node) still converge.
func TestRepeatedNodeCrashes(t *testing.T) {
	cfg := DefaultConfig(3)
	c, run := buildScenario(t, cfg, 15)
	c.Scheduler().At(1*simtime.Second, func() { c.CrashNode(1) })
	c.Scheduler().At(6*simtime.Second, func() { c.CrashNode(1) })
	c.Scheduler().At(11*simtime.Second, func() { c.CrashNode(1) })
	c.Run(5 * simtime.Minute)
	expectSteps(t, run)
	if got := c.Recorder().Stats().ProcessorCrashes; got < 3 {
		t.Fatalf("processor crashes detected = %d, want >= 3", got)
	}
}

// The storage policy (§5.1) triggers on message volume; verify it fires and
// still recovers correctly.
func TestStoragePolicyCheckpoints(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.CheckpointPolicy = CheckpointStorage
	cfg.CheckpointTick = 150 * simtime.Millisecond
	c := New(cfg)
	// The storage policy triggers when accumulated message bytes exceed the
	// checkpoint size, so send fat messages.
	run := Pipeline{Msgs: 20, Bytes: 512, Pace: 120 * simtime.Millisecond}.Start(c)
	c.Scheduler().At(2200*simtime.Millisecond, func() { c.CrashProcess(run.Worker) })
	c.Run(3 * simtime.Minute)
	expectSteps(t, run)
	if c.Recorder().Stats().CheckpointsStored == 0 {
		t.Fatal("storage policy never checkpointed")
	}
}

// The storage policy's tick visits kernels, and each kernel's processes, in
// a fixed order: when several processes cross the threshold on one tick the
// order their checkpoints are published in shapes every later event. Same-seed
// runs of a pipeline with two checkpointable processes on each of two nodes
// must therefore end with equal fingerprints, the stored checkpoints
// included.
func TestCheckpointStorageDeterminism(t *testing.T) {
	run := func() Fingerprint {
		cfg := DefaultConfig(3)
		cfg.Seed = 5
		cfg.CheckpointPolicy = CheckpointStorage
		cfg.CheckpointTick = 150 * simtime.Millisecond
		c := New(cfg)
		defer c.Close()
		const workers, rounds = 4, 12
		// The pipeline's witness and worker images, spawned four times: a
		// feeder of its own drives all four workers.
		run := Pipeline{Msgs: workers * rounds}.register(c)
		c.Registry().RegisterProgram("feeder", func(args []byte) Program {
			return func(ctx *PCtx) {
				var links [workers]LinkID
				for i := range links {
					l, err := ctx.ServiceLink(fmt.Sprintf("worker%d", i))
					if err != nil {
						panic(err)
					}
					links[i] = l
				}
				for r := 1; r <= rounds; r++ {
					for _, l := range links {
						body := make([]byte, 512)
						body[0] = byte(r)
						_ = ctx.Send(l, body, NoLink)
					}
					ctx.Compute(100 * simtime.Millisecond)
				}
			}
		})
		wit, err := c.Spawn(0, ProcSpec{Name: "witness", Recoverable: true})
		if err != nil {
			t.Fatal(err)
		}
		c.SetService("witness", wit)
		for i := 0; i < workers; i++ {
			w, err := c.Spawn(NodeID(1+i%2), ProcSpec{Name: "worker", Recoverable: true})
			if err != nil {
				t.Fatal(err)
			}
			c.SetService(fmt.Sprintf("worker%d", i), w)
		}
		if _, err := c.Spawn(0, ProcSpec{Name: "feeder", Recoverable: true}); err != nil {
			t.Fatal(err)
		}
		c.Run(30 * simtime.Second)
		if got := len(run.Output()); got != workers*rounds {
			t.Fatalf("witness saw %d messages, want %d", got, workers*rounds)
		}
		if n := c.Recorder().Stats().CheckpointsStored; n < workers {
			t.Fatalf("only %d checkpoints stored; the scenario must checkpoint every worker", n)
		}
		return c.Fingerprint()
	}
	first := run()
	for i := 0; i < 3; i++ {
		if moved := run().Diff(first); len(moved) > 0 {
			t.Errorf("run %d moved %v from the first run's fingerprint", i+2, moved)
		}
	}
}

package publishing

import (
	"bytes"
	"fmt"
	"testing"

	"publishing/internal/chaos"
	"publishing/internal/simtime"
	"publishing/internal/trace"
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
	c, sink, worker := buildScenario(t, cfg, 10)
	c.Medium().Faults().LossProb = 0.15
	c.Scheduler().At(1300*simtime.Millisecond, func() { c.CrashProcess(worker) })
	c.Run(3 * simtime.Minute)
	expectSteps(t, sink, 10)
	if c.Medium().Stats().FramesLost == 0 {
		t.Fatal("the wire was not actually lossy")
	}
}

// Publish-before-use under a flaky recorder store: frames the recorder
// fails to record never reach their destinations, so nothing is ever
// usable-but-unrecoverable. Retransmission gets everything through.
func TestFlakyRecorderStoreStillExactlyOnce(t *testing.T) {
	cfg := DefaultConfig(3)
	c := New(cfg)
	sink := &witnessSink{}
	registerWitness(c, sink)
	registerWorker(c)
	registerProducer(c, 10, 200*simtime.Millisecond)
	wit, _ := c.Spawn(2, ProcSpec{Name: "witness", Recoverable: true})
	c.SetService("witness", wit)
	worker, _ := c.Spawn(1, ProcSpec{Name: "worker", Recoverable: true})
	c.SetService("worker", worker)
	c.Spawn(0, ProcSpec{Name: "producer", Recoverable: true})
	// 20% of tap observations fail: the medium must block those frames.
	c.Medium().Faults().TapMissProb = 0.2
	c.Scheduler().At(1300*simtime.Millisecond, func() { c.CrashProcess(worker) })
	c.Run(3 * simtime.Minute)
	expectSteps(t, sink, 10)
	if c.Medium().Stats().RecorderBlocks == 0 {
		t.Fatal("no frames were ever blocked; the fault injection is dead")
	}
}

// §3.6: with a single recorder, a partition wedges the side without the
// recorder; healing resumes it. (The paper declares the general case
// unsolvable with one recorder; the safe behaviour is to wait.)
func TestPartitionSuspendsAndHeals(t *testing.T) {
	cfg := DefaultConfig(3)
	c, sink, _ := buildScenario(t, cfg, 12)
	// Partition node 0 (the producer) away from everyone else after a bit.
	c.Scheduler().At(900*simtime.Millisecond, func() {
		c.Medium().Faults().SetPartition(0, 1)
	})
	c.Run(5 * simtime.Second)
	during := len(sink.msgs)
	if during >= 12 {
		t.Fatal("pipeline finished across a partition")
	}
	c.Medium().Faults().Heal()
	c.Run(3 * simtime.Minute)
	expectSteps(t, sink, 12)
	_ = during
}

// The §3.2.3 promise, measured end to end: with the bound policy active, a
// process's actual recovery time (crash notice to recovery-done) stays
// within the same order as its configured bound, and is much shorter than
// an uncheckpointed recovery of the same history.
func TestRecoveryTimeBoundedByCheckpoints(t *testing.T) {
	measure := func(policy CheckpointPolicyKind) simtime.Time {
		cfg := DefaultConfig(3)
		cfg.CheckpointPolicy = policy
		cfg.CheckpointTick = 200 * simtime.Millisecond
		c := New(cfg)
		sink := &witnessSink{}
		registerWitness(c, sink)
		registerWorker(c)
		registerProducer(c, 30, 150*simtime.Millisecond)
		wit, _ := c.Spawn(2, ProcSpec{Name: "witness", Recoverable: true})
		c.SetService("witness", wit)
		worker, err := c.Spawn(1, ProcSpec{
			Name: "worker", Recoverable: true,
			RecoveryTimeBound: 500 * simtime.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.SetService("worker", worker)
		c.Spawn(0, ProcSpec{Name: "producer", Recoverable: true})
		c.Scheduler().At(4*simtime.Second, func() { c.CrashProcess(worker) })
		c.Run(3 * simtime.Minute)
		expectSteps(t, sink, 30)

		// Recovery duration from the trace: crash event to recovery-done.
		var crashAt, doneAt simtime.Time
		for _, e := range c.Trace().OfKind(trace.KindCrash) {
			if e.Subject == worker.String() {
				crashAt = e.At
				break
			}
		}
		for _, e := range c.Trace().OfKind(trace.KindRecoveryDone) {
			if e.Subject == worker.String() {
				doneAt = e.At
			}
		}
		if crashAt == 0 || doneAt <= crashAt {
			t.Fatalf("could not locate recovery window (crash=%v done=%v)", crashAt, doneAt)
		}
		return doneAt - crashAt
	}
	bounded := measure(CheckpointBound)
	unbounded := measure(CheckpointNone)
	if bounded >= unbounded {
		t.Fatalf("checkpointing did not shorten recovery: %v vs %v", bounded, unbounded)
	}
	if bounded > 900*simtime.Millisecond {
		t.Fatalf("bounded recovery too slow: %v (bound 500ms + detection grace)", bounded)
	}
	t.Logf("recovery time: bounded=%v unbounded=%v", bounded, unbounded)
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
			build := ChaosBuild(ChaosOptions{Medium: MediumEther, Msgs: 25})
			res := chaos.Run(s, build, chaos.DefaultOptions())
			if !res.Passed {
				t.Errorf("invariants violated:\n%s", res.Report)
				t.Fatal(chaos.Reproducer(s, build, chaos.DefaultOptions()))
			}
		})
	}
}

// Same soak schedule, run twice: identical invariant reports (determinism
// under heavy fault injection — the report embeds the full output digest
// comparison, so report equality subsumes the old history check).
func TestSoakDeterminism(t *testing.T) {
	s := chaos.Generate(5, chaos.DefaultLimits())
	build := ChaosBuild(ChaosOptions{Msgs: 15})
	a := chaos.Run(s, build, chaos.DefaultOptions())
	b := chaos.Run(s, build, chaos.DefaultOptions())
	if a.Report != b.Report {
		t.Fatalf("soak run not deterministic:\n--- first\n%s\n--- second\n%s", a.Report, b.Report)
	}
	if !a.Passed {
		t.Fatalf("soak schedule failed:\n%s", a.Report)
	}
}

// Back-to-back node crashes (a crash during the recovery of a previous
// crash of the same node) still converge.
func TestRepeatedNodeCrashes(t *testing.T) {
	cfg := DefaultConfig(3)
	c, sink, _ := buildScenario(t, cfg, 15)
	c.Scheduler().At(1*simtime.Second, func() { c.CrashNode(1) })
	c.Scheduler().At(6*simtime.Second, func() { c.CrashNode(1) })
	c.Scheduler().At(11*simtime.Second, func() { c.CrashNode(1) })
	c.Run(5 * simtime.Minute)
	expectSteps(t, sink, 15)
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
	sink := &witnessSink{}
	registerWitness(c, sink)
	registerWorker(c)
	// The storage policy triggers when accumulated message bytes exceed the
	// checkpoint size, so send fat messages (value in byte 0, padding after).
	c.Registry().RegisterProgram("producer", func(args []byte) Program {
		return func(ctx *PCtx) {
			wl, err := ctx.ServiceLink("worker")
			if err != nil {
				return
			}
			for i := 1; i <= 20; i++ {
				body := make([]byte, 512)
				body[0] = byte(i)
				_ = ctx.Send(wl, body, NoLink)
				ctx.Compute(120 * simtime.Millisecond)
			}
		}
	})
	wit, _ := c.Spawn(2, ProcSpec{Name: "witness", Recoverable: true})
	c.SetService("witness", wit)
	worker, _ := c.Spawn(1, ProcSpec{Name: "worker", Recoverable: true})
	c.SetService("worker", worker)
	c.Spawn(0, ProcSpec{Name: "producer", Recoverable: true})
	c.Scheduler().At(2200*simtime.Millisecond, func() { c.CrashProcess(worker) })
	c.Run(3 * simtime.Minute)
	expectSteps(t, sink, 20)
	if c.Recorder().Stats().CheckpointsStored == 0 {
		t.Fatal("storage policy never checkpointed")
	}
}

// The storage policy's tick visits kernels, and each kernel's processes, in
// a fixed order: when several processes cross the threshold on one tick the
// order their checkpoints are published in shapes every later event. Two
// same-seed runs of a pipeline with two checkpointable processes on each of
// two nodes must therefore agree on the event count, every metric, and the
// recorder database.
func TestCheckpointStorageDeterminism(t *testing.T) {
	run := func() (uint64, string, string) {
		cfg := DefaultConfig(3)
		cfg.Seed = 5
		cfg.CheckpointPolicy = CheckpointStorage
		cfg.CheckpointTick = 150 * simtime.Millisecond
		c := New(cfg)
		defer c.Close()
		sink := &witnessSink{}
		registerWitness(c, sink)
		registerWorker(c)
		const workers, rounds = 4, 12
		c.Registry().RegisterProgram("producer", func(args []byte) Program {
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
		if _, err := c.Spawn(0, ProcSpec{Name: "producer", Recoverable: true}); err != nil {
			t.Fatal(err)
		}
		c.Run(30 * simtime.Second)
		if got := len(sink.msgs); got != workers*rounds {
			t.Fatalf("witness saw %d messages, want %d", got, workers*rounds)
		}
		if n := c.Recorder().Stats().CheckpointsStored; n < workers {
			t.Fatalf("only %d checkpoints stored; the scenario must checkpoint every worker", n)
		}
		var mets bytes.Buffer
		if err := c.Metrics().Snapshot().WriteText(&mets); err != nil {
			t.Fatal(err)
		}
		return c.Scheduler().Fired(), mets.String(), string(dumpRecorderDB(t, c, 0))
	}
	fired, mets, db := run()
	for i := 0; i < 3; i++ {
		f, m, d := run()
		if f != fired {
			t.Errorf("run %d fired %d events, first run %d", i+2, f, fired)
		}
		if m != mets {
			t.Errorf("run %d metrics differ from the first run's", i+2)
		}
		if d != db {
			t.Errorf("run %d recorder database differs from the first run's:\n%s\n--- first ---\n%s", i+2, d, db)
		}
	}
}

// Stable-store compaction runs live: after checkpoints invalidate replay
// prefixes, compaction reclaims records without disturbing the system.
func TestLiveCompaction(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.CheckpointPolicy = CheckpointBound
	cfg.CheckpointTick = 200 * simtime.Millisecond
	c := New(cfg)
	sink := &witnessSink{}
	registerWitness(c, sink)
	registerWorker(c)
	registerProducer(c, 20, 150*simtime.Millisecond)
	wit, _ := c.Spawn(2, ProcSpec{Name: "witness", Recoverable: true})
	c.SetService("witness", wit)
	worker, _ := c.Spawn(1, ProcSpec{
		Name: "worker", Recoverable: true, RecoveryTimeBound: 400 * simtime.Millisecond,
	})
	c.SetService("worker", worker)
	c.Spawn(0, ProcSpec{Name: "producer", Recoverable: true})
	c.Run(10 * simtime.Second)
	dropped, err := c.Store().Compact()
	if err != nil {
		t.Fatal(err)
	}
	if dropped == 0 {
		t.Fatal("compaction reclaimed nothing despite checkpoints")
	}
	// The system continues fine after compaction, including a recovery.
	c.CrashProcess(worker)
	c.Run(3 * simtime.Minute)
	expectSteps(t, sink, 20)
}

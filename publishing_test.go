package publishing

import (
	"fmt"
	"testing"

	"publishing/internal/demos"
	"publishing/internal/recorder"
	"publishing/internal/simtime"
)

// --- shared test images -----------------------------------------------------

type testMachine struct {
	init   func(ctx *PCtx)
	handle func(ctx *PCtx, m Msg)
	snap   func() ([]byte, error)
	rest   func(b []byte) error
}

func (t *testMachine) Init(ctx *PCtx) {
	if t.init != nil {
		t.init(ctx)
	}
}
func (t *testMachine) Handle(ctx *PCtx, m Msg) { t.handle(ctx, m) }
func (t *testMachine) Snapshot() ([]byte, error) {
	if t.snap != nil {
		return t.snap()
	}
	return nil, nil
}
func (t *testMachine) Restore(b []byte) error {
	if t.rest != nil {
		return t.rest(b)
	}
	return nil
}

// expectSteps fails t unless run's witness saw every step exactly once, in
// order (PipelineRun.Check).
func expectSteps(t *testing.T, run *PipelineRun) {
	t.Helper()
	if err := run.Check(); err != nil {
		t.Fatal(err)
	}
}

// buildScenario starts an nMsgs-message Pipeline, 200 ms apart, on a cluster
// built from cfg: producer on node 0, worker on node 1, witness on node 2,
// recorder on node 3.
func buildScenario(t *testing.T, cfg Config, nMsgs int) (*Cluster, *PipelineRun) {
	t.Helper()
	c := New(cfg)
	t.Cleanup(c.Close)
	return c, Pipeline{Msgs: nMsgs, Pace: 200 * simtime.Millisecond}.Start(c)
}

// --- the headline behaviour --------------------------------------------------

// Without any crash, the pipeline runs to completion. Baseline sanity for
// the crash tests below, on every medium.
func TestPipelineNoCrash(t *testing.T) {
	for _, medium := range []MediumKind{MediumPerfect, MediumEther, MediumAckEther, MediumRing, MediumStar} {
		t.Run(string(medium), func(t *testing.T) {
			cfg := DefaultConfig(3)
			cfg.Medium = medium
			c, run := buildScenario(t, cfg, 10)
			c.Run(30 * simtime.Second)
			expectSteps(t, run)
		})
	}
}

// The paper's core claim (§3.1–3.3): a crashed process is transparently
// recovered from its initial image plus the published messages; its re-sent
// outputs are suppressed; non-failed processes are not restarted; and the
// computation completes exactly as if the crash had not occurred.
func TestTransparentProcessRecovery(t *testing.T) {
	for _, medium := range []MediumKind{MediumPerfect, MediumEther, MediumAckEther, MediumStar} {
		t.Run(string(medium), func(t *testing.T) {
			cfg := DefaultConfig(3)
			cfg.Medium = medium
			c, run := buildScenario(t, cfg, 12)

			// Crash the worker mid-stream.
			c.Scheduler().At(1200*simtime.Millisecond, func() { c.CrashProcess(run.Worker) })
			c.Run(60 * simtime.Second)

			expectSteps(t, run)
			if got := c.Recorder().Stats().RecoveriesCompleted; got != 1 {
				t.Fatalf("recoveries completed = %d, want 1", got)
			}
			if got := c.Recorder().Stats().MessagesReplayed; got == 0 {
				t.Fatal("no messages were replayed")
			}
			// Independence: producer and witness were created exactly once.
			if got := c.Kernel(0).Stats().ProcsCreated; got != 1 {
				t.Fatalf("producer node created %d procs, want 1", got)
			}
			if got := c.Kernel(2).Stats().ProcsCreated; got != 1 {
				t.Fatalf("witness node created %d procs, want 1", got)
			}
			// Suppression actually happened (the worker had sent outputs
			// before crashing and re-sent them during replay).
			if got := c.Kernel(1).Stats().Suppressed; got == 0 {
				t.Fatal("no outputs were suppressed during re-execution")
			}
		})
	}
}

// A processor crash takes down every process on the node; the watchdog
// detects it by timeout, the node reboots, and all its processes recover
// (§3.3.2, §4.6).
func TestProcessorCrashRecovery(t *testing.T) {
	cfg := DefaultConfig(3)
	c, run := buildScenario(t, cfg, 12)
	c.Scheduler().At(1100*simtime.Millisecond, func() { c.CrashNode(1) })
	c.Run(90 * simtime.Second)
	expectSteps(t, run)
	if got := c.Recorder().Stats().ProcessorCrashes; got != 1 {
		t.Fatalf("processor crashes detected = %d, want 1", got)
	}
	if got := c.Recorder().Stats().RecoveriesCompleted; got < 1 {
		t.Fatalf("recoveries completed = %d", got)
	}
}

// Recovery on a spare processor (§4.6's third operator choice): the failed
// node never comes back; the worker continues on the spare, and messages
// are routed to it.
func TestSpareNodeRecovery(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Spares = 1
	spare := NodeID(4) // node ids: 0,1,2 processing; 3 recorder; 4 spare
	cfg.OnProcessorCrash = func(node NodeID) recorder.Decision {
		return recorder.Decision{Action: recorder.ActionRecoverSpare, Spare: spare}
	}
	c, run := buildScenario(t, cfg, 12)
	c.Scheduler().At(1100*simtime.Millisecond, func() { c.CrashNode(1) })
	c.Run(90 * simtime.Second)
	expectSteps(t, run)
	if st := c.Kernel(spare).ProcState(run.Worker); st != demos.StateFunctioning {
		t.Fatalf("worker on spare = %v, want functioning", st)
	}
}

// ActionNoRecover abandons the node's processes (§4.6 "do not recover").
func TestNoRecoverPolicy(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.OnProcessorCrash = func(node NodeID) recorder.Decision {
		return recorder.Decision{Action: recorder.ActionNoRecover}
	}
	c, run := buildScenario(t, cfg, 12)
	c.Scheduler().At(1100*simtime.Millisecond, func() { c.CrashNode(1) })
	c.Run(30 * simtime.Second)
	if len(run.Output()) >= 12 {
		t.Fatal("abandoned worker completed anyway")
	}
	if got := c.Recorder().Stats().RecoveriesStarted; got != 0 {
		t.Fatalf("recoveries started = %d, want 0", got)
	}
}

// With the storage-balance checkpoint policy, recovery restores the worker
// from a checkpoint and replays only the suffix — fewer messages than the
// process received in total (§3.3.1).
func TestCheckpointedRecoveryReplaysLess(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.CheckpointPolicy = CheckpointBound
	cfg.CheckpointTick = 300 * simtime.Millisecond
	c := New(cfg)
	run := Pipeline{Msgs: 16, Pace: 200 * simtime.Millisecond, WorkerBound: 400 * simtime.Millisecond}.Start(c)
	c.Scheduler().At(2500*simtime.Millisecond, func() { c.CrashProcess(run.Worker) })
	c.Run(90 * simtime.Second)

	expectSteps(t, run)
	rs := c.Recorder().Stats()
	if rs.CheckpointsStored == 0 {
		t.Fatal("no checkpoints were taken")
	}
	if rs.RecoveriesCompleted != 1 {
		t.Fatalf("recoveries = %d", rs.RecoveriesCompleted)
	}
	// The worker received ~12 messages before the crash; a checkpointed
	// recovery must replay strictly fewer than that.
	if rs.MessagesReplayed >= 12 {
		t.Fatalf("replayed %d messages; checkpoint did not shorten replay", rs.MessagesReplayed)
	}
}

// While the recorder is down all guaranteed traffic suspends
// (publish-before-use); after restart it rebuilds its database from stable
// storage, runs the §3.3.4 query protocol, and the system resumes.
func TestRecorderCrashAndRestart(t *testing.T) {
	cfg := DefaultConfig(3)
	c, run := buildScenario(t, cfg, 12)

	c.Scheduler().At(800*simtime.Millisecond, func() { c.CrashRecorder() })
	c.Run(3 * simtime.Second)
	blocked := len(run.Output())
	c.Run(2 * simtime.Second)
	if len(run.Output()) != blocked {
		t.Fatalf("traffic flowed while recorder was down (%d -> %d)", blocked, len(run.Output()))
	}
	if err := c.RestartRecorder(); err != nil {
		t.Fatal(err)
	}
	if c.Recorder().RestartNumber() != 1 {
		t.Fatalf("restart number = %d", c.Recorder().RestartNumber())
	}
	c.Run(90 * simtime.Second)
	expectSteps(t, run)
}

// A process that crashes while the recorder is down is found by the restart
// protocol's state queries and recovered (§3.3.4: "any processes that
// crashed while the recorder was down will be recovered").
func TestCrashWhileRecorderDown(t *testing.T) {
	cfg := DefaultConfig(3)
	c, run := buildScenario(t, cfg, 12)
	c.Scheduler().At(800*simtime.Millisecond, func() { c.CrashRecorder() })
	c.Scheduler().At(1000*simtime.Millisecond, func() { c.CrashProcess(run.Worker) })
	c.Run(3 * simtime.Second)
	if err := c.RestartRecorder(); err != nil {
		t.Fatal(err)
	}
	c.Run(90 * simtime.Second)
	expectSteps(t, run)
	if got := c.Recorder().Stats().RecoveriesCompleted; got != 1 {
		t.Fatalf("recoveries completed = %d, want 1", got)
	}
}

// A restarted recorder trusts no watchdog state from before its crash. Node
// 1 crashes at 1.2 s and the watchdog finds it at 3.0 s; the recorder is
// down from 4.5 s to 5.5 s, and its restart query recovers the worker. A
// watchdog that kept the node's down and responsible flags across the crash
// would see the node answer and recover the live worker a second time.
func TestRestartedRecorderKeepsNoWatchdogState(t *testing.T) {
	c, run := buildScenario(t, DefaultConfig(3), 12)
	c.Scheduler().At(1200*simtime.Millisecond, func() { c.CrashNode(1) })
	c.Scheduler().At(4500*simtime.Millisecond, func() { c.CrashRecorder() })
	c.Scheduler().At(5500*simtime.Millisecond, func() {
		if err := c.RestartRecorder(); err != nil {
			t.Error(err)
		}
	})
	c.Run(2 * simtime.Minute)
	if err := run.Check(); err != nil {
		t.Fatal(err)
	}
	if got := c.Recorder().Stats().RecoveriesStarted; got != 1 {
		t.Fatalf("recoveries started = %d, want 1", got)
	}
}

// A recursive crash (§3.5): the worker crashes again while being recovered;
// recovery reinitiates and still converges.
func TestRecursiveProcessCrash(t *testing.T) {
	cfg := DefaultConfig(3)
	c, run := buildScenario(t, cfg, 12)
	c.Scheduler().At(1200*simtime.Millisecond, func() { c.CrashProcess(run.Worker) })
	// Crash it again just as replay should be under way.
	c.Scheduler().At(1450*simtime.Millisecond, func() { c.CrashProcess(run.Worker) })
	c.Run(120 * simtime.Second)
	expectSteps(t, run)
	if got := c.Recorder().Stats().RecoveriesStarted; got < 2 {
		t.Fatalf("recovery was not reinitiated (starts=%d)", got)
	}
}

// The whole cluster — crash, detection, replay, suppression — is
// deterministic: two runs with the same seed produce identical histories.
func TestClusterDeterminism(t *testing.T) {
	run := func() string {
		cfg := DefaultConfig(3)
		cfg.Medium = MediumEther
		c, run := buildScenario(t, cfg, 10)
		c.Scheduler().At(1200*simtime.Millisecond, func() { c.CrashProcess(run.Worker) })
		c.Run(60 * simtime.Second)
		return fmt.Sprintf("%v|%v|%d", run.Output(), c.Now(), c.Recorder().Stats().MessagesReplayed)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic cluster:\n%s\n%s", a, b)
	}
}

// Publishing off reproduces the unmodified baseline: a crash simply loses
// the process (nothing records its messages).
func TestNoPublishingNoRecovery(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Publishing = false
	c, run := buildScenario(t, cfg, 12)
	c.Scheduler().At(1200*simtime.Millisecond, func() { c.CrashProcess(run.Worker) })
	c.Run(30 * simtime.Second)
	if len(run.Output()) >= 12 {
		t.Fatal("worker completed without publishing — impossible")
	}
	if c.Recorder() != nil {
		t.Fatal("recorder exists with publishing off")
	}
}

// Non-recoverable processes (§6.6.1) are not recovered, but the rest of the
// system is undisturbed.
func TestNonRecoverableProcess(t *testing.T) {
	cfg := DefaultConfig(3)
	c := New(cfg)
	// The pipeline's images, with the worker spawned unrecoverable.
	run := Pipeline{Msgs: 12, Pace: 200 * simtime.Millisecond}.register(c)
	wit, _ := c.Spawn(2, ProcSpec{Name: "witness", Recoverable: true})
	c.SetService("witness", wit)
	worker, _ := c.Spawn(1, ProcSpec{Name: "worker", Recoverable: false})
	c.SetService("worker", worker)
	c.Spawn(0, ProcSpec{Name: "producer", Recoverable: true})
	c.Scheduler().At(1200*simtime.Millisecond, func() { c.CrashProcess(worker) })
	c.Run(30 * simtime.Second)
	if len(run.Output()) >= 12 {
		t.Fatal("non-recoverable worker recovered")
	}
	if got := c.Recorder().Stats().RecoveriesStarted; got != 0 {
		t.Fatalf("recovery started for non-recoverable process (%d)", got)
	}
}

// Out-of-order channel reads survive recovery: the worker reads urgent
// messages first; replay must reproduce that order (§4.4.2).
func TestChannelOrderSurvivesRecovery(t *testing.T) {
	cfg := DefaultConfig(2)
	c := New(cfg)
	var order []string
	c.Registry().RegisterProgram("selective", func(args []byte) Program {
		return func(ctx *PCtx) {
			urgent := ctx.CreateLink(demos.ChanUrgent, 0)
			normal := ctx.CreateLink(demos.ChanRequest, 0)
			_ = ctx.Send(normal, []byte("n1"), NoLink)
			_ = ctx.Send(normal, []byte("n2"), NoLink)
			_ = ctx.Send(urgent, []byte("u1"), NoLink)
			m1 := ctx.Receive(demos.ChanUrgent)
			m2 := ctx.Receive()
			m3 := ctx.Receive()
			order = append(order, string(m1.Body), string(m2.Body), string(m3.Body))
			// Park so the process can be crashed and replayed.
			ctx.Receive()
		}
	})
	pid, err := c.Spawn(0, ProcSpec{Name: "selective", Recoverable: true})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(5 * simtime.Second)
	want := []string{"u1", "n1", "n2"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("pre-crash order = %v", order)
	}
	// The recorder's reconstructed stream must already reflect read order.
	stream := c.Recorder().StreamSummary(pid)
	if len(stream) != 3 {
		t.Fatalf("stream has %d messages", len(stream))
	}
	order = nil
	c.CrashProcess(pid)
	c.Run(30 * simtime.Second)
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("post-recovery order = %v, want %v", order, want)
	}
	if c.ProcState(pid) != demos.StateRecovering && c.ProcState(pid) != demos.StateFunctioning {
		t.Fatalf("state = %v", c.ProcState(pid))
	}
}

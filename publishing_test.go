package publishing

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"testing"

	"publishing/internal/demos"
	"publishing/internal/recorder"
	"publishing/internal/simtime"
)

// --- shared test images -----------------------------------------------------

// witnessSink collects what a witness machine receives; shared by closure.
type witnessSink struct {
	msgs []string
}

// registerWitness registers a machine that records every message body.
func registerWitness(c *Cluster, sink *witnessSink) {
	c.Registry().RegisterMachine("witness", func(args []byte) Machine {
		return &testMachine{handle: func(ctx *PCtx, m Msg) {
			sink.msgs = append(sink.msgs, string(m.Body))
		}}
	})
}

// workerState is the checkpointable state of the worker machine.
type workerState struct {
	Witness LinkID
	HasOut  bool
	Count   int
	Sum     int
}

// registerWorker registers a machine that accumulates integers and reports
// each step to the witness service.
func registerWorker(c *Cluster) {
	c.Registry().RegisterMachine("worker", func(args []byte) Machine {
		st := &workerState{}
		return &testMachine{
			init: func(ctx *PCtx) {
				lid, err := ctx.ServiceLink("witness")
				if err == nil {
					st.Witness = lid
					st.HasOut = true
				}
			},
			handle: func(ctx *PCtx, m Msg) {
				v := int(m.Body[0])
				st.Count++
				st.Sum += v
				if st.HasOut {
					_ = ctx.Send(st.Witness, []byte(fmt.Sprintf("step=%d sum=%d", st.Count, st.Sum)), NoLink)
				}
			},
			snap: func() ([]byte, error) { return gobEnc(st) },
			rest: func(b []byte) error { return gobDec(b, st) },
		}
	})
}

// registerProducer registers a program that sends n integers to the worker
// service, paced by compute time.
func registerProducer(c *Cluster, n int, pace Time) {
	c.Registry().RegisterProgram("producer", func(args []byte) Program {
		return func(ctx *PCtx) {
			wl, err := ctx.ServiceLink("worker")
			if err != nil {
				return
			}
			for i := 1; i <= n; i++ {
				_ = ctx.Send(wl, []byte{byte(i)}, NoLink)
				ctx.Compute(pace)
			}
		}
	})
}

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

func gobEnc(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

func gobDec(b []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(b)).Decode(v)
}

// expectSteps asserts the witness saw steps 1..n exactly once, in order,
// with correct running sums (sum of 1..k).
func expectSteps(t *testing.T, sink *witnessSink, n int) {
	t.Helper()
	if len(sink.msgs) != n {
		t.Fatalf("witness saw %d messages, want %d: %v", len(sink.msgs), n, sink.msgs)
	}
	for i := 0; i < n; i++ {
		k := i + 1
		want := fmt.Sprintf("step=%d sum=%d", k, k*(k+1)/2)
		if sink.msgs[i] != want {
			t.Fatalf("witness[%d] = %q, want %q (full: %v)", i, sink.msgs[i], want, sink.msgs)
		}
	}
}

// buildScenario assembles the standard 3-node scenario: producer on node 0,
// worker on node 1, witness on node 2, recorder on node 3.
func buildScenario(t *testing.T, cfg Config, nMsgs int) (*Cluster, *witnessSink, ProcID) {
	t.Helper()
	c := New(cfg)
	t.Cleanup(c.Close)
	sink := &witnessSink{}
	registerWitness(c, sink)
	registerWorker(c)
	registerProducer(c, nMsgs, 200*simtime.Millisecond)

	wit, err := c.Spawn(2, ProcSpec{Name: "witness", Recoverable: true})
	if err != nil {
		t.Fatal(err)
	}
	c.SetService("witness", wit)
	worker, err := c.Spawn(1, ProcSpec{Name: "worker", Recoverable: true})
	if err != nil {
		t.Fatal(err)
	}
	c.SetService("worker", worker)
	if _, err := c.Spawn(0, ProcSpec{Name: "producer", Recoverable: true}); err != nil {
		t.Fatal(err)
	}
	return c, sink, worker
}

// --- the headline behaviour --------------------------------------------------

// Without any crash, the pipeline runs to completion. Baseline sanity for
// the crash tests below, on every medium.
func TestPipelineNoCrash(t *testing.T) {
	for _, medium := range []MediumKind{MediumPerfect, MediumEther, MediumAckEther, MediumRing, MediumStar} {
		t.Run(string(medium), func(t *testing.T) {
			cfg := DefaultConfig(3)
			cfg.Medium = medium
			c, sink, _ := buildScenario(t, cfg, 10)
			c.Run(30 * simtime.Second)
			expectSteps(t, sink, 10)
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
			c, sink, worker := buildScenario(t, cfg, 12)

			// Crash the worker mid-stream.
			c.Scheduler().At(1200*simtime.Millisecond, func() { c.CrashProcess(worker) })
			c.Run(60 * simtime.Second)

			expectSteps(t, sink, 12)
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
	c, sink, _ := buildScenario(t, cfg, 12)
	c.Scheduler().At(1100*simtime.Millisecond, func() { c.CrashNode(1) })
	c.Run(90 * simtime.Second)
	expectSteps(t, sink, 12)
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
	c, sink, worker := buildScenario(t, cfg, 12)
	c.Scheduler().At(1100*simtime.Millisecond, func() { c.CrashNode(1) })
	c.Run(90 * simtime.Second)
	expectSteps(t, sink, 12)
	if st := c.Kernel(spare).ProcState(worker); st != demos.StateFunctioning {
		t.Fatalf("worker on spare = %v, want functioning", st)
	}
}

// ActionNoRecover abandons the node's processes (§4.6 "do not recover").
func TestNoRecoverPolicy(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.OnProcessorCrash = func(node NodeID) recorder.Decision {
		return recorder.Decision{Action: recorder.ActionNoRecover}
	}
	c, sink, _ := buildScenario(t, cfg, 12)
	c.Scheduler().At(1100*simtime.Millisecond, func() { c.CrashNode(1) })
	c.Run(30 * simtime.Second)
	if len(sink.msgs) >= 12 {
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
	sink := &witnessSink{}
	registerWitness(c, sink)
	registerWorker(c)
	registerProducer(c, 16, 200*simtime.Millisecond)

	wit, _ := c.Spawn(2, ProcSpec{Name: "witness", Recoverable: true})
	c.SetService("witness", wit)
	worker, err := c.Spawn(1, ProcSpec{
		Name:              "worker",
		Recoverable:       true,
		RecoveryTimeBound: 400 * simtime.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.SetService("worker", worker)
	if _, err := c.Spawn(0, ProcSpec{Name: "producer", Recoverable: true}); err != nil {
		t.Fatal(err)
	}

	c.Scheduler().At(2500*simtime.Millisecond, func() { c.CrashProcess(worker) })
	c.Run(90 * simtime.Second)

	expectSteps(t, sink, 16)
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
	c, sink, _ := buildScenario(t, cfg, 12)

	c.Scheduler().At(800*simtime.Millisecond, func() { c.CrashRecorder() })
	c.Run(3 * simtime.Second)
	blocked := len(sink.msgs)
	c.Run(2 * simtime.Second)
	if len(sink.msgs) != blocked {
		t.Fatalf("traffic flowed while recorder was down (%d -> %d)", blocked, len(sink.msgs))
	}
	if err := c.RestartRecorder(); err != nil {
		t.Fatal(err)
	}
	if c.Recorder().RestartNumber() != 1 {
		t.Fatalf("restart number = %d", c.Recorder().RestartNumber())
	}
	c.Run(90 * simtime.Second)
	expectSteps(t, sink, 12)
}

// A process that crashes while the recorder is down is found by the restart
// protocol's state queries and recovered (§3.3.4: "any processes that
// crashed while the recorder was down will be recovered").
func TestCrashWhileRecorderDown(t *testing.T) {
	cfg := DefaultConfig(3)
	c, sink, worker := buildScenario(t, cfg, 12)
	c.Scheduler().At(800*simtime.Millisecond, func() { c.CrashRecorder() })
	c.Scheduler().At(1000*simtime.Millisecond, func() { c.CrashProcess(worker) })
	c.Run(3 * simtime.Second)
	if err := c.RestartRecorder(); err != nil {
		t.Fatal(err)
	}
	c.Run(90 * simtime.Second)
	expectSteps(t, sink, 12)
	if got := c.Recorder().Stats().RecoveriesCompleted; got != 1 {
		t.Fatalf("recoveries completed = %d, want 1", got)
	}
}

// A recursive crash (§3.5): the worker crashes again while being recovered;
// recovery reinitiates and still converges.
func TestRecursiveProcessCrash(t *testing.T) {
	cfg := DefaultConfig(3)
	c, sink, worker := buildScenario(t, cfg, 12)
	c.Scheduler().At(1200*simtime.Millisecond, func() { c.CrashProcess(worker) })
	// Crash it again just as replay should be under way.
	c.Scheduler().At(1450*simtime.Millisecond, func() { c.CrashProcess(worker) })
	c.Run(120 * simtime.Second)
	expectSteps(t, sink, 12)
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
		c, sink, worker := buildScenario(t, cfg, 10)
		c.Scheduler().At(1200*simtime.Millisecond, func() { c.CrashProcess(worker) })
		c.Run(60 * simtime.Second)
		return fmt.Sprintf("%v|%v|%d", sink.msgs, c.Now(), c.Recorder().Stats().MessagesReplayed)
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
	c, sink, worker := buildScenario(t, cfg, 12)
	c.Scheduler().At(1200*simtime.Millisecond, func() { c.CrashProcess(worker) })
	c.Run(30 * simtime.Second)
	if len(sink.msgs) >= 12 {
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
	sink := &witnessSink{}
	registerWitness(c, sink)
	registerWorker(c)
	registerProducer(c, 12, 200*simtime.Millisecond)
	wit, _ := c.Spawn(2, ProcSpec{Name: "witness", Recoverable: true})
	c.SetService("witness", wit)
	worker, _ := c.Spawn(1, ProcSpec{Name: "worker", Recoverable: false})
	c.SetService("worker", worker)
	c.Spawn(0, ProcSpec{Name: "producer", Recoverable: true})
	c.Scheduler().At(1200*simtime.Millisecond, func() { c.CrashProcess(worker) })
	c.Run(30 * simtime.Second)
	if len(sink.msgs) >= 12 {
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

package publishing

import (
	"bytes"
	"fmt"
	"testing"

	"publishing/internal/frame"
	"publishing/internal/simtime"
)

// replayDigest runs the standard pipeline with a mid-stream worker crash and
// returns a sweep-style digest of everything the computation can observe:
// the witness's exact delivery sequence plus the replay counters. Replay
// transport details (batch sizes, windows) must never show up here — only
// order and content.
func replayDigest(t *testing.T, tune func(*Config)) []byte {
	t.Helper()
	cfg := DefaultConfig(3)
	if tune != nil {
		tune(&cfg)
	}
	c, run := buildScenario(t, cfg, 16)
	c.Scheduler().At(1500*simtime.Millisecond, func() { c.CrashProcess(run.Worker) })
	c.Run(90 * simtime.Second)
	expectSteps(t, run)
	var buf bytes.Buffer
	for _, m := range run.Output() {
		fmt.Fprintln(&buf, m)
	}
	rs := c.Recorder().Stats()
	fmt.Fprintf(&buf, "replayed=%d recoveries=%d\n", rs.MessagesReplayed, rs.RecoveriesCompleted)
	return buf.Bytes()
}

// Batching is a transport optimization, not a semantics change: the batched
// pipeline must deliver the replayed stream in exactly the order and content
// the serial one-message-per-frame ablation does, for the same (config,
// seed) — and each variant must be deterministic in its own right.
func TestBatchedReplayMatchesSerialDigest(t *testing.T) {
	serialize := func(cfg *Config) {
		cfg.ReplayWindow = 1
		cfg.ReplayBatchBytes = 1 // one message per batch: the serial ablation
	}
	batched := replayDigest(t, nil)
	serial := replayDigest(t, serialize)
	if !bytes.Equal(batched, serial) {
		t.Fatalf("batched and serial replay digests diverge:\nbatched:\n%s\nserial:\n%s", batched, serial)
	}
	if again := replayDigest(t, nil); !bytes.Equal(batched, again) {
		t.Fatal("batched replay is not deterministic across runs of the same seed")
	}
}

// A recursive crash (§3.5) mid-replay: the second fault arrives while
// replay batches from the first recovery attempt are still in flight. The
// kernel must drop the stale generation's batches instead of feeding them
// to the new incarnation, and the computation still completes exactly-once.
func TestRecursiveCrashMidBatch(t *testing.T) {
	cfg := DefaultConfig(3)
	// Small batches: the first attempt's replay spans several frames, so
	// some are guaranteed to be in flight when the second crash lands.
	cfg.ReplayBatchBytes = 96
	c, run := buildScenario(t, cfg, 20)
	c.Scheduler().At(3*simtime.Second, func() { c.CrashProcess(run.Worker) })
	if !c.RunUntil(func() bool { return c.Recorder().Stats().ReplayBatches >= 1 }, 60*simtime.Second) {
		t.Fatal("first recovery never started replaying")
	}
	// Replay has begun but not finished: crash the half-recovered process.
	c.CrashProcess(run.Worker)
	c.Run(120 * simtime.Second)
	expectSteps(t, run)
	rs := c.Recorder().Stats()
	if rs.RecoveriesStarted < 2 {
		t.Fatalf("recoveries started = %d, want >= 2 (recursive crash must relaunch)", rs.RecoveriesStarted)
	}
	if rs.RecoveriesCompleted == 0 {
		t.Fatal("recovery never completed after the recursive crash")
	}
	if got := c.Kernel(1).Stats().StaleReplayDropped; got == 0 {
		t.Fatal("no stale replay frames dropped; the test never exercised generation supersession")
	}
}

// With routing updates suppressed entirely (RouteRepeats < 0), a kernel
// that never hears where a process migrated must still reach it: sends go
// to the process's home node, whose kernel refuses them and tells the
// sender the new node (§7.1's fallback path). The pipeline completes with
// zero routing broadcasts.
func TestMigrationWithoutRouteUpdatesUsesHomeForwarding(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.RouteRepeats = 0
	c, run := buildScenario(t, cfg, 12)
	migrated := false
	c.Scheduler().At(1300*simtime.Millisecond, func() {
		if err := c.Migrate(run.Worker, 2); err != nil {
			t.Errorf("migrate: %v", err)
			return
		}
		migrated = true
	})
	c.Run(60 * simtime.Second)
	if !migrated {
		t.Fatal("migration never ran")
	}
	expectSteps(t, run)
	if fwd := c.Kernel(1).Stats().MsgsForwarded; fwd == 0 {
		t.Fatal("home node forwarded nothing; producer must have learned the route some other way")
	}
}

// padWorkerState is workerState plus a multi-KB incompressible pad, so its
// checkpoint cannot fit one frame and must travel as chunks.
type padWorkerState struct {
	W   workerState
	Pad []byte
}

func codePadWorker(c *frame.Coder, st *padWorkerState) {
	codeWorker(c, &st.W)
	c.Blob(&st.Pad)
}

// startPadPipeline starts a 14-message Pipeline whose worker is a padded
// copy of the pipeline's: the pad is the point, so this worker keeps its own
// machine, spawned under the "worker" service. The worker is checkpointed at
// 1.5 s and crashed at 2 s; restoring it checks the pad survived.
func startPadPipeline(t *testing.T) (*Cluster, *PipelineRun) {
	c := New(DefaultConfig(3))
	t.Cleanup(c.Close)
	pad := make([]byte, 5000)
	for i := range pad {
		pad[i] = byte(i*7 + 3)
	}
	run := Pipeline{Msgs: 14, Pace: 200 * simtime.Millisecond}.register(c)
	c.Registry().RegisterMachine("padworker", func(args []byte) Machine {
		st := &padWorkerState{Pad: pad}
		return &testMachine{
			init: func(ctx *PCtx) {
				if lid, err := ctx.ServiceLink("witness"); err == nil {
					st.W.Witness, st.W.HasOut = lid, true
				}
			},
			handle: func(ctx *PCtx, m Msg) {
				st.W.Count++
				st.W.Sum += int(m.Body[0])
				if st.W.HasOut {
					_ = ctx.Send(st.W.Witness, []byte(fmt.Sprintf("step=%d sum=%d", st.W.Count, st.W.Sum)), NoLink)
				}
			},
			snap: func() ([]byte, error) { return frame.AppendBody(nil, st, codePadWorker), nil },
			rest: func(b []byte) error {
				if err := frame.DecodeBody(b, st, codePadWorker); err != nil {
					return err
				}
				if !bytes.Equal(st.Pad, pad) {
					return fmt.Errorf("pad corrupted across chunked checkpoint restore")
				}
				return nil
			},
		}
	})
	wit := mustSpawn(c, 2, ProcSpec{Name: "witness", Recoverable: true})
	c.SetService("witness", wit)
	worker := mustSpawn(c, 1, ProcSpec{Name: "padworker", Recoverable: true})
	c.SetService("worker", worker)
	mustSpawn(c, 0, ProcSpec{Name: "producer", Recoverable: true})
	c.Scheduler().At(1500*simtime.Millisecond, func() { _, _ = c.Kernel(1).CheckpointNow(worker) })
	c.Scheduler().At(2*simtime.Second, func() { c.CrashProcess(worker) })
	return c, run
}

// A checkpoint bigger than one MTU ships as a chunked catch-up transfer on
// the replay channel; the kernel reassembles it before the recreate and the
// process resumes from the full state.
func TestChunkedCheckpointTransfer(t *testing.T) {
	c, run := startPadPipeline(t)
	c.Run(90 * simtime.Second)
	expectSteps(t, run)
	rs := c.Recorder().Stats()
	if rs.CheckpointsStored == 0 {
		t.Fatal("checkpoint never stored; nothing to chunk")
	}
	if rs.CkChunksSent < 2 {
		t.Fatalf("checkpoint chunks sent = %d, want >= 2 (a ~5 KB checkpoint spans multiple MTUs)", rs.CkChunksSent)
	}
	if rs.RecoveriesCompleted == 0 {
		t.Fatal("recovery from the chunked checkpoint never completed")
	}
	// The replay basis is the checkpoint, not the initial image.
	if rs.MessagesReplayed >= 14 {
		t.Fatalf("replayed %d messages; the checkpoint should have shortened replay", rs.MessagesReplayed)
	}
}

// The recorder itself crashes while a chunked checkpoint transfer is in
// flight. The half-shipped transfer dies with it; after the recorder's
// database rebuild the watchdog re-detects the still-dead worker, and a
// fresh recovery re-ships the checkpoint from stable store. The computation
// must converge exactly as if the outage had not happened.
func TestRecorderRestartMidChunkedTransfer(t *testing.T) {
	c, run := startPadPipeline(t)
	// Run until the recovery's chunked transfer has started but (with more
	// chunks pending for a ~5 KB checkpoint) not finished — then kill the
	// recorder mid-stream.
	if !c.RunUntil(func() bool { return c.Recorder().Stats().CkChunksSent >= 1 }, 60*simtime.Second) {
		t.Fatal("chunked checkpoint transfer never started")
	}
	chunksBefore := c.Recorder().Stats().CkChunksSent
	recoveriesBefore := c.Recorder().Stats().RecoveriesCompleted
	if recoveriesBefore != 0 {
		t.Fatalf("recovery already complete (%d) before the recorder crash; transfer was not in flight", recoveriesBefore)
	}
	c.CrashRecorder()
	c.Scheduler().After(2*simtime.Second, func() {
		if err := c.RestartRecorder(); err != nil {
			t.Errorf("recorder restart: %v", err)
		}
	})
	c.Run(3 * simtime.Minute)
	expectSteps(t, run)
	rs := c.Recorder().Stats()
	if rs.RecoveriesCompleted == 0 {
		t.Fatal("recovery never completed after the recorder outage")
	}
	if rs.CkChunksSent <= chunksBefore {
		t.Fatalf("chunks sent stayed at %d; the restarted recovery never re-shipped the checkpoint", rs.CkChunksSent)
	}
	// Replay still starts from the checkpoint after the rebuild, not from
	// the initial image.
	if rs.MessagesReplayed >= 14 {
		t.Fatalf("replayed %d messages; the stable-store checkpoint was lost across the restart", rs.MessagesReplayed)
	}
}

// A message whose stored record is larger than a store page lies on a page
// chain of its own. It is read back from the chain: by StreamMessages, and
// by the replay that recovers its receiver — with the stream's index made
// as the message arrived, and with the index a recorder restart rebuilt
// from the store.
func TestReplayReadsBodiesLargerThanAPage(t *testing.T) {
	for _, restart := range []bool{false, true} {
		t.Run(fmt.Sprintf("recorder-restart=%v", restart), func(t *testing.T) {
			c := New(DefaultConfig(2))
			t.Cleanup(c.Close)
			big := make([]byte, 5*1024)
			for i := range big {
				big[i] = byte(i*7 + 3)
			}
			sent := [][]byte{[]byte("small before"), big, []byte("small after")}
			// got holds what each incarnation of the sink received.
			var got [][][]byte
			c.Registry().RegisterProgram("sink", func([]byte) Program {
				got = append(got, nil)
				inc := len(got) - 1
				return func(ctx *PCtx) {
					for {
						m := ctx.Receive()
						got[inc] = append(got[inc], bytes.Clone(m.Body))
					}
				}
			})
			c.Registry().RegisterProgram("source", func([]byte) Program {
				return func(ctx *PCtx) {
					l, err := ctx.ServiceLink("sink")
					if err != nil {
						panic(err)
					}
					for _, b := range sent {
						_ = ctx.Send(l, b, NoLink)
					}
				}
			})
			sink, err := c.Spawn(1, ProcSpec{Name: "sink", Recoverable: true})
			if err != nil {
				t.Fatal(err)
			}
			c.SetService("sink", sink)
			if _, err := c.Spawn(0, ProcSpec{Name: "source", Recoverable: true}); err != nil {
				t.Fatal(err)
			}
			c.Run(5 * simtime.Second)
			same := func(what string, bodies [][]byte) {
				t.Helper()
				if len(bodies) != len(sent) {
					t.Fatalf("%s: %d bodies, want %d", what, len(bodies), len(sent))
				}
				for i := range sent {
					if !bytes.Equal(bodies[i], sent[i]) {
						t.Fatalf("%s: body %d is %d bytes, not the %d sent", what, i, len(bodies[i]), len(sent[i]))
					}
				}
			}
			if len(got) != 1 {
				t.Fatalf("%d sink incarnations before the crash, want 1", len(got))
			}
			same("first incarnation", got[0])
			if restart {
				c.CrashRecorder()
				if err := c.RestartRecorder(); err != nil {
					t.Fatal(err)
				}
			}
			var stream [][]byte
			for _, m := range c.Recorder().StreamMessages(sink) {
				stream = append(stream, m.Body)
			}
			same("StreamMessages", stream)
			c.CrashProcess(sink)
			c.Run(60 * simtime.Second)
			if c.Recorder().Stats().RecoveriesCompleted == 0 {
				t.Fatal("the sink never recovered")
			}
			same("replay", got[len(got)-1])
		})
	}
}

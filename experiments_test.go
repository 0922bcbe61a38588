package publishing_test

// TestExperimentNumbers owns every virtual-time number EXPERIMENTS.md quotes
// from a cluster scenario outside the figure reports of internal/figures:
// the recovery-replay sweep, the 64-node recorder-availability cycle, the
// §3.2.3 checkpoint-policy ablation, §5.2.2's recorder
// levels end to end, the per-medium comparison and the simulator scenario's
// event counts. Each row is one run of a deterministic scenario, printed at
// full nanosecond precision into EXPERIMENTS.md's generated block
// "TestExperimentNumbers", which is its one copy: a row that differs from
// its line there fails, and -update rewrites the block, as it would the
// golden fingerprint table. Host-time numbers are not here; they belong
// to `go run ./bench`.

import (
	"fmt"
	"strings"
	"testing"

	"publishing"
	"publishing/internal/measure"
	"publishing/internal/recorder"
	"publishing/internal/simtime"
)

// pinned is one row's result: a virtual time and the count that explains it.
type pinned struct {
	at     simtime.Time
	count  uint64
	events uint64 // scheduler events executed; the simulator rows only
}

func TestExperimentNumbers(t *testing.T) {
	replay := func(n int) func(*testing.T) pinned {
		return func(*testing.T) pinned {
			r := measure.RecoveryReplay(n)
			return pinned{at: r.Window, count: r.Replayed}
		}
	}
	recovery64 := func(recorders, shardSlots int) func(*testing.T) pinned {
		return func(t *testing.T) pinned {
			window, records := measureRecovery64(t, recorders, shardSlots)
			return pinned{at: window, count: records}
		}
	}
	policy := func(pol publishing.CheckpointPolicyKind) func(*testing.T) pinned {
		return func(t *testing.T) pinned {
			window, replayed := measureRecoveryWindow(t, pol)
			return pinned{at: window, count: replayed}
		}
	}
	wire := func(n int, tune func(*publishing.Config)) func(*testing.T) pinned {
		return func(t *testing.T) pinned {
			done, expired := runWireWorkload(t, n, tune)
			return pinned{at: done, count: expired}
		}
	}
	ether := func(mode recorder.ProcessMode) func(*publishing.Config) {
		return func(cfg *publishing.Config) {
			cfg.Medium, cfg.RecorderMode = publishing.MediumEther, mode
		}
	}
	medium := func(m publishing.MediumKind) func(*publishing.Config) {
		return func(cfg *publishing.Config) { cfg.Medium = m }
	}

	rows := []struct {
		name  string
		count string // what pinned.count counts
		run   func(*testing.T) pinned
	}{
		// measure.RecoveryReplay: crash-to-recovered window for an n-message
		// published stream.
		{"replay/1", "replayed", replay(1)},
		{"replay/64", "replayed", replay(64)},
		{"replay/1024", "replayed", replay(1024)},
		{"replay/16384", "replayed", replay(16384)},
		// The 64-node crash-to-recovered cycle against the single recorder
		// and the sharded trio (3 recorders, 16 slots); the count is the
		// records held by the recorder that served the replay.
		{"recorder/single", "serving_records", recovery64(1, 0)},
		{"recorder/sharded", "serving_records", recovery64(3, 16)},
		// §3.2.3: recovery of a 30-message history, replay-from-start vs
		// bound-driven checkpoints.
		{"checkpoint/none", "replayed", policy(publishing.CheckpointNone)},
		{"checkpoint/bound", "replayed", policy(publishing.CheckpointBound)},
		// §5.2.2: the same 50 messages on Ether at each recorder level. No
		// held frame may expire before its recorder ack.
		{"modes/naive", "recorder_expired", wire(50, ether(recorder.ModeNaive))},
		{"modes/optimized", "recorder_expired", wire(50, ether(recorder.ModeOptimized))},
		{"modes/media-layer", "recorder_expired", wire(50, ether(recorder.ModeMediaLayer))},
		// 200 messages on each medium at the default (media-layer) level.
		{"media/perfect", "recorder_expired", wire(200, medium(publishing.MediumPerfect))},
		{"media/ether", "recorder_expired", wire(200, medium(publishing.MediumEther))},
		{"media/ackether", "recorder_expired", wire(200, medium(publishing.MediumAckEther))},
		{"media/ring", "recorder_expired", wire(200, medium(publishing.MediumRing))},
		{"media/star", "recorder_expired", wire(200, medium(publishing.MediumStar))},
		// The simulator scenario (sim_scale_test.go) run to its horizon: the
		// end time, messages delivered (every send) and events executed.
		{"sim/256", "delivered", simRow(256)},
		{"sim/1024", "delivered", simRow(1024)},
	}
	const block = "TestExperimentNumbers"
	if testing.Short() && updating() {
		t.Fatal("-update rewrites the whole table: run it without -short")
	}
	doc, lo, hi := docBlock(t, block)
	committed := map[string]string{}
	for _, l := range strings.Split(doc[lo:hi], "\n") {
		if f := strings.Fields(l); len(f) > 0 {
			committed[f[0]] = l
		}
	}
	var table strings.Builder
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			got := r.run(t)
			line := fmt.Sprintf("%-18s %7d.%06d ms  %s=%d", r.name, got.at/simtime.Millisecond, got.at%simtime.Millisecond, r.count, got.count)
			if got.events > 0 {
				line += fmt.Sprintf("  events=%d", got.events)
			}
			fmt.Fprintln(&table, line)
			if line != committed[r.name] && !updating() {
				t.Errorf("this run: %s\n%s has:  %s", line, experimentsDoc, committed[r.name])
			}
		})
	}
	// The -short run skips the simulator rows, so only a full run checks
	// (or rewrites) the block as a whole.
	if !testing.Short() && !t.Failed() {
		checkDocBlock(t, block, table.String())
	}
}

// simRow runs the simulator scenario at nodes to its quiescent horizon.
func simRow(nodes int) func(*testing.T) pinned {
	return func(t *testing.T) pinned {
		if testing.Short() {
			t.Skipf("%d-node scenario skipped in -short", nodes)
		}
		s := buildSimCluster(t, nodes, simClusterSeed, false)
		s.run(t)
		return pinned{at: s.c.Now(), count: uint64(*s.delivered), events: s.c.Scheduler().Fired()}
	}
}

// runWireWorkload streams n 128-byte messages from node 0 to node 1 of a
// two-node cluster that tune adjusts, and returns the virtual time the last
// one was delivered and how many held frames the receivers discarded for
// want of a recorder ack.
func runWireWorkload(t *testing.T, n int, tune func(*publishing.Config)) (simtime.Time, uint64) {
	t.Helper()
	cfg := publishing.DefaultConfig(2)
	tune(&cfg)
	c := publishing.New(cfg)
	defer c.Close()
	run := publishing.Stream{Msgs: n, Bytes: 128}.Start(c)
	c.Run(30 * simtime.Minute)
	if run.Got != n {
		t.Fatalf("workload did not finish: %d/%d", run.Got, n)
	}
	var expired uint64
	for _, s := range c.Metrics().Snapshot().Samples {
		if s.Subsystem == "transport" && s.Name == "recorder_expired" {
			expired += uint64(s.Value)
		}
	}
	return run.Last, expired
}

// measureRecoveryWindow crashes the worker of a 30-message Pipeline, 150 ms
// apart, after 4 s, under checkpoint policy pol with a 500 ms recovery-time
// bound, and returns the crash-to-recovered window and the messages
// replayed.
func measureRecoveryWindow(t *testing.T, pol publishing.CheckpointPolicyKind) (simtime.Time, uint64) {
	t.Helper()
	cfg := publishing.DefaultConfig(3)
	cfg.CheckpointPolicy = pol
	cfg.CheckpointTick = 200 * simtime.Millisecond
	c := publishing.New(cfg)
	defer c.Close()
	run := publishing.Pipeline{Msgs: 30, Pace: 150 * simtime.Millisecond, WorkerBound: 500 * simtime.Millisecond}.Start(c)
	c.Scheduler().At(4*simtime.Second, func() { c.CrashProcess(run.Worker) })
	c.Run(3 * simtime.Minute)
	if err := run.Check(); err != nil {
		t.Fatal(err)
	}
	return measure.RecoveryWindow(c, run.Worker), c.Recorder().Stats().MessagesReplayed
}

// The §3.2.3 promise, measured end to end: with the bound policy active, a
// process's actual recovery time (crash notice to recovery-done) stays
// within the same order as its configured bound, and is much shorter than
// an uncheckpointed recovery of the same history.
func TestRecoveryTimeBoundedByCheckpoints(t *testing.T) {
	bounded, _ := measureRecoveryWindow(t, publishing.CheckpointBound)
	unbounded, _ := measureRecoveryWindow(t, publishing.CheckpointNone)
	if bounded <= 0 || bounded >= unbounded {
		t.Fatalf("checkpointing did not shorten recovery: %v vs %v", bounded, unbounded)
	}
	if bounded > 900*simtime.Millisecond {
		t.Fatalf("bounded recovery too slow: %v (bound 500ms + detection grace)", bounded)
	}
}

// measureRecovery64 runs a 12-message Pipeline on a 64-node fast LAN with
// recorders recorders over shardSlots slots, crashes the worker at
// t=1200 ms, and returns the crash-to-recovered window plus the stable-store
// records held by the recorder that served the replay, the worker slot's
// leader: a single recorder's whole database, or its partition of a
// sharded map.
func measureRecovery64(t *testing.T, recorders, shardSlots int) (simtime.Time, uint64) {
	t.Helper()
	cfg := publishing.DefaultConfig(64)
	publishing.FastLAN(&cfg)
	cfg.Recorders = recorders
	cfg.ShardSlots = shardSlots
	c := publishing.New(cfg)
	defer c.Close()
	run := publishing.Pipeline{Msgs: 12, Pace: 200 * simtime.Millisecond}.Start(c)
	c.Scheduler().At(1200*simtime.Millisecond, func() { c.CrashProcess(run.Worker) })
	c.Run(60 * simtime.Second)
	if err := run.Check(); err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	sm := c.ShardMap()
	serving := sm.Leader(sm.ShardOf(run.Worker))
	recs, err := c.StoreAt(serving).ReadAll()
	if err != nil {
		t.Fatalf("replay-serving recorder store: %v", err)
	}
	return measure.RecoveryWindow(c, run.Worker), uint64(len(recs))
}

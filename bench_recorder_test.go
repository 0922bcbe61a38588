package publishing_test

// Recovery-path comparison behind BENCH_recorder.json: the same 64-node
// crash->detect->replay->recovered cycle run against the classic single
// recorder and against the sharded replicated trio (three recorders,
// sixteen shard slots). The headline metric is the virtual crash-to-
// recovered window: with a single recorder every stream's replay funnels
// through one node; with sharding the worker's shard leader serves the
// replay basis from its partition while the other recorders carry the rest
// of the cluster's tap load.

import (
	"testing"

	"publishing"
	"publishing/internal/simtime"
	"publishing/internal/trace"
)

// benchRecoveryCluster assembles the 64-node producer/worker/witness
// pipeline with bystander stations, crashes the worker at t=1200 ms, and
// returns the virtual crash-to-recovery-done window plus the number of
// stable-store records held by the recorder that served the replay — the
// single recorder's whole database in classic mode, the worker-shard
// leader's partition in sharded mode.
func benchRecoveryCluster(tb testing.TB, recorders, shardSlots int) (simtime.Time, int) {
	tb.Helper()
	cfg := publishing.DefaultConfig(64)
	// Same modern-LAN shape the 64-node chaos and throughput scenarios use:
	// on the paper's 10 Mb/s Ethernet the recorder's watchdog pings alone
	// saturate the bus at this width (see ChaosScenario), and the benchmark
	// would measure congestion rather than the replay pipeline.
	cfg.LAN.BitsPerSecond = 100_000_000
	cfg.LAN.InterframeGap = 50 * simtime.Microsecond
	cfg.Recorders = recorders
	cfg.ShardSlots = shardSlots
	c := publishing.New(cfg)
	defer c.Close()

	var got int
	c.Registry().RegisterMachine("witness", func(args []byte) publishing.Machine {
		return countSink{n: &got}
	})
	c.Registry().RegisterMachine("worker", func(args []byte) publishing.Machine {
		return &benchWorker{}
	})
	c.Registry().RegisterProgram("producer", func(args []byte) publishing.Program {
		return func(ctx *publishing.PCtx) {
			l, _ := ctx.ServiceLink("worker")
			for j := 0; j < 12; j++ {
				_ = ctx.Send(l, []byte{byte(j + 1)}, publishing.NoLink)
				ctx.Compute(200 * simtime.Millisecond)
			}
		}
	})
	wit, _ := c.Spawn(2, publishing.ProcSpec{Name: "witness", Recoverable: true})
	c.SetService("witness", wit)
	worker, _ := c.Spawn(1, publishing.ProcSpec{Name: "worker", Recoverable: true})
	c.SetService("worker", worker)
	c.Spawn(0, publishing.ProcSpec{Name: "producer", Recoverable: true})
	c.Scheduler().At(1200*simtime.Millisecond, func() { c.CrashProcess(worker) })
	c.Run(60 * simtime.Second)
	if got != 12 {
		tb.Fatalf("recovery failed: witness saw %d of 12", got)
	}

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
	if doneAt <= crashAt {
		tb.Fatalf("no recovery window in trace (crash %v, done %v)", crashAt, doneAt)
	}

	serving := 0
	if sm := c.ShardMap(); sm != nil {
		serving = sm.Leader(sm.ShardOf(worker))
	}
	recs, err := c.StoreAt(serving).ReadAll()
	if err != nil {
		tb.Fatalf("replay-serving recorder store: %v", err)
	}
	return doneAt - crashAt, len(recs)
}

func benchRecorderRecovery(b *testing.B, recorders, shardSlots int) {
	var window simtime.Time
	var records int
	for i := 0; i < b.N; i++ {
		window, records = benchRecoveryCluster(b, recorders, shardSlots)
	}
	b.ReportMetric(window.Milliseconds(), "recovery_virtual_ms")
	b.ReportMetric(float64(records), "serving_store_records")
}

// BenchmarkRecoverySingleRecorder64 is the baseline: one recorder owns every
// stream, so the crashed worker's replay basis comes from the only copy.
func BenchmarkRecoverySingleRecorder64(b *testing.B) {
	benchRecorderRecovery(b, 1, 0)
}

// BenchmarkRecoveryShardUnion64 runs the sharded replicated trio: the
// worker's shard leader assembles the replay basis from its partition, and
// the full basis is well-defined only over the shard union.
func BenchmarkRecoveryShardUnion64(b *testing.B) {
	benchRecorderRecovery(b, 3, 16)
}

// TestBenchRecoveryShardUnionRuns keeps the benchmark scenario itself under
// tier-1: both configurations must complete the recovery and report a
// positive virtual window even when no benchmark run is requested.
func TestBenchRecoveryShardUnionRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("64-node recovery scenario skipped in -short")
	}
	for _, tc := range []struct {
		name       string
		recorders  int
		shardSlots int
	}{
		{"single", 1, 0},
		{"sharded", 3, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, n := benchRecoveryCluster(t, tc.recorders, tc.shardSlots)
			t.Logf("%s: crash-to-recovered %v, %d records on the serving recorder", tc.name, w, n)
		})
	}
}

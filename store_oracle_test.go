package publishing

import (
	"fmt"
	"strings"
	"testing"

	"publishing/internal/simtime"
	"publishing/internal/stablestore"
)

// recoveryDatabase runs the standard scenario — a worker crash mid-stream,
// then a recorder crash and restart so the recorder literally rebuilds its
// database from stable storage — on the given store backend, and returns a
// canonical dump of the surviving record stream the rebuild consumed.
func recoveryDatabase(t *testing.T, backend stablestore.Backend) string {
	t.Helper()
	cfg := DefaultConfig(3)
	cfg.Medium = MediumEther
	cfg.Seed = 42
	cfg.Store.Backend = backend
	// Periodic checkpoints put truncation (invalidated message prefixes) in
	// play, which is where the engines' storage layouts diverge the most.
	cfg.CheckpointPolicy = CheckpointBound
	cfg.CheckpointTick = 300 * simtime.Millisecond
	c := New(cfg)
	defer c.Close()
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
	c.Scheduler().At(1200*simtime.Millisecond, func() { c.CrashProcess(worker) })
	c.Scheduler().At(2500*simtime.Millisecond, func() { c.CrashRecorder() })
	c.Run(4 * simtime.Second)
	if err := c.RestartRecorder(); err != nil {
		t.Fatal(err)
	}
	c.Run(120 * simtime.Second)
	expectSteps(t, sink, 16)

	recs, err := c.Recorder().Store().ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range recs {
		fmt.Fprintf(&b, "%d|%s|%d|%x\n", r.Kind, r.Key, r.Seq, r.Data)
	}
	// Fold in the rebuilt recorder's own view so the oracle covers the
	// in-memory database, not just the log it was rebuilt from.
	s := c.Recorder().Stats()
	fmt.Fprintf(&b, "stats|%d|%d|%d|%d\n",
		s.ArrivalsRecorded, s.MessagesReplayed, s.CheckpointsStored, s.RecoveriesCompleted)
	return b.String()
}

// The cross-backend correctness oracle: the same seeded cluster run — worker
// crash, recorder crash, database rebuild, full recovery — must leave
// byte-identical recovery databases whether the recorder logs to the
// thesis-exact paged store or the log-structured segment store. Storage
// layout differs completely between the engines; the record stream a rebuild
// reads back must not.
func TestCrossBackendRecoveryDatabaseOracle(t *testing.T) {
	paged := recoveryDatabase(t, stablestore.BackendPaged)
	seg := recoveryDatabase(t, stablestore.BackendSegment)
	if !strings.Contains(paged, "|msg:") || !strings.Contains(paged, "|ck:") {
		t.Fatalf("oracle run left no message/checkpoint records:\n%s", paged)
	}
	if paged != seg {
		t.Fatalf("recovery databases diverged across backends:\npaged:\n%s\nsegment:\n%s", paged, seg)
	}
}

package recorder_test

import (
	"testing"

	"publishing"
	"publishing/internal/recorder"
	"publishing/internal/simtime"
)

// The recovery-database oracle, on the whole cluster: a producer streams 16
// integers through a checkpointed worker to a witness, the worker crashes at
// 1.2 s, and the recorder crashes at 2.5 s and restarts at 4 s. The database
// Restart rebuilds from stable storage equals, field for field, the one the
// recorder held just before its crash, and the run still ends exactly once.
func TestClusterRestartRebuildsDatabaseFieldForField(t *testing.T) {
	cfg := publishing.DefaultConfig(3)
	cfg.Medium = publishing.MediumEther
	cfg.Seed = 42
	// Periodic checkpoints put checkpoint records and invalidated message
	// prefixes in the store the rebuild reads.
	cfg.CheckpointPolicy = publishing.CheckpointBound
	cfg.CheckpointTick = 300 * simtime.Millisecond
	c := publishing.New(cfg)
	defer c.Close()
	run := publishing.Pipeline{Msgs: 16, Pace: 200 * simtime.Millisecond, WorkerBound: 400 * simtime.Millisecond}.Start(c)

	rec := c.Recorder()
	before := recorder.DatabaseView(rec) // retaken just before the crash
	c.Scheduler().At(1200*simtime.Millisecond, func() { c.CrashProcess(run.Worker) })
	c.Scheduler().At(2500*simtime.Millisecond, func() {
		before = recorder.DatabaseView(rec)
		c.CrashRecorder()
	})
	c.Run(4 * simtime.Second)
	if w := before[run.Worker]; w.Checkpoint == nil || len(w.Arrivals) == 0 {
		t.Fatalf("scenario drifted: the worker held checkpoint %v and %d arrivals at the crash", w.Checkpoint != nil, len(w.Arrivals))
	}
	if err := c.RestartRecorder(); err != nil {
		t.Fatal(err)
	}
	recorder.DiffDatabase(t, before, recorder.DatabaseView(rec))

	c.Run(120 * simtime.Second)
	if err := run.Check(); err != nil {
		t.Fatal(err)
	}
}

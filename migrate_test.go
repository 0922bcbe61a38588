package publishing

import (
	"testing"

	"publishing/internal/demos"
	"publishing/internal/simtime"
)

// §7.1 migration: move the worker mid-pipeline; the computation continues
// exactly-once with no visible seam.
func TestLiveMigration(t *testing.T) {
	cfg := DefaultConfig(3)
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
	if st := c.Kernel(2).ProcState(run.Worker); st != demos.StateFunctioning {
		t.Fatalf("worker on node 2: %v", st)
	}
	if st := c.Kernel(1).ProcState(run.Worker); st != demos.StateUnknown {
		t.Fatalf("worker still known on node 1: %v", st)
	}
}

// A migrated process crashes at its NEW home: the recorder recovers it
// there (its database tracked the move), from the migration checkpoint.
func TestCrashAfterMigrationRecoversAtNewHome(t *testing.T) {
	cfg := DefaultConfig(3)
	c, run := buildScenario(t, cfg, 14)
	c.Scheduler().At(1300*simtime.Millisecond, func() {
		if err := c.Migrate(run.Worker, 2); err != nil {
			t.Errorf("migrate: %v", err)
		}
	})
	c.Scheduler().At(2*simtime.Second, func() { c.CrashProcess(run.Worker) })
	c.Run(90 * simtime.Second)
	expectSteps(t, run)
	if st := c.Kernel(2).ProcState(run.Worker); st != demos.StateFunctioning {
		t.Fatalf("worker not functioning on node 2 after recovery: %v", st)
	}
	if got := c.Recorder().Stats().RecoveriesCompleted; got != 1 {
		t.Fatalf("recoveries = %d", got)
	}
	// The replay came from the migration checkpoint, not the initial image.
	if replayed := c.Recorder().Stats().MessagesReplayed; replayed >= 8 {
		t.Fatalf("replayed %d messages; migration checkpoint should have shortened replay", replayed)
	}
}

// The OLD node crashing after a migration must not drag the migrant down:
// only processes still located there are recovered.
func TestOldNodeCrashLeavesMigrantAlone(t *testing.T) {
	cfg := DefaultConfig(3)
	c, run := buildScenario(t, cfg, 14)
	c.Scheduler().At(1300*simtime.Millisecond, func() {
		if err := c.Migrate(run.Worker, 2); err != nil {
			t.Errorf("migrate: %v", err)
		}
	})
	c.Scheduler().At(2500*simtime.Millisecond, func() { c.CrashNode(1) })
	c.Run(90 * simtime.Second)
	expectSteps(t, run)
	// Node 1 had no recoverable processes left, so no recovery targeted the
	// migrant (it kept running on node 2 throughout).
	if got := c.Recorder().Stats().RecoveriesStarted; got != 0 {
		t.Fatalf("recoveries started = %d; the migrant should not be recovered", got)
	}
}

// Migration errors: unknown process, unknown node, non-machine images, and
// mid-execution processes.
func TestMigrationErrors(t *testing.T) {
	cfg := DefaultConfig(2)
	c := New(cfg)
	c.Registry().RegisterProgram("prog", func(args []byte) Program {
		return func(ctx *PCtx) { ctx.Receive() }
	})
	pid, err := c.Spawn(0, ProcSpec{Name: "prog", Recoverable: true})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(simtime.Second)
	if err := c.Migrate(ProcID{Node: 0, Local: 99}, 1); err == nil {
		t.Fatal("migrated a ghost")
	}
	if err := c.Migrate(pid, 42); err == nil {
		t.Fatal("migrated to a ghost node")
	}
	if err := c.Migrate(pid, 1); err == nil {
		t.Fatal("migrated a Program image (no snapshot support)")
	}
	if err := c.Migrate(pid, 0); err != nil {
		t.Fatalf("self-migration should be a no-op: %v", err)
	}
}

package publishing

import (
	"testing"

	"publishing/internal/frame"
	"publishing/internal/simtime"
)

// A message the worker read before a checkpoint is never read again. The
// worker reads the producer's sixth message, and every ack from the worker's
// node to the producer's is lost, so the producer keeps retransmitting it.
// The worker checkpoints, then its node crashes. The recovered worker starts
// from the checkpoint, which holds the message's effect and its acceptance
// mark; the retransmission reaches a rebooted transport that has never seen
// it, and the recovery replayed nothing of it. The mark must consume it.
func TestCheckpointedReadIsNotReadAgainAfterNodeCrash(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Monitor = true
	c, run := buildScenario(t, cfg, 12)
	faults := c.Medium().Faults()
	at := func(ms simtime.Time, fn func()) { c.Scheduler().At(ms*simtime.Millisecond, fn) }
	at(1050, func() { faults.SetLinkLoss(1, 0, 1) })
	at(1500, func() {
		if got := len(run.Output()); got != 6 {
			t.Errorf("the worker reported %d steps before its checkpoint, want 6", got)
		}
		if blob, err := c.Kernel(1).CheckpointNow(run.Worker); blob == nil || err != nil {
			t.Errorf("checkpoint: taken=%v err=%v", blob != nil, err)
		}
	})
	at(1700, func() {
		c.CrashNode(1)
		faults.SetLinkLoss(1, 0, 0)
	})
	c.Run(60 * simtime.Second)

	expectSteps(t, run)
	if got := c.Kernel(1).Stats().ReplayDupsDropped; got == 0 {
		t.Fatal("no late copy was consumed: the scenario no longer retransmits the checkpointed read")
	}
	if !c.Monitor().Passed() {
		t.Fatalf("monitor:\n%s", c.Monitor().Report())
	}
}

// The same message migrates with the process that read it. The worker reads
// the producer's sixth message, whose ack is lost, and migrates to node 2.
// The route update makes the producer's kernel withdraw the flight and
// resend it to node 2, whose transport has never seen it. The migrant's
// image carries its acceptance marks, so node 2 consumes the copy.
func TestRoutedCopyOfMigratedReadIsConsumed(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Monitor = true
	c, run := buildScenario(t, cfg, 12)
	faults := c.Medium().Faults()
	at := func(ms simtime.Time, fn func()) { c.Scheduler().At(ms*simtime.Millisecond, fn) }
	at(1050, func() { faults.SetLinkLoss(1, 0, 1) })
	at(1500, func() {
		if got := len(run.Output()); got != 6 {
			t.Errorf("the worker reported %d steps before migrating, want 6", got)
		}
		if err := c.Migrate(run.Worker, 2); err != nil {
			t.Errorf("migrate: %v", err)
		}
	})
	c.Run(60 * simtime.Second)

	expectSteps(t, run)
	if got := c.Kernel(2).Stats().ReplayDupsDropped; got == 0 {
		t.Fatal("node 2 consumed no copy: the scenario no longer re-routes the migrated read")
	}
	if !c.Monitor().Passed() {
		t.Fatalf("monitor:\n%s", c.Monitor().Report())
	}
}

// A sender that learns of a migration mid-stream keeps its order. The
// worker migrates to node 2 with route broadcasts off, and the node 1 to
// node 2 link loses every frame for a while. The producer's next message
// still goes to node 1; only then does its kernel learn the route, and the
// message after goes straight to node 2. Had node 1 forwarded the earlier
// one over the lossy link, the later one would overtake it, and the
// worker's acceptance mark would consume the earlier one as already taken.
func TestMigrationMidStreamKeepsSenderOrder(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Monitor = true
	cfg.RouteRepeats = 0
	c, run := buildScenario(t, cfg, 12)
	faults := c.Medium().Faults()
	at := func(ms simtime.Time, fn func()) { c.Scheduler().At(ms*simtime.Millisecond, fn) }
	at(1300, func() {
		faults.SetLinkLoss(1, 2, 1)
		if err := c.Migrate(run.Worker, 2); err != nil {
			t.Errorf("migrate: %v", err)
		}
	})
	at(1450, func() { c.Kernel(0).SetRoute(run.Worker, 2) })
	at(3000, func() { faults.SetLinkLoss(1, 2, 0) })
	c.Run(60 * simtime.Second)

	expectSteps(t, run)
	if got := c.Kernel(1).Stats().MsgsForwarded; got == 0 {
		t.Fatal("node 1 redirected nothing: no message left for the old node after the move")
	}
	if got := c.Kernel(2).Stats().ReplayDupsDropped; got != 0 {
		t.Fatalf("node 2 consumed %d copies of messages it never took", got)
	}
	if !c.Monitor().Passed() {
		t.Fatalf("monitor:\n%s", c.Monitor().Report())
	}
}

// A send still in its kernel's send-CPU pipe when the kernel learns a route
// leaves for the new node. The producer's kernel learns the worker's route
// while the first message after the move is in that pipe, and node 1's
// frames to node 0 are lost for a while, so node 1 could not redirect a
// copy sent there in time: the next message, sent straight to node 2, would
// overtake it.
func TestRouteLearnedDuringSendCPUTargetsNewNode(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Monitor = true
	cfg.RouteRepeats = 0
	c, run := buildScenario(t, cfg, 12)
	faults := c.Medium().Faults()
	k0 := c.Kernel(0)
	at := func(ms simtime.Time, fn func()) { c.Scheduler().At(ms*simtime.Millisecond, fn) }
	moved, learned := false, false
	at(1300, func() {
		faults.SetLinkLoss(1, 0, 1)
		if err := c.Migrate(run.Worker, 2); err != nil {
			t.Errorf("migrate: %v", err)
		}
		moved = true
	})
	k0.SetEmitFilter(func(f *frame.Frame) bool {
		if moved && !learned && f.To == run.Worker {
			learned = true
			c.Scheduler().After(simtime.Millisecond, func() { k0.SetRoute(run.Worker, 2) })
		}
		return false
	})
	at(3000, func() { faults.SetLinkLoss(1, 0, 0) })
	c.Run(60 * simtime.Second)

	if !learned {
		t.Fatal("the producer sent nothing after the move")
	}
	expectSteps(t, run)
	if got := c.Kernel(2).Stats().ReplayDupsDropped; got != 0 {
		t.Fatalf("node 2 consumed %d copies of messages it never took", got)
	}
	if !c.Monitor().Passed() {
		t.Fatalf("monitor:\n%s", c.Monitor().Report())
	}
}

// A migrating sender takes its unacknowledged messages along. The worker
// migrates from node 1 to node 0 while its last reports to the witness on
// node 2 are unacknowledged: lost on the node 1 to node 2 link, or taken by
// the witness with their acks lost on the way back. Resent from node 1, a
// lost report would trail the worker's next one, sent from node 0, and the
// witness's acceptance mark would consume it as already taken. Node 0
// resends them first; a copy the witness took is consumed by its mark.
func TestMigratingSenderTakesUnackedMessagesAlong(t *testing.T) {
	for _, tc := range []struct {
		name     string
		src, dst NodeID
		dups     bool
	}{
		{"reports_lost", 1, 2, false},
		{"acks_lost", 2, 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(3)
			cfg.Monitor = true
			c, run := buildScenario(t, cfg, 12)
			faults := c.Medium().Faults()
			at := func(ms simtime.Time, fn func()) { c.Scheduler().At(ms*simtime.Millisecond, fn) }
			at(1050, func() { faults.SetLinkLoss(tc.src, tc.dst, 1) })
			at(1500, func() {
				if err := c.Migrate(run.Worker, 0); err != nil {
					t.Errorf("migrate: %v", err)
				}
			})
			at(3000, func() { faults.SetLinkLoss(tc.src, tc.dst, 0) })
			c.Run(60 * simtime.Second)

			expectSteps(t, run)
			if got := c.Kernel(2).Stats().ReplayDupsDropped; (got != 0) != tc.dups {
				t.Fatalf("node 2 consumed %d copies, want some: %v", got, tc.dups)
			}
			if !c.Monitor().Passed() {
				t.Fatalf("monitor:\n%s", c.Monitor().Report())
			}
		})
	}
}

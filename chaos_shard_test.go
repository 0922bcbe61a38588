package publishing

import (
	"strings"
	"testing"

	"publishing/internal/chaos"
)

// shardedOpt is the canonical sharded-recorder chaos configuration: three
// recorders so the rendezvous map actually partitions streams (with two,
// every slot's replica set is both recorders), sixteen slots so every
// recorder pair shares some slots.
var shardedOpt = ChaosOptions{Recorders: 3, ShardSlots: 16}

// TestChaosShardedBaseline runs the canonical scenario on a sharded
// recorder cluster with no faults at all and requires every invariant —
// replay-basis-union across the replicas included — to hold, with the I8
// line present in the report. This is the sanity floor under the fault tests: if
// plain traffic can't keep the shard union complete, no crash schedule
// result means anything.
func TestChaosShardedBaseline(t *testing.T) {
	s := chaos.Schedule{Seed: 77}
	res := RunChaos(shardedOpt, s, "")
	if !res.Passed() {
		t.Fatalf("fault-free sharded run violated invariants:\n%s", res.Report)
	}
	if !strings.Contains(res.Report, "replay-basis-union ok") {
		t.Fatalf("report is missing the replay-basis-union invariant line:\n%s", res.Report)
	}
}

// TestChaosShardedHandoffCrash is the tentpole's chaos reproducer: crash a
// recorder, restart it so it begins pulling its shard basis back from its
// partner, and kill the partner a few chunks into the transfer. The
// requester must fall back to its local basis, the worker's crash must
// still recover exactly-once, and the post-quiescence shard union must be
// complete (I8).
func TestChaosShardedHandoffCrash(t *testing.T) {
	const seed = 99
	// Aim the fault at the worker stream's own replica pair: the victim must
	// replicate a busy stream, and the partner Apply arms (victim+1 mod n)
	// must be the slot's other replica, so the transfer it dies serving
	// actually carries the worker's basis.
	probe, probeRun := ChaosScenario(seed, shardedOpt)
	probe.Close()
	sm := probe.ShardMap()
	slot := sm.ShardOf(probeRun.Worker)
	lead, fol := sm.Leader(slot), sm.Follower(slot)
	victim := lead
	if (fol+1)%sm.Recorders() == lead {
		victim = fol
	} else if (lead+1)%sm.Recorders() != fol {
		t.Fatalf("worker slot %d replicas rec%d/rec%d are not an adjacent pair", slot, lead, fol)
	}
	s := chaos.Schedule{Seed: seed, Faults: []chaos.Fault{
		{Kind: chaos.KindHandoffCrash, AtMs: 600, DurMs: 2400, A: uint8(victim), B: 0},
		{Kind: chaos.KindProcCrash, AtMs: 1500, A: 0},
	}}
	res := RunChaos(shardedOpt, s, "")
	if !res.Passed() {
		t.Fatalf("mid-handoff recorder crash violated invariants:\n%s", res.Report)
	}
	if !strings.Contains(res.Report, "replay-basis-union ok") {
		t.Fatalf("report is missing the replay-basis-union invariant line:\n%s", res.Report)
	}

	// The invariant verdict alone could be vacuous if the armed crash never
	// fired (say the handoff finished in fewer chunks than the trigger).
	// Re-drive the same schedule directly and require the injected
	// mid-transfer crash in the trace.
	c, run := ChaosScenario(s.Seed, shardedOpt)
	defer c.Close()
	ApplyChaos(c, run, s)
	SettleChaos(c, s)
	fired := false
	for _, e := range c.Trace().Events() {
		if strings.Contains(e.Detail, "injected crash mid-handoff") {
			fired = true
			break
		}
	}
	if !fired {
		t.Fatalf("armed handoff crash never fired; the schedule exercises nothing")
	}
}

package publishing

import (
	"bytes"
	"fmt"
	"testing"

	"publishing/internal/simtime"
)

// shardCfg builds the standard scenario config on the sharded replicated
// recorder trio (three recorders, sixteen slots — the same shape the chaos
// sweep's sharded seeds run).
func shardCfg() Config {
	cfg := DefaultConfig(3)
	cfg.Recorders = 3
	cfg.ShardSlots = 16
	return cfg
}

// dumpRecorderDB reduces one recorder's database to canonical bytes: every
// known stream in sorted order with its liveness, suppression threshold,
// checkpoint cut, coverage, and reconstructed message ids. This is the
// content the replay basis is built from; raw store records additionally
// embed arrival timestamps, which legitimately shift by the watchdog
// timeout when a promotion delays the recovery, so they are excluded.
func dumpRecorderDB(t *testing.T, c *Cluster, rank int) []byte {
	t.Helper()
	r := c.RecorderAt(rank)
	var buf bytes.Buffer
	for _, p := range r.KnownProcs() {
		b := r.Basis(p)
		fmt.Fprintf(&buf, "%v dead=%v lastSent=%d baseReads=%d cov=%d stream=%v\n",
			p, b.Dead, b.LastSent, b.CkReadCount, b.Cov(), r.StreamSummary(p))
	}
	return buf.Bytes()
}

// runPromotionScenario crashes the worker and, when killLeader is set, also
// kills the leader of the worker's shard the moment it begins the recovery —
// mid-replay, before the batch pipeline completes — leaving the follower to
// promote on peer-watchdog timeout and finish the job. It returns the
// cluster and the ranks of the worker-slot's replica pair.
func runPromotionScenario(t *testing.T, killLeader bool) (*Cluster, int, int) {
	t.Helper()
	const nMsgs = 12
	c, run := buildScenario(t, shardCfg(), nMsgs)
	sm := c.ShardMap()
	if sm == nil {
		t.Fatal("sharded config produced no shard map")
	}
	slot := sm.ShardOf(run.Worker)
	lead, fol := sm.Leader(slot), sm.Follower(slot)

	c.Scheduler().At(1200*simtime.Millisecond, func() { c.CrashProcess(run.Worker) })
	if killLeader {
		// Poll on a fixed tick grid (deterministic under the simulated
		// clock) and crash the leader the instant its recovery of the
		// worker has started: the 2 s reboot and the replay transfer are
		// still ahead of it, so it dies with the replay in flight.
		var tick func()
		tick = func() {
			r := c.RecorderAt(lead)
			if r != nil && !r.Crashed() && r.Stats().RecoveriesStarted > 0 {
				c.CrashRecorderAt(lead)
				return
			}
			if r != nil && !r.Crashed() {
				c.Scheduler().After(10*simtime.Millisecond, tick)
			}
		}
		c.Scheduler().At(1210*simtime.Millisecond, tick)
	}
	c.Run(120 * simtime.Second)
	expectSteps(t, run)
	return c, lead, fol
}

// TestFollowerPromotionMidReplay kills the worker-shard leader mid-replay.
// The follower must notice the silence through its peer watchdog, promote
// itself for the leader's slots, and complete the recovery exactly-once —
// and its database must be byte-identical to the run where the leader was
// never killed, so promotion changed who acted, not what was recorded.
func TestFollowerPromotionMidReplay(t *testing.T) {
	cKill, lead, fol := runPromotionScenario(t, true)
	if !cKill.RecorderAt(lead).Crashed() {
		t.Fatal("leader was never killed; the scenario exercises nothing")
	}
	folStats := cKill.RecorderAt(fol).Stats()
	if folStats.FollowerPromotions == 0 {
		t.Fatal("follower never promoted after the leader fell silent")
	}
	if folStats.RecoveriesCompleted == 0 {
		t.Fatal("follower completed no recovery; who finished the replay?")
	}

	cBase, lead2, fol2 := runPromotionScenario(t, false)
	if lead2 != lead || fol2 != fol {
		t.Fatalf("shard map not seed-stable: leader/follower %d/%d vs %d/%d",
			lead2, fol2, lead, fol)
	}
	dKill := dumpRecorderDB(t, cKill, fol)
	dBase := dumpRecorderDB(t, cBase, fol)
	if !bytes.Equal(dKill, dBase) {
		t.Errorf("follower database differs from the fault-free run (%d vs %d bytes)",
			len(dKill), len(dBase))
	}
}

package publishing_test

// Scale-determinism coverage for the big-cluster simulator work: the
// optimizations in simtime (4-ary heap), lan (no-fault broadcast fast
// path), and transport (dense per-destination tables, ownership-transfer
// sends) are only admissible while same-seed runs stay byte-identical.
// These tests pin that property at 256 nodes — the scale the hot loop was
// tuned for — on both the fault-free workload scenario and the chaos
// harness's faulted paths. They are heavyweight, so `go test -short`
// (tier-1) skips them; `make check` runs them in full.

import (
	"fmt"
	"testing"

	"publishing"
	"publishing/internal/chaos"
	"publishing/internal/simtime"
)

// scaleNodes is the cluster size the determinism tests run at.
const scaleNodes = 256

// TestScaleDeterminism256 runs the 256-node scenario twice with the same
// seed and requires equal fingerprints: clock, every metric and the recorder
// database. Any hidden nondeterminism the optimizations introduced — map
// iteration, heap-shape-dependent tie-breaks, allocation-order identity —
// would surface here before it could corrupt an experiment.
func TestScaleDeterminism256(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node double run; skipped in -short (tier-1) mode")
	}
	run := func() publishing.Fingerprint {
		s := buildSimCluster(t, scaleNodes, simClusterSeed, false)
		s.c.Run(s.horizon + 2*simtime.Second)
		if got, want := *s.delivered, int64(s.sent); got != want {
			t.Fatalf("delivered %d of %d messages", got, want)
		}
		return s.c.Fingerprint()
	}
	if moved := run().Diff(run()); len(moved) > 0 {
		t.Errorf("same-seed runs differ in %v", moved)
	}
}

// chaosSmoke drives seed's generated fault schedule through the canonical
// chaos scenario on a cluster nodes wide and requires every invariant to
// hold.
func chaosSmoke(t *testing.T, seed uint64, nodes int) {
	opt := publishing.ChaosSeedVariant(seed)
	opt.Nodes = nodes
	sched := chaos.Generate(seed, chaos.DefaultLimits())
	res := chaos.Run(sched, publishing.ChaosBuild(opt), chaos.DefaultOptions())
	if !res.Passed {
		t.Errorf("chaos run failed at %d nodes:\n%s", nodes, res.Report)
		for _, v := range res.Violations {
			t.Logf("violation: %+v", v)
		}
	}
}

// TestChaosSmoke256 keeps the fault paths honest at scale: the no-fault
// fast paths (gated-station sets, clean fault draws, dense tables) must
// not have bent the faulted slow paths. It drives generated fault
// schedules through the canonical chaos scenario on a 256-node cluster —
// 253 bystander stations make the broadcast delivery and per-destination
// state as wide as the throughput benchmark's — and requires every
// invariant to hold.
func TestChaosSmoke256(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node chaos runs; skipped in -short (tier-1) mode")
	}
	// Two seeds chosen to cover both media kinds and both store engines
	// via ChaosSeedVariant's rotation.
	for _, seed := range []uint64{8, 13} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			chaosSmoke(t, seed, scaleNodes)
		})
	}
}

// TestChaosSmoke1024 pushes the chaos scenario to 1024 bystander stations,
// the width of the largest BenchmarkSimThroughput case and of the
// utilization arithmetic in EXPERIMENTS.md: every invariant must hold at
// full width.
func TestChaosSmoke1024(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-node chaos run; skipped in -short (tier-1) mode")
	}
	t.Run("serial", func(t *testing.T) { chaosSmoke(t, 6, 1024) })
}

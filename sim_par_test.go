package publishing_test

// Byte-identity oracles for the conservative parallel engine
// (internal/simtime.Engine, Config.ParWorkers). The engine's admission
// criterion is the same one the big-cluster optimizations answered to: a
// same-seed run must be byte-identical however it executes — serial,
// parallel, or parallel twice. These tests compare the strongest external
// fingerprints the repo has: the full metrics snapshot, the recorder's
// stable-store database, and the sweep harness's per-seed SHA-256 digests.
//
// `make par` runs them under the race detector; plain `go test` (no -short)
// runs them too, so `make check` exercises both engines.

import (
	"bytes"
	"fmt"
	"testing"

	"publishing"
	"publishing/internal/simtime"
	"publishing/internal/sweep"
)

// parWorkers is the worker-pool size the equivalence tests run with. More
// workers than the host has cores is deliberately fine (the pool is
// work-stealing; determinism cannot depend on the physical core count).
const parWorkers = 4

// testParVsSerial asserts serial and parallel runs of the workload scenario
// produce byte-identical metrics snapshots and recorder databases.
func testParVsSerial(t *testing.T, nodes int) {
	ms, ds := runSimFingerprint(t, nodes, 0)
	mp, dp := runSimFingerprint(t, nodes, parWorkers)
	if !bytes.Equal(ms, mp) {
		t.Errorf("metrics snapshots differ between serial and parallel runs:\n--- serial ---\n%s\n--- parallel ---\n%s", ms, mp)
	}
	if !bytes.Equal(ds, dp) {
		t.Errorf("recorder databases differ between serial and parallel runs (%d vs %d bytes)", len(ds), len(dp))
	}
}

// TestParallelMatchesSerial64 is the small cross-engine oracle: 64 nodes,
// full stack, serial vs ParWorkers=4.
func TestParallelMatchesSerial64(t *testing.T) {
	if testing.Short() {
		t.Skip("64-node double run; skipped in -short (tier-1) mode")
	}
	testParVsSerial(t, 64)
}

// TestParallelMatchesSerial256 is the cross-engine oracle at the scale the
// hot loop was tuned for.
func TestParallelMatchesSerial256(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node double run; skipped in -short (tier-1) mode")
	}
	testParVsSerial(t, 256)
}

// TestParallelDeterminism64 runs the parallel engine twice with the same
// seed: scheduling jitter between the pool's workers must never reach any
// observable byte.
func TestParallelDeterminism64(t *testing.T) {
	if testing.Short() {
		t.Skip("64-node double run; skipped in -short (tier-1) mode")
	}
	m1, d1 := runSimFingerprint(t, 64, parWorkers)
	m2, d2 := runSimFingerprint(t, 64, parWorkers)
	if !bytes.Equal(m1, m2) {
		t.Errorf("metrics snapshots differ between same-seed parallel runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", m1, m2)
	}
	if !bytes.Equal(d1, d2) {
		t.Errorf("recorder databases differ between same-seed parallel runs (%d vs %d bytes)", len(d1), len(d2))
	}
}

// TestParallelSweepDigests drives the sweep harness's digest oracle across
// both engines: 16 seeds of a small scenario, each run serially and on the
// parallel engine, must produce identical per-seed SHA-256 digests. This is
// the same fingerprint the trajectory files pin, so a digest flip here is
// exactly the regression the sweep-verify make target would catch.
func TestParallelSweepDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("32 cluster runs; skipped in -short (tier-1) mode")
	}
	const nodes = 16
	tasks := make([]sweep.Task, 16)
	for i := range tasks {
		tasks[i] = sweep.Task{Config: "par-cross-engine", Seed: uint64(100 + i*7)}
	}
	runWith := func(workers int) sweep.RunFunc {
		return func(task sweep.Task) ([]byte, error) {
			s := buildSimCluster(t, nodes, task.Seed, false, func(cfg *publishing.Config) {
				cfg.ParWorkers = workers
			})
			s.c.Run(s.horizon + 2*simtime.Second)
			var buf bytes.Buffer
			if err := s.c.Metrics().Snapshot().WriteText(&buf); err != nil {
				return nil, err
			}
			recs, err := s.c.Store().ReadAll()
			if err != nil {
				return nil, err
			}
			for _, r := range recs {
				fmt.Fprintf(&buf, "%d %q %d %x\n", r.Kind, r.Key, r.Seq, r.Data)
			}
			return buf.Bytes(), nil
		}
	}
	serial := sweep.RunSerial(tasks, runWith(0))
	par := sweep.RunSerial(tasks, runWith(parWorkers))
	if err := sweep.Verify(serial, par); err != nil {
		t.Fatalf("cross-engine sweep digests diverged: %v", err)
	}
	for _, r := range serial {
		if r.Err != nil {
			t.Fatalf("seed %d failed: %v", r.Task.Seed, r.Err)
		}
	}
}

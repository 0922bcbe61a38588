package publishing

import (
	"runtime"
	"testing"

	"publishing/internal/simtime"
)

// replayCost is what a recovery's replay cost the host, outside the
// recovering program itself.
type replayCost struct {
	// batches is how many replay batches the kernel applied.
	batches uint64
	// allocs and bytes are the heap allocations, and the bytes they took,
	// of every event in the replay that did not run the worker's Handle: the
	// recorder packing and sending a batch, the transport carrying it, the
	// kernel applying and acknowledging it, the recorder reading the
	// acknowledgement.
	allocs, bytes uint64
	// applyMaxBytes is the most any one event that applied a batch
	// allocated.
	applyMaxBytes uint64
}

// secondReplayCost runs a Pipeline to completion, crashes the worker twice,
// and measures the second recovery's replay event by event. Every message
// is delivered before the first crash and the cluster takes no
// checkpoints, so both recoveries replay the same stream to an idle
// cluster, and the second replays into a worker whose queue is as deep as
// the first one's was.
func secondReplayCost(t *testing.T) replayCost {
	t.Helper()
	c := New(DefaultConfig(3))
	t.Cleanup(c.Close)
	c.Trace().Enable(false) // as the benchmark's untraced passes run
	run := Pipeline{Msgs: 1000, Pace: 5 * simtime.Millisecond}.Start(c)
	if !c.RunUntil(run.Done, simtime.Minute) {
		t.Fatalf("witness saw %d of 1000 steps", len(run.Output()))
	}
	rs, ks := c.Recorder().Stats(), c.Kernel(1).Stats()
	c.CrashProcess(run.Worker)
	if !c.RunUntil(func() bool { return rs.RecoveriesCompleted == 1 }, simtime.Minute) {
		t.Fatal("first recovery never completed")
	}
	c.CrashProcess(run.Worker)

	// Attribute each event's allocations by reading the heap counters
	// between steps: RunUntil checks its predicate before every step.
	// An event that raised the kernel's batch count applied a batch; one
	// that raised the worker's step count ran Handle. The count starts at
	// the first batch applied, so the recreate is not in it.
	var cost replayCost
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	mallocs, allocated := m.Mallocs, m.TotalAlloc
	first, batches, steps := ks.ReplayBatches, ks.ReplayBatches, run.st.Count
	ok := c.RunUntil(func() bool {
		runtime.ReadMemStats(&m)
		if ks.ReplayBatches > first && run.st.Count == steps {
			cost.allocs += m.Mallocs - mallocs
			cost.bytes += m.TotalAlloc - allocated
		}
		if ks.ReplayBatches > batches {
			cost.applyMaxBytes = max(cost.applyMaxBytes, m.TotalAlloc-allocated)
		}
		batches, steps = ks.ReplayBatches, run.st.Count
		runtime.ReadMemStats(&m)
		mallocs, allocated = m.Mallocs, m.TotalAlloc
		return rs.RecoveriesCompleted == 2
	}, simtime.Minute)
	if !ok {
		t.Fatal("second recovery never completed")
	}
	if err := run.Check(); err != nil {
		t.Fatal(err)
	}
	cost.batches = ks.ReplayBatches - first
	return cost
}

// TestReplayBatchAllocs pins what recovery costs the host per replay batch
// outside the recovering program. A batch round trip allocates four times:
// the recorder's 29-byte batch header and the batch frame's reply link, the
// kernel's acknowledgement, encoded from a reply it owns into one exact
// allocation, and gob's read of it into a reply the batch sender owns,
// through a waiter bound once per sender. The batch's records share their
// bodies with the recorder's store pages, and their array is one the
// recorder's transport freed when an earlier batch was acknowledged, so
// packing a batch copies no body. A recreated incarnation inherits the
// input-queue ring its predecessor grew, so applying a batch allocates only
// the acknowledgement. Measured: 4.52 allocations and 280 B per batch (the
// recovery-done exchange included) and 160 B per application; a batch
// packed into a fresh byte buffer read 1,562 B per batch, and a fresh reply
// per batch, a two-step encode, a waiter bound per batch and a ring regrown
// from nil read 8.93 allocations and 74,160 B per application. Allocation
// counts and sizes are the same on every host, so the pins are exact enough
// to gate on.
func TestReplayBatchAllocs(t *testing.T) {
	const ceiling = 6.0
	const bytesCeiling = 512
	const applyCeiling = 512
	cost := secondReplayCost(t)
	if cost.batches < 8 {
		t.Fatalf("second recovery applied %d replay batches; too few to measure", cost.batches)
	}
	per := float64(cost.allocs) / float64(cost.batches)
	perBytes := float64(cost.bytes) / float64(cost.batches)
	t.Logf("%d batches: %.2f allocations and %.0f B per batch (ceilings %.1f, %d B); the largest batch application allocated %d B (ceiling %d)",
		cost.batches, per, perBytes, ceiling, bytesCeiling, cost.applyMaxBytes, applyCeiling)
	if per > ceiling {
		t.Errorf("%.2f allocations per replay batch, over the ceiling of %.1f", per, ceiling)
	}
	if perBytes > bytesCeiling {
		t.Errorf("%.0f B allocated per replay batch, over the ceiling of %d B: is a batch copying its bodies?", perBytes, bytesCeiling)
	}
	if cost.applyMaxBytes > applyCeiling {
		t.Errorf("applying one replay batch allocated %d B, over the ceiling of %d B: is the queue ring regrown?", cost.applyMaxBytes, applyCeiling)
	}
}

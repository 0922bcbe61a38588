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
// outside the recovering program. A batch round trip allocates nothing of
// its own: the recorder carves the 29-byte batch header from its slab,
// every batch passes its sender's one reply link, the kernel carves its
// acknowledgement from its own slab, and the batch sender decodes it into a
// reply it owns, through the one waiter it binds and registers again at
// each acknowledgement (the acknowledgements are cumulative). The batch's
// records share their bodies with the recorder's store pages, and their
// array is one the recorder's transport freed when an earlier batch was
// acknowledged, so packing a batch copies no body. A recreated incarnation
// inherits the input-queue ring its predecessor grew, so applying a batch
// allocates only what a new slab chunk costs now and then. Measured: 0.37
// allocations and 16 B per batch (the recovery-done exchange included) and
// 16 to 32 B per application, as the tiny allocator's blocks fall; a reply
// link carved per batch, from a block of links, read 0.48 allocations and
// 24 B per batch; a header, a reply link and an acknowledgement allocated
// per batch, 3.22 allocations and 121 B per batch and 64 B per application; a batch packed into a fresh byte buffer
// read 1,562 B per batch, and a fresh reply per batch, a two-step encode, a
// waiter bound per batch and a ring regrown from nil read 8.93 allocations
// and 74,160 B per application. Allocation counts and sizes are the same on
// every host, so the pins are exact enough to gate on.
func TestReplayBatchAllocs(t *testing.T) {
	const ceiling = 1.0
	const bytesCeiling = 64
	const applyCeiling = 48
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
		t.Errorf("applying one replay batch allocated %d B, over the ceiling of %d B: is the queue ring regrown, or the acknowledgement allocated?", cost.applyMaxBytes, applyCeiling)
	}
}

// checkpointCost runs a Pipeline with its worker checkpointed between every
// two messages and measures, event by event, what the checkpoints cost the
// host: the events in which the worker's kernel took one and those in which
// the recorder stored one. It returns the checkpoints stored and those events'
// heap allocations. Trace is off, as the benchmark's untraced passes run.
func checkpointCost(t *testing.T) (checkpoints, allocs uint64) {
	t.Helper()
	c := New(DefaultConfig(3))
	t.Cleanup(c.Close)
	c.Trace().Enable(false)
	run := Pipeline{Msgs: 200, Pace: 100 * simtime.Millisecond}.Start(c)
	k, rs, ks := c.Kernel(1), c.Recorder().Stats(), c.Kernel(1).Stats()
	take := func() { _, _ = k.CheckpointNow(run.Worker) }
	// Between two messages, when the worker is parked.
	for at := simtime.Second + 50*simtime.Millisecond; at < 20*simtime.Second; at += 100 * simtime.Millisecond {
		c.Scheduler().At(at, take)
	}
	// Warm up through the first second's checkpoints, then count.
	if !c.RunUntil(func() bool { return rs.CheckpointsStored >= 2 }, simtime.Minute) {
		t.Fatal("no checkpoint stored")
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	mallocs := m.Mallocs
	first, taken, stored := rs.CheckpointsStored, ks.Checkpoints, rs.CheckpointsStored
	ok := c.RunUntil(func() bool {
		runtime.ReadMemStats(&m)
		if ks.Checkpoints > taken || rs.CheckpointsStored > stored {
			allocs += m.Mallocs - mallocs
		}
		taken, stored = ks.Checkpoints, rs.CheckpointsStored
		runtime.ReadMemStats(&m)
		mallocs = m.Mallocs
		return run.Done()
	}, simtime.Minute)
	if !ok {
		t.Fatalf("witness saw %d of 200 steps", len(run.Output()))
	}
	if err := run.Check(); err != nil {
		t.Fatal(err)
	}
	return rs.CheckpointsStored - first, allocs
}

// TestCheckpointAllocs pins what a checkpoint round trip allocates with the
// trace off. The kernel snapshots the worker into its scratch image and
// queued-id list and sends the recorder a notice; the recorder reads only
// the image's marks, trims the stream in the core's scratch, rebuilds the
// arrival log in its own chunks and lists the retained seqs in its scratch.
// What is left is the worker's own Snapshot, the notice (whose checkpoint
// the recorder keeps), the marks the stream keeps, and now and then a store
// page: 3.21 allocations per checkpoint. A fresh image, queued-id list,
// whole-image decode, trim scratch, kept log and retained-seq list per
// checkpoint, and two trace lines formatted while the trace is off, read
// 10.4. The ceiling sits under one allocation above the measured count.
func TestCheckpointAllocs(t *testing.T) {
	const ceiling = 4.0
	n, allocs := checkpointCost(t)
	if n < 20 {
		t.Fatalf("%d checkpoints stored; too few to measure", n)
	}
	per := float64(allocs) / float64(n)
	t.Logf("%d checkpoints: %.2f allocations per checkpoint (ceiling %.1f)", n, per, ceiling)
	if per > ceiling {
		t.Errorf("%.2f allocations per checkpoint round trip, over the ceiling of %.1f", per, ceiling)
	}
}

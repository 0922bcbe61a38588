package publishing_test

import (
	"runtime"
	"testing"
	"time"

	"publishing/internal/simtime"
)

// TestClusterCloseReleasesGoroutines pins the teardown: a finished cluster
// holds one parked coroutine (a goroutine, to the runtime) per live process,
// each keeping the cluster's heap reachable, and Close must release them all
// — synchronously, since unwinding a coroutine is a direct switch into it.
func TestClusterCloseReleasesGoroutines(t *testing.T) {
	const nodes = 64
	base := runtime.NumGoroutine()
	s := buildSimCluster(t, nodes, simClusterSeed, false)
	s.c.Run(s.horizon + 2*simtime.Second)
	if got := runtime.NumGoroutine(); got < base+nodes {
		t.Fatalf("%d goroutines after the run, baseline %d: expected at least the %d sinks parked in Receive", got, base, nodes)
	}
	s.c.Close()
	s.c.Close() // idempotent

	// Nothing else in this test starts goroutines, so the count is normally
	// back at once; the deadline only absorbs runtime-internal stragglers.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("%d goroutines after Close, baseline %d", got, base)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Run on a closed cluster did not panic")
		}
	}()
	s.c.Run(simtime.Second)
}

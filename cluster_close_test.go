package publishing_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"publishing/internal/simtime"
)

// TestClusterCloseReleasesGoroutines pins the teardown: a finished cluster
// holds one parked coroutine (a goroutine, to the runtime) per live process,
// each keeping the cluster's heap reachable, and Close must release them all
// — synchronously, since unwinding a coroutine is a direct switch into it.
//
// It counts only this cluster's goroutines: program coroutines that did not
// exist before the cluster was built. The process-wide count is no measure,
// since programs parked by earlier tests' clusters and goroutines other
// tests or the runtime start and stop move it independently.
func TestClusterCloseReleasesGoroutines(t *testing.T) {
	const nodes = 64
	before := programGoroutines()
	s := buildSimCluster(t, nodes, simClusterSeed, false)
	s.c.Run(s.horizon + 2*simtime.Second)
	own := programGoroutines()
	for id := range before {
		delete(own, id)
	}
	if len(own) < nodes {
		t.Fatalf("%d program goroutines after the run: expected at least the %d sinks parked in Receive", len(own), nodes)
	}
	s.c.Close()
	s.c.Close() // idempotent

	// Unwinding is synchronous, so the cluster's goroutines are normally gone
	// at once; the deadline only absorbs a goroutine that has switched out
	// of its coroutine but not yet exited.
	left := func() int {
		n := 0
		for id := range programGoroutines() {
			if own[id] {
				n++
			}
		}
		return n
	}
	deadline := time.Now().Add(2 * time.Second)
	for left() > 0 && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if n := left(); n > 0 {
		t.Fatalf("%d of the cluster's %d program goroutines survive Close", n, len(own))
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Run on a closed cluster did not panic")
		}
	}()
	s.c.Run(simtime.Second)
}

// programGoroutines returns the ids of the goroutines running simulated
// programs: the coroutines internal/demos starts, the only goroutines a
// cluster starts. Goroutine ids are never reused.
func programGoroutines() map[int]bool {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	ids := make(map[int]bool)
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if !bytes.Contains(g, []byte("publishing/internal/demos.")) {
			continue
		}
		var id int
		if _, err := fmt.Sscanf(string(g), "goroutine %d ", &id); err == nil {
			ids[id] = true
		}
	}
	return ids
}

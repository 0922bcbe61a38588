package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"

	"publishing"
	"publishing/internal/chaos"
)

// chaosRow is one seed's verdict in the chaos sweep.
type chaosRow struct {
	seed   uint64
	sched  chaos.Schedule
	result chaos.Result
}

// runChaos sweeps n seeded fault schedules through the chaos harness and
// prints a verdict per seed — the CLI face of the TestChaosScheduleSweep
// table, for exploring seeds beyond the checked-in range. Failures print the
// invariant report, the post-mortem artifact directory (trace tail, online
// monitor report, metrics snapshot), and a minimized reproducer, and exit
// nonzero.
func runChaos(start uint64, n int, artifactDir string) {
	section("chaos harness sweep (internal/chaos)")
	lim := chaos.DefaultLimits()
	fmt.Printf("  seeds %d..%d, window %dms, <=%d faults each, %d workers\n",
		start, start+uint64(n)-1, lim.WindowMs, lim.MaxFaults, runtime.GOMAXPROCS(0))
	opt := chaos.Options{ArtifactDir: artifactDir}

	rows := make([]chaosRow, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			seed := start + uint64(i)
			s := chaos.Generate(seed, lim)
			build := publishing.ChaosBuild(publishing.ChaosSeedVariant(seed))
			rows[i] = chaosRow{seed: seed, sched: s, result: chaos.Run(s, build, opt)}
		}(i)
	}
	wg.Wait()

	failed := 0
	for _, r := range rows {
		verdict := "ok"
		if !r.result.Passed {
			verdict = "FAIL"
			failed++
		}
		fmt.Printf("  seed %-4d %-4s %d faults  [%s]  %s\n",
			r.seed, verdict, len(r.sched.Faults), variantTag(publishing.ChaosSeedVariant(r.seed)), r.sched.Hex())
	}
	if failed == 0 {
		fmt.Printf("  all %d schedules passed every invariant\n", n)
		return
	}
	for _, r := range rows {
		if r.result.Passed {
			continue
		}
		fmt.Printf("\n  ---- seed %d ----\n%s", r.seed, r.result.Report)
		if r.result.Artifacts != "" {
			fmt.Printf("  artifacts (trace tail, monitor report, metrics) for schedule %s:\n    %s\n",
				r.sched.Hex(), r.result.Artifacts)
		}
		fmt.Printf("%s\n",
			chaos.Reproducer(r.sched, publishing.ChaosBuild(publishing.ChaosSeedVariant(r.seed)), chaos.Options{}))
	}
	fmt.Fprintf(os.Stderr, "chaos: %d/%d schedules failed\n", failed, len(rows))
	os.Exit(1)
}

// variantTag compacts one seed's ChaosSeedVariant into a sweep-row note:
// cluster width, LAN medium, and which option rotations are armed — the
// checkpoint-bound policy and the sharded replicated recorder trio.
func variantTag(opt publishing.ChaosOptions) string {
	n := opt.Nodes
	if n < 3 {
		n = 3
	}
	tag := fmt.Sprintf("n=%d", n)
	if opt.Medium != "" {
		tag += " " + string(opt.Medium)
	}
	if opt.Checkpoint {
		tag += " ckpt"
	}
	if opt.Recorders > 1 {
		tag += fmt.Sprintf(" shard%dx%d", opt.Recorders, opt.ShardSlots)
	}
	return tag
}

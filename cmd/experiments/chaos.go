package main

import (
	"fmt"
	"os"
	"runtime"

	"publishing"
	"publishing/internal/chaos"
)

// runChaos sweeps n seeded fault schedules through the chaos harness and
// prints a verdict per seed — the CLI face of the chaos census
// (publishing.ChaosCensus, pinned by TestChaosCensus), for exploring seeds
// beyond the checked-in range. Failures print the invariant report, the
// post-mortem artifact directory (trace tail, online monitor report, metrics
// snapshot), and a minimized reproducer, and exit nonzero.
func runChaos(start uint64, n int, artifactDir string) {
	fmt.Println("\n================ chaos harness sweep (internal/chaos) ================")
	lim := chaos.DefaultLimits()
	fmt.Printf("  seeds %d..%d, window %dms, <=%d faults each, %d workers\n",
		start, start+uint64(n)-1, lim.WindowMs, lim.MaxFaults, runtime.GOMAXPROCS(0))
	rows := publishing.ChaosCensus(start, n, chaos.Options{ArtifactDir: artifactDir})

	failed := 0
	for _, r := range rows {
		verdict := "ok"
		if !r.Passed {
			verdict = "FAIL"
			failed++
		}
		s := r.Schedule
		fmt.Printf("  seed %-4d %-4s %d faults  [%s]  %s\n",
			s.Seed, verdict, len(s.Faults), publishing.ChaosSeedVariant(s.Seed).Tag(), s.Hex())
	}
	if failed == 0 {
		fmt.Printf("  all %d schedules passed every invariant\n", n)
		return
	}
	for _, r := range rows {
		if r.Passed {
			continue
		}
		s := r.Schedule
		fmt.Printf("\n  ---- seed %d ----\n%s", s.Seed, r.Report)
		if r.Artifacts != "" {
			fmt.Printf("  artifacts (trace tail, monitor report, metrics) for schedule %s:\n    %s\n",
				s.Hex(), r.Artifacts)
		}
		fmt.Printf("%s\n",
			chaos.Reproducer(s, publishing.ChaosBuild(publishing.ChaosSeedVariant(s.Seed))))
	}
	fmt.Fprintf(os.Stderr, "chaos: %d/%d schedules failed\n", failed, len(rows))
	os.Exit(1)
}

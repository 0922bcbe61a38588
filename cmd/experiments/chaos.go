package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"publishing"
	"publishing/internal/chaos"
)

// runChaos sweeps n seeded fault schedules through the chaos harness and
// prints a verdict per seed — the CLI face of the chaos census
// (publishing.ChaosCensus, pinned by TestChaosCensus), for exploring seeds
// beyond the checked-in range. Failures print the invariant report, the
// post-mortem artifact directory (trace tail, online monitor report, metrics
// snapshot), and a minimized reproducer, and exit nonzero. Artifacts go
// under artifactDir, or under a fresh directory in the system temp directory
// when it is "", so no run overwrites another's; that directory is removed
// again when no schedule fails.
func runChaos(start uint64, n int, artifactDir string) {
	fmt.Println("\n================ chaos harness sweep (internal/chaos) ================")
	lim := chaos.DefaultLimits()
	fmt.Printf("  seeds %d..%d, window %dms, <=%d faults each, %d workers\n",
		start, start+uint64(n)-1, lim.WindowMs, lim.MaxFaults, runtime.GOMAXPROCS(0))
	dir := artifactDir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "publishing-chaos-"); err != nil {
			fmt.Fprintln(os.Stderr, "chaos:", err)
			os.Exit(1)
		}
	}
	rows := publishing.ChaosCensus(start, n, dir)

	failed := 0
	for _, r := range rows {
		verdict := "ok"
		if !r.Passed() {
			verdict = "FAIL"
			failed++
		}
		s := r.Schedule
		fmt.Printf("  seed %-4d %-4s %d faults  [%s]  %s\n",
			s.Seed, verdict, len(s.Faults), publishing.ChaosSeedVariant(s.Seed).Tag(), s.Hex())
	}
	if failed == 0 {
		fmt.Printf("  all %d schedules passed every invariant\n", n)
		if artifactDir == "" {
			os.Remove(dir)
		}
		return
	}
	// The directory is printed once, and each schedule's artifacts relative
	// to it, so the rest of the output is the same bytes in every run.
	fmt.Printf("\n  artifacts (trace tail, monitor report, metrics) of failing schedules under %s\n", dir)
	for _, r := range rows {
		if r.Passed() {
			continue
		}
		s := r.Schedule
		fmt.Printf("\n  ---- seed %d ----\n%s", s.Seed, r.Report)
		if r.Artifacts != "" {
			rel, _ := filepath.Rel(dir, r.Artifacts)
			fmt.Printf("  artifacts for schedule %s:\n    %s\n", s.Hex(), rel)
		}
		fmt.Printf("%s\n", publishing.ChaosReproducer(publishing.ChaosSeedVariant(s.Seed), s))
	}
	fmt.Fprintf(os.Stderr, "chaos: %d/%d schedules failed\n", failed, len(rows))
	os.Exit(1)
}

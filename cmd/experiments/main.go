// Experiments regenerates the measurement half of the paper's evaluation —
// the numbers that came from the DEMOS/MP implementation itself (§5.2) —
// plus the §3.2.3 recovery-time worked example, printing paper-vs-measured
// for each. The measured values come from running the actual simulated
// system, not from tables; the reports themselves live in internal/figures.
//
// Usage:
//
//	go run ./cmd/experiments            # everything
//	go run ./cmd/experiments -fig57     # one experiment
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"publishing/internal/figures"
)

func main() {
	var (
		doChaos  = flag.Bool("chaos", false, "seeded fault-schedule sweep through the chaos harness")
		chaosN   = flag.Int("chaosn", 10, "chaos: number of consecutive seeds to sweep")
		chaosDir = flag.String("chaosdir", "", "chaos: dump failing-schedule artifacts under this directory (default: a fresh one in the system temp directory)")
		seed     = flag.Uint64("seed", 1, "chaos: first schedule seed")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run here")
		memProf  = flag.String("memprofile", "", "write a heap profile at exit here")
	)
	run := figures.Flags(figures.Experiments)
	flag.Parse()
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle so the profile shows live objects, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}()
	}
	// -chaos is a tool run, not one of the paper's experiments: it never
	// joins the default "run everything" set.
	if *doChaos {
		runChaos(*seed, *chaosN, *chaosDir)
		return
	}
	run(os.Stdout, 0)
}

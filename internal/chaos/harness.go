package chaos

import (
	"fmt"

	"publishing/internal/simtime"
)

// Workload is the application-level load a scenario runs, plus how to read
// its results back for invariant checking.
type Workload interface {
	// Done reports whether the workload's expected outputs all arrived.
	Done() bool
	// Output is the ordered application-level output stream.
	Output() []string
	// State returns the canonical final-state snapshot of the recoverable
	// process under test.
	State() ([]byte, error)
}

// Scenario is one assembled system plus its workload and fault targets. A
// BuildFunc must return a fresh, fully deterministic scenario for a seed:
// building twice with the same seed and running identically must produce
// identical results.
type Scenario struct {
	Sys      System
	Work     Workload
	Targets  Targets
	CheckCfg CheckConfig
}

// BuildFunc constructs a scenario for a seed. It is called twice per Run —
// once for the fault-free baseline, once for the faulted run.
type BuildFunc func(seed uint64) Scenario

// Options bounds a harness run.
type Options struct {
	// MaxRun caps how long (virtual) the workload may take to complete.
	MaxRun simtime.Time
	// Grace is the extra virtual time after completion for retransmissions,
	// acks, and recoveries to drain before invariants are checked.
	Grace simtime.Time
	// ArtifactDir, when set, makes Run dump post-mortem artifacts for every
	// failing schedule into a per-schedule directory underneath it: the
	// checker report, the faulted run's trace tail (the flight-recorder ring
	// when one is bound, the full log otherwise), and the final metrics
	// snapshot. Minimization probes never dump — Reproducer clears this
	// before re-running candidates.
	ArtifactDir string
}

// DefaultOptions gives faulted runs four virtual minutes to converge and
// fifteen seconds to drain — generous against the ~10 s fault window, and
// still milliseconds of real time.
func DefaultOptions() Options {
	return Options{MaxRun: 4 * simtime.Minute, Grace: 15 * simtime.Second}
}

// Result is one schedule's verdict.
type Result struct {
	Schedule   Schedule
	Passed     bool
	Violations []Violation
	// Report is the deterministic invariant-checker report: same schedule,
	// byte-identical report.
	Report string
	// Artifacts is the directory post-mortem artifacts were dumped into
	// ("" when the run passed or Options.ArtifactDir was unset).
	Artifacts string
}

// Run executes the full harness cycle for one schedule: a fault-free
// baseline run of the same seed, then the faulted run with detailed tracing,
// then the invariant check after quiescence. Both systems are closed when it
// returns, so a sweep of many schedules holds no finished cluster.
func Run(s Schedule, build BuildFunc, opt Options) Result {
	if opt.MaxRun <= 0 {
		opt = DefaultOptions()
	}

	base := build(s.Seed)
	defer base.Sys.Close()
	baseline := runOne(base, opt)

	sc := build(s.Seed)
	defer sc.Sys.Close()
	// Detailed tracing emits the per-record replay events the monitor's
	// exactly-once rule counts as licenses. It changes only what is logged,
	// never the execution.
	sc.Sys.Trace().SetDetailed(true)
	Apply(sc.Sys, s, sc.Targets)
	faulted := runOne(sc, opt)

	res := Check(sc.Sys, s, faulted, baseline, sc.CheckCfg)
	r := Result{Schedule: s, Passed: res.Passed(), Violations: res.Violations, Report: res.Report}
	if !r.Passed && opt.ArtifactDir != "" {
		if dir, err := dumpArtifacts(opt.ArtifactDir, sc.Sys, s, res); err == nil {
			r.Artifacts = dir
		}
	}
	return r
}

// runOne drives one scenario to quiescence and collects its outcome.
func runOne(sc Scenario, opt Options) RunOutcome {
	done := sc.Sys.RunUntil(sc.Work.Done, opt.MaxRun)
	sc.Sys.Run(opt.Grace)
	out := RunOutcome{Done: done, Output: sc.Work.Output()}
	if st, err := sc.Work.State(); err == nil {
		out.State = st
	} else {
		out.State = []byte(fmt.Sprintf("state error: %v", err))
	}
	return out
}

// Reproducer minimizes a failing schedule and formats the one-line repro
// instructions a test failure prints: re-running the minimized hex token
// replays the exact failure.
func Reproducer(s Schedule, build BuildFunc, opt Options) string {
	opt.ArtifactDir = "" // probes re-run the failure; don't dump each one
	min := Minimize(s, func(cand Schedule) bool {
		return !Run(cand, build, opt).Passed
	})
	return fmt.Sprintf(
		"failing seed %d; minimized schedule (%d/%d faults):\n%s\nreproduce with: CHAOS_SCHEDULE=%s go test -run TestChaosRepro .",
		s.Seed, len(min.Faults), len(s.Faults), min, min.Hex())
}

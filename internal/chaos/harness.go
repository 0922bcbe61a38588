package chaos

import (
	"fmt"

	"publishing/internal/demos"
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

// Options configures a harness run.
type Options struct {
	// ArtifactDir, when set, makes Run dump post-mortem artifacts for every
	// failing schedule into a per-schedule directory underneath it: the
	// checker report, the faulted run's trace tail (the flight-recorder ring
	// when one is bound, the full log otherwise), and the final metrics
	// snapshot.
	ArtifactDir string
}

// settleCap bounds how long (virtual) Settle waits: generous against the
// ~10 s fault window, and still milliseconds of real time.
const settleCap = 4 * simtime.Minute

// Result is one schedule's verdict.
type Result struct {
	Schedule   Schedule
	Passed     bool
	Violations []Violation
	// Report is the deterministic invariant-checker report: same schedule,
	// byte-identical report.
	Report string
	// Artifacts is the directory post-mortem artifacts were dumped into
	// ("" when the run passed, Options.ArtifactDir was unset or the dump
	// failed, which the report's last line then says).
	Artifacts string
}

// Run executes the full harness cycle for one schedule: a fault-free
// baseline run of the same seed, then the faulted run with detailed tracing,
// then the invariant check once both have settled. Both systems are closed
// when it returns, so a sweep of many schedules holds no finished cluster.
func Run(s Schedule, build BuildFunc, opt Options) Result {
	base := build(s.Seed)
	defer base.Sys.Close()
	baseline := runOne(base, Schedule{})

	sc := build(s.Seed)
	defer sc.Sys.Close()
	// Detailed tracing emits the per-record replay events the monitor's
	// exactly-once rule counts as licenses. It changes only what is logged,
	// never the execution.
	sc.Sys.Trace().SetDetailed(true)
	Apply(sc.Sys, s, sc.Targets)
	faulted := runOne(sc, s)

	res := Check(sc.Sys, s, faulted, baseline, sc.CheckCfg)
	r := Result{Schedule: s, Passed: res.Passed(), Violations: res.Violations, Report: res.Report}
	if !r.Passed && opt.ArtifactDir != "" {
		dir, err := dumpArtifacts(opt.ArtifactDir, sc.Sys, s, res)
		if err != nil {
			r.Report += fmt.Sprintf("artifacts not dumped: %v\n", err)
		} else {
			r.Artifacts = dir
		}
	}
	return r
}

// runOne settles one scenario under the schedule applied to it and collects
// its outcome.
func runOne(sc Scenario, s Schedule) RunOutcome {
	out := RunOutcome{Unsettled: Settle(sc.Sys, s), Done: sc.Work.Done(), Output: sc.Work.Output()}
	var err error
	if out.State, err = sc.Work.State(); err != nil {
		out.State = []byte(fmt.Sprintf("state error: %v", err))
	}
	return out
}

// Settle runs sys, to which s was applied at the current instant, until it
// has settled, and returns what is still unsettled (nil once settled). The
// stop is derived, not configured. It is no earlier than s's last fault end
// plus sys.CrashLag(), by when any crash the schedule caused has started its
// recovery. From there Settle polls unsettled every 100 virtual ms, and it
// gives up at settleCap.
func Settle(sys System, s Schedule) []string {
	start := sys.Now()
	var end simtime.Time
	for _, f := range s.Faults {
		end = max(end, f.At()+f.Dur())
	}
	sys.Run(end + sys.CrashLag())
	for {
		busy := unsettled(sys)
		if len(busy) == 0 || sys.Now()-start >= settleCap {
			return busy
		}
		sys.Run(100 * simtime.Millisecond)
	}
}

// unsettled lists, in node order and then process order, what is still
// moving in sys: a node that is down, an endpoint with guaranteed messages
// in flight, a process that is running, crashed or recovering, a nonzero
// kernel queue, and a recorder that is down, catching up, or recovering a
// process.
func unsettled(sys System) []string {
	var busy []string
	for _, n := range sys.Nodes() {
		k := sys.Kernel(n)
		if k.Crashed() {
			busy = append(busy, fmt.Sprintf("node %d down", n))
			continue
		}
		if inf := k.Endpoint().InFlight(); inf > 0 {
			busy = append(busy, fmt.Sprintf("node %d holds %d in flight", n, inf))
		}
		for _, p := range k.Procs() {
			if st := k.ProcState(p); st == demos.StateCrashed || st == demos.StateRecovering || !k.Quiescent(p) {
				busy = append(busy, fmt.Sprintf("%v %s", p, st))
			}
		}
		if d := sys.Metrics().Gauge(int(n), "kernel", "queue_depth").Value(); d != 0 {
			busy = append(busy, fmt.Sprintf("node %d queue depth %d", n, d))
		}
	}
	for i := 0; sys.RecorderAt(i) != nil; i++ {
		switch r := sys.RecorderAt(i); {
		case r.Crashed():
			busy = append(busy, fmt.Sprintf("rec%d down", i))
		case r.CatchingUp():
			busy = append(busy, fmt.Sprintf("rec%d catching up", i))
		default:
			for _, p := range r.KnownProcs() {
				if _, recovering, _, _, _ := r.Entry(p); recovering {
					busy = append(busy, fmt.Sprintf("rec%d recovering %v", i, p))
				}
			}
		}
	}
	return busy
}

// Reproducer minimizes a failing schedule and formats the one-line repro
// instructions a test failure prints: re-running the minimized hex token
// replays the exact failure. Its probes dump no artifacts.
func Reproducer(s Schedule, build BuildFunc) string {
	min := Minimize(s, func(cand Schedule) bool {
		return !Run(cand, build, Options{}).Passed
	})
	return fmt.Sprintf(
		"failing seed %d; minimized schedule (%d/%d faults):\n%s\nreproduce with: CHAOS_SCHEDULE=%s go test -run TestChaosRepro .",
		s.Seed, len(min.Faults), len(s.Faults), min, min.Hex())
}

package publishing

import (
	"bytes"
	"fmt"
	"os"
	"regexp"
	"slices"
	"testing"

	"publishing/internal/chaos"
	"publishing/internal/simtime"
)

// chaosSweepSeeds is how many distinct generated schedules the sweep runs.
// Each seed is an independent scenario (its own cluster pair, workload, and
// fault schedule), so the sweep is the closest thing this repo has to a
// continuous simulation-testing fleet — just compressed into one `go test`.
const chaosSweepSeeds = 50

// TestChaosScheduleSweep generates one fault schedule per seed and requires
// every system-wide invariant to hold. On failure it dumps post-mortem
// artifacts (trace tail, online monitor report, metrics snapshot) and prints
// the checker report, the artifact path, and a minimized reproducer token.
func TestChaosScheduleSweep(t *testing.T) {
	lim := chaos.DefaultLimits()
	opt := chaos.Options{ArtifactDir: t.TempDir()}
	for seed := uint64(1); seed <= chaosSweepSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%03d", seed), func(t *testing.T) {
			t.Parallel()
			s := chaos.Generate(seed, lim)
			build := ChaosBuild(ChaosSeedVariant(seed))
			res := chaos.Run(s, build, opt)
			if !res.Passed {
				t.Errorf("invariants violated:\n%s", res.Report)
				if res.Artifacts != "" {
					t.Errorf("post-mortem artifacts for schedule %s:\n%s", s.Hex(), res.Artifacts)
				}
				t.Fatal(chaos.Reproducer(s, build))
			}
		})
	}
}

// TestChaosDeterministicReports runs the same schedule twice and demands
// byte-identical invariant-checker reports — the property every "reproduce
// with this seed" workflow stands on. Seed 383, outside the sweep's range
// and failing (ROADMAP item 1), restarts a sharded recorder, which must walk
// its database in process order to start recoveries and request catch-up
// checkpoints.
func TestChaosDeterministicReports(t *testing.T) {
	for _, seed := range []uint64{2, 13, 31, 383} {
		s := chaos.Generate(seed, chaos.DefaultLimits())
		build := ChaosBuild(ChaosSeedVariant(seed))
		a := chaos.Run(s, build, chaos.Options{})
		b := chaos.Run(s, build, chaos.Options{})
		if a.Report != b.Report {
			t.Fatalf("seed %d: reports differ across identical runs:\n--- first\n%s\n--- second\n%s",
				seed, a.Report, b.Report)
		}
		if !a.Passed && seed <= chaosSweepSeeds {
			t.Fatalf("seed %d: schedule failed (sweep should have caught this):\n%s", seed, a.Report)
		}
	}
}

// TestChaosBrokenDupSuppressionCaught is the checker's own regression test:
// deliberately disable the transport's duplicate detection, inject a heavy
// duplication burst, and require the exactly-once invariant to catch the
// resulting application-level duplicates. The same schedule against an
// intact transport must pass — the violation is the broken guard's fault,
// not the schedule's.
func TestChaosBrokenDupSuppressionCaught(t *testing.T) {
	s := chaos.Schedule{Seed: 424242, Faults: []chaos.Fault{
		{Kind: chaos.KindDupBurst, AtMs: 300, DurMs: 3000, Prob: 255},
	}}
	opt := chaos.Options{}

	broken := chaos.Run(s, ChaosBuild(ChaosOptions{BreakDupSuppression: true}), opt)
	if broken.Passed {
		t.Fatalf("checker passed with duplicate suppression disabled under a dup burst:\n%s", broken.Report)
	}
	caught := false
	for _, v := range broken.Violations {
		if v.Invariant == "exactly-once" {
			caught = true
		}
	}
	if !caught {
		t.Fatalf("exactly-once invariant missed the duplicates; violations:\n%s", broken.Report)
	}

	intact := chaos.Run(s, ChaosBuild(ChaosOptions{}), opt)
	if !intact.Passed {
		t.Fatalf("intact transport failed the same schedule:\n%s", intact.Report)
	}
}

// TestChaosUnpublishedCopyAfterCrash pins two schedules once reported as
// exactly-once violations. In both, a guaranteed message reaches the worker
// and its ack is lost on the wire, so the recorder never publishes it; then
// the worker's node crashes. Recovery replays the stream without it, and the
// sender, still holding no ack, retransmits it to the new incarnation: the
// only copy that incarnation gets. Output and state match the fault-free
// run, and the exactly-once rule must count the lost copy as voided.
func TestChaosUnpublishedCopyAfterCrash(t *testing.T) {
	voided := regexp.MustCompile(`exactly-once +ok .* voided=[1-9]`)
	for _, tc := range []struct {
		name string
		opt  ChaosOptions
		// The schedule's hex token. Seed 8's comes from an earlier schedule
		// generator; today's Generate(8) is a different schedule.
		token string
	}{
		{"seed=8/n=4", ChaosOptions{Nodes: 4},
			"0000000000000008020000080500000000124f940c000009ea00000b1e87a5450a000005" +
				"79000006aacf975f0b000004db000004c4a56daf08000013d0000005b0ea89ee060000031a0000" +
				"0934a65b630500000343000006410aa8e0"},
		{"seed=380", ChaosSeedVariant(380),
			"000000000000017c070000019e000001a1162f450400000dd900000643bac29f050000097b0000" +
				"09b8c26efb0400000d070000012ccb87a70200000e1900000000c266fb0700000ab5000000eebd" +
				"7d6c040000077d0000021a192841"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := chaos.DecodeHex(tc.token)
			if err != nil {
				t.Fatalf("bad pinned token: %v", err)
			}
			res := chaos.Run(s, ChaosBuild(tc.opt), chaos.Options{})
			if !res.Passed {
				t.Fatalf("invariants violated:\n%s", res.Report)
			}
			if !voided.MatchString(res.Report) {
				t.Fatalf("no crash voided an unpublished copy; the schedule no longer pins the case:\n%s", res.Report)
			}
		})
	}
}

// TestSettlingIsFinal: once chaos.Settle stops a run, nothing the checker
// reads moves any more. Each census seed below is run as chaos.Run runs it,
// checked, run 15 virtual seconds more and checked again: the report, the
// output and the state must not change. Seeds 51, 72, 93, 138 and 312 were
// stopped mid-recovery by the fixed grace period Settle replaced. Without
// Settle's floor, seeds 70 and 131 stop between a node's reboot and the pong
// that starts its recovery; without the process term, seed 331 stops while
// its worker still executes its last message. Seed 345 also recovers late
// in its run. Seed 2 is the chaos/2 golden row.
func TestSettlingIsFinal(t *testing.T) {
	for _, seed := range []uint64{2, 51, 70, 72, 93, 131, 138, 312, 331, 345} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			s := chaos.Generate(seed, chaos.DefaultLimits())
			build := ChaosBuild(ChaosSeedVariant(seed))
			outcome := func(sc chaos.Scenario, unsettled []string) chaos.RunOutcome {
				st, err := sc.Work.State()
				if err != nil {
					t.Fatal(err)
				}
				return chaos.RunOutcome{Done: sc.Work.Done(), Output: sc.Work.Output(), State: st, Unsettled: unsettled}
			}
			base := build(seed)
			t.Cleanup(base.Sys.Close)
			baseline := outcome(base, chaos.Settle(base.Sys, chaos.Schedule{}))
			sc := build(seed)
			t.Cleanup(sc.Sys.Close)
			sc.Sys.Trace().SetDetailed(true)
			chaos.Apply(sc.Sys, s, sc.Targets)
			settled := outcome(sc, chaos.Settle(sc.Sys, s))
			if settled.Unsettled != nil {
				t.Fatalf("not settled: %v", settled.Unsettled)
			}
			report := chaos.Check(sc.Sys, s, settled, baseline, sc.CheckCfg).Report
			stop := sc.Sys.Now()
			sc.Sys.Run(15 * simtime.Second)
			later := outcome(sc, nil)
			if !slices.Equal(later.Output, settled.Output) || !bytes.Equal(later.State, settled.State) {
				t.Errorf("output or state moved after the stop at %v:\n%q\n%q", stop, settled.Output, later.Output)
			}
			if again := chaos.Check(sc.Sys, s, later, baseline, sc.CheckCfg).Report; again != report {
				t.Errorf("report moved after the stop at %v:\n--- at the stop\n%s--- 15 s later\n%s", stop, report, again)
			}
		})
	}
}

// TestChaosRepro replays a schedule hex token from the CHAOS_SCHEDULE
// environment variable — the reproducer a failing sweep prints. Skipped
// when the variable is unset.
func TestChaosRepro(t *testing.T) {
	tok := os.Getenv("CHAOS_SCHEDULE")
	if tok == "" {
		t.Skip("set CHAOS_SCHEDULE=<hex token> to replay a failing schedule")
	}
	s, err := chaos.DecodeHex(tok)
	if err != nil {
		t.Fatalf("bad CHAOS_SCHEDULE token: %v", err)
	}
	res := chaos.Run(s, ChaosBuild(ChaosSeedVariant(s.Seed)), chaos.Options{})
	t.Logf("\n%s", res.Report)
	if !res.Passed {
		t.Fatalf("schedule %s violates %d invariant(s)", s.Hex(), len(res.Violations))
	}
}

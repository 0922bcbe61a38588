package publishing

import (
	"bytes"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"publishing/internal/chaos"
	"publishing/internal/simtime"
)

// chaosSweepSeeds is how many distinct generated schedules the sweep runs.
// Each seed is an independent scenario (its own cluster, workload, and
// fault schedule), so the sweep is the closest thing this repo has to a
// continuous simulation-testing fleet — just compressed into one `go test`.
const chaosSweepSeeds = 50

// TestChaosScheduleSweep generates one fault schedule per seed and requires
// every system-wide invariant to hold. On failure it dumps post-mortem
// artifacts (trace tail, online monitor report, metrics snapshot) and prints
// the checker report, the artifact path, and a minimized reproducer token.
func TestChaosScheduleSweep(t *testing.T) {
	lim := chaos.DefaultLimits()
	dir := t.TempDir()
	for seed := uint64(1); seed <= chaosSweepSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%03d", seed), func(t *testing.T) {
			t.Parallel()
			s := chaos.Generate(seed, lim)
			opt := ChaosSeedVariant(seed)
			res := RunChaos(opt, s, dir)
			if !res.Passed() {
				t.Errorf("invariants violated:\n%s", res.Report)
				if res.Artifacts != "" {
					t.Errorf("post-mortem artifacts for schedule %s:\n%s", s.Hex(), res.Artifacts)
				}
				t.Fatal(ChaosReproducer(opt, s))
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
		a := RunChaos(ChaosSeedVariant(seed), s, "")
		b := RunChaos(ChaosSeedVariant(seed), s, "")
		if a.Report != b.Report {
			t.Fatalf("seed %d: reports differ across identical runs:\n--- first\n%s\n--- second\n%s",
				seed, a.Report, b.Report)
		}
		if !a.Passed() && seed <= chaosSweepSeeds {
			t.Fatalf("seed %d: schedule failed (sweep should have caught this):\n%s", seed, a.Report)
		}
	}
}

// dupBurst is a heavy duplication burst. With the transport's duplicate
// detection disabled (ChaosOptions.BreakDupSuppression) it is a planted
// failure: exactly-once must catch it, whatever the census holds.
var dupBurst = chaos.Schedule{Seed: 424242, Faults: []chaos.Fault{
	{Kind: chaos.KindDupBurst, AtMs: 300, DurMs: 3000, Prob: 255},
}}

// TestChaosBrokenDupSuppressionCaught is the checker's own regression test:
// deliberately disable the transport's duplicate detection, inject a heavy
// duplication burst, and require the exactly-once invariant to catch the
// resulting application-level duplicates. The same schedule against an
// intact transport must pass — the violation is the broken guard's fault,
// not the schedule's.
func TestChaosBrokenDupSuppressionCaught(t *testing.T) {
	broken := RunChaos(ChaosOptions{BreakDupSuppression: true}, dupBurst, "")
	if broken.Passed() {
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

	intact := RunChaos(ChaosOptions{}, dupBurst, "")
	if !intact.Passed() {
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
			res := RunChaos(tc.opt, s, "")
			if !res.Passed() {
				t.Fatalf("invariants violated:\n%s", res.Report)
			}
			if !voided.MatchString(res.Report) {
				t.Fatalf("no crash voided an unpublished copy; the schedule no longer pins the case:\n%s", res.Report)
			}
		})
	}
}

// TestSettlingIsFinal: once SettleChaos stops a run, nothing the checker
// reads moves any more. Each census seed below is run as RunChaos runs it,
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
			opt := ChaosSeedVariant(seed)
			c, run := ChaosScenario(seed, opt)
			t.Cleanup(c.Close)
			c.Trace().SetDetailed(true)
			ApplyChaos(c, run, s)
			settled := outcome(run, SettleChaos(c, s))
			if settled.Unsettled != nil {
				t.Fatalf("not settled: %v", settled.Unsettled)
			}
			model := run.Model()
			report := checkChaos(c, opt, s, settled, model).Report
			stop := c.Now()
			c.Run(15 * simtime.Second)
			later := outcome(run, nil)
			if !slices.Equal(later.Output, settled.Output) || !bytes.Equal(later.State, settled.State) {
				t.Errorf("output or state moved after the stop at %v:\n%q\n%q", stop, settled.Output, later.Output)
			}
			if again := checkChaos(c, opt, s, later, model).Report; again != report {
				t.Errorf("report moved after the stop at %v:\n--- at the stop\n%s--- 15 s later\n%s", stop, report, again)
			}
		})
	}
}

// TestFaultFreeVariantsMatchModel: the model RunChaos checks every run
// against is what the scenario computes when nothing goes wrong. Every
// distinct option set the census draws (ChaosSeedVariant over seeds
// 1..censusSeeds), and each other set a test hands RunChaos with its own
// message count or dup suppression, runs fault-free on the first seed that
// names it: it must complete, settle, and end with the model's transcript
// and worker state.
func TestFaultFreeVariantsMatchModel(t *testing.T) {
	type variant struct {
		seed uint64
		opt  ChaosOptions
	}
	vs := []variant{{5, ChaosOptions{Msgs: 15}}, {7, ChaosOptions{Medium: MediumEther, Msgs: 25}},
		{dupBurst.Seed, ChaosOptions{BreakDupSuppression: true}}}
	seen := map[ChaosOptions]bool{}
	for seed := uint64(1); seed <= censusSeeds; seed++ {
		if opt := ChaosSeedVariant(seed); !seen[opt] {
			seen[opt] = true
			vs = append(vs, variant{seed, opt})
		}
	}
	for _, v := range vs {
		c, run := ChaosScenario(v.seed, v.opt)
		got := outcome(run, SettleChaos(c, chaos.Schedule{}))
		c.Close()
		want := run.Model()
		if !got.Done || got.Unsettled != nil || !slices.Equal(got.Output, want.Output) || !bytes.Equal(got.State, want.State) {
			t.Errorf("seed %d %+v fault-free: done=%v unsettled=%v state %x (model %x)\noutput %q\nmodel  %q",
				v.seed, v.opt, got.Done, got.Unsettled, got.State, want.State, got.Output, want.Output)
		}
	}
	t.Logf("%d option sets", len(vs))
}

// TestChaosRepro replays the run a reproducer token from the
// CHAOS_SCHEDULE environment variable names — the token a failing run
// prints (ChaosReproducer). Skipped when the variable is unset.
func TestChaosRepro(t *testing.T) {
	tok := os.Getenv("CHAOS_SCHEDULE")
	if tok == "" {
		t.Skip("set CHAOS_SCHEDULE=<token> to replay a failing run")
	}
	opt, s, err := parseChaosToken(tok)
	if err != nil {
		t.Fatalf("bad CHAOS_SCHEDULE token: %v", err)
	}
	res := RunChaos(opt, s, "")
	t.Logf("[%s]\n%s", opt.Tag(), res.Report)
	if !res.Passed() {
		t.Fatalf("run %s violates %d invariant(s)", tok, len(res.Violations))
	}
}

// TestChaosReproducerNamesItsRun: the token ChaosReproducer prints names
// the run it came from, options included, so TestChaosRepro replays that
// run and not the seed's census variant. The run is the recvmiss-crash
// known hole: seed 7 on the default options, where ChaosSeedVariant(7) is
// n=8 star ckpt. Minimizing keeps both of its faults.
func TestChaosReproducerNamesItsRun(t *testing.T) {
	opt := ChaosOptions{}
	s := chaos.Schedule{Seed: 7, Faults: knownHoles[0].faults}
	want := RunChaos(opt, s, "")
	m := regexp.MustCompile(`CHAOS_SCHEDULE=(\S+) go test -run TestChaosRepro`).FindStringSubmatch(ChaosReproducer(opt, s))
	if m == nil {
		t.Fatal("the reproducer prints no CHAOS_SCHEDULE token")
	}
	gotOpt, gotS, err := parseChaosToken(m[1])
	if err != nil {
		t.Fatal(err)
	}
	if gotOpt != opt || gotS.Hex() != s.Hex() {
		t.Fatalf("token %s names [%s] %s, want [%s] %s", m[1], gotOpt.Tag(), gotS, opt.Tag(), s)
	}
	if got := RunChaos(gotOpt, gotS, ""); got.Report != want.Report {
		t.Errorf("the token replays a different run:\n--- replayed\n%s--- original\n%s", got.Report, want.Report)
	}
}

// A chaos token round-trips every option, and its schedule part is the
// schedule's own hex.
func TestChaosTokenRoundTrip(t *testing.T) {
	for _, opt := range []ChaosOptions{{}, ChaosSeedVariant(7), {Msgs: 25, Nodes: 256, Medium: MediumEther, Checkpoint: true,
		BreakDupSuppression: true, Recorders: 3, ShardSlots: 16}} {
		s := chaos.Generate(3, chaos.DefaultLimits())
		tok := chaosToken(opt, s)
		gotOpt, gotS, err := parseChaosToken(tok)
		if err != nil || gotOpt != opt || gotS.Hex() != s.Hex() {
			t.Errorf("%s: read back [%+v] %s (%v)", tok, gotOpt, gotS.Hex(), err)
		}
		if !strings.HasSuffix(tok, "."+s.Hex()) {
			t.Errorf("%s does not end in the schedule's hex", tok)
		}
	}
	for _, bad := range []string{"", "00", "zz.00", "00.0000000000000001"} {
		if _, _, err := parseChaosToken(bad); err == nil {
			t.Errorf("%q parsed", bad)
		}
	}
}

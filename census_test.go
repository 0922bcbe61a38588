package publishing

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"publishing/internal/chaos"
)

const censusPath = "testdata/census.golden"

// censusSeeds is the chaos census: the generated schedules of seeds
// 1..censusSeeds, each on its ChaosSeedVariant (`experiments -chaos -chaosn
// 500` prints the same sweep). -short runs the fixed slice
// censusShortFirst..censusShortLast.
const (
	censusSeeds      = 500
	censusShortFirst = 51
	censusShortLast  = 100
)

// censusLine is a failing seed's census line: the seed, its variant tag and
// the invariants it violates, in report order.
func censusLine(r ChaosResult) string {
	var invs []string
	for _, v := range r.Violations {
		if !slices.Contains(invs, v.Invariant) {
			invs = append(invs, v.Invariant)
		}
	}
	seed := r.Schedule.Seed
	return fmt.Sprintf("%d [%s] %s", seed, ChaosSeedVariant(seed).Tag(), strings.Join(invs, " "))
}

// readCensus returns the committed census lines by seed.
func readCensus(t *testing.T) map[uint64]string {
	t.Helper()
	raw, err := os.ReadFile(censusPath)
	if err != nil && !(*update && os.IsNotExist(err)) {
		t.Fatal(err)
	}
	lines := map[uint64]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f, _, _ := strings.Cut(line, " ")
		seed, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			t.Fatalf("%s: bad line %q", censusPath, line)
		}
		lines[seed] = line
	}
	return lines
}

// TestChaosCensus is the known-holes ratchet: it runs the chaos census and
// requires its failing seeds to be exactly the ones testdata/census.golden
// lists, each failing the same way. A seed that newly fails, a listed seed
// whose variant or violated invariants change, and a listed seed that now
// passes all fail the test, so every fix shrinks the file and nothing comes
// back unnoticed. -short runs seeds 51..100 only; -update rewrites the file
// from a full run.
func TestChaosCensus(t *testing.T) {
	first, last := uint64(1), uint64(censusSeeds)
	if testing.Short() {
		if *update {
			t.Fatal("-update rewrites the whole census: run it without -short")
		}
		first, last = censusShortFirst, censusShortLast
	}
	want := readCensus(t)
	got := map[uint64]ChaosResult{}
	for _, r := range ChaosCensus(first, int(last-first+1), "") {
		if !r.Passed() {
			got[r.Schedule.Seed] = r
		}
	}
	if *update {
		var out strings.Builder
		out.WriteString("# Failing seeds of the chaos census (TestChaosCensus): seed, [variant], violated invariants.\n")
		out.WriteString("# go test -run TestChaosCensus . -update rewrites this file.\n")
		for _, seed := range slices.Sorted(maps.Keys(got)) {
			out.WriteString(censusLine(got[seed]) + "\n")
		}
		if err := os.WriteFile(censusPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for seed := first; seed <= last; seed++ {
		line, listed := want[seed]
		r, failed := got[seed]
		switch {
		case failed && !listed:
			t.Errorf("seed %d fails and is not in %s: %s\n%s\nreproduce with: CHAOS_SCHEDULE=%s go test -run TestChaosRepro .",
				seed, censusPath, censusLine(r), r.Report, chaosToken(ChaosSeedVariant(seed), r.Schedule))
		case listed && !failed:
			t.Errorf("seed %d passes now: remove it from %s (%s)", seed, censusPath, line)
		case listed && censusLine(r) != line:
			t.Errorf("seed %d fails differently:\n got %s\nwant %s\n%s", seed, censusLine(r), line, r.Report)
		}
	}
	for seed := range want {
		if seed < 1 || seed > censusSeeds {
			t.Errorf("%s lists seed %d, outside the census's 1..%d", censusPath, seed, censusSeeds)
		}
	}
}

// censusAllocSeeds is the fixed slice of census seeds the search ledger's
// allocation row runs: seeds 1..censusAllocSeeds.
const censusAllocSeeds = 20

// TestCensusAllocsPerSeed is the search ledger's first gated row: the heap
// allocations one census seed costs, both of RunChaos's clusters and its
// check, averaged over seeds 1..20 run one after another. Allocation counts
// are the same on every host and repeat to within one per seed, so the row
// gates a search-throughput change without timing anything. Measured: 6,789
// per seed. While the metrics registry spelled every counter's name on each
// AddStats and Snapshot, the star medium bound two closures per frame, and
// a replay batch round trip and a checkpoint allocated their scratch, it
// read 11,082. The ceiling sits 1 % over the measured count.
func TestCensusAllocsPerSeed(t *testing.T) {
	const ceiling = 6857
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for seed := uint64(1); seed <= censusAllocSeeds; seed++ {
		RunChaos(ChaosSeedVariant(seed), chaos.Generate(seed, chaos.DefaultLimits()), "")
	}
	runtime.ReadMemStats(&m1)
	per := float64(m1.Mallocs-m0.Mallocs) / censusAllocSeeds
	t.Logf("%.0f allocations per census seed over seeds 1-%d (ceiling %d)", per, censusAllocSeeds, ceiling)
	if per > ceiling {
		t.Errorf("%.0f allocations per census seed, over the ceiling of %d", per, ceiling)
	}
}

// TestChaosCensusArtifacts: a run with an artifact directory dumps a
// post-mortem bundle when it fails (`experiments -chaos -chaosdir`, whose
// ChaosCensus hands the directory straight to RunChaos). The failure is the
// planted dupBurst, so the test needs no failing census seed.
func TestChaosCensusArtifacts(t *testing.T) {
	dir := t.TempDir()
	r := RunChaos(ChaosOptions{BreakDupSuppression: true}, dupBurst, dir)
	if r.Passed() {
		t.Fatal("the planted duplicate burst passes")
	}
	reports, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("chaos-seed%d-*", dupBurst.Seed), "report.txt"))
	if err != nil || len(reports) != 1 {
		t.Fatalf("want one chaos-seed%d-*/report.txt under the artifact directory, got %v (%v)", dupBurst.Seed, reports, err)
	}
	if r.Artifacts != filepath.Dir(reports[0]) {
		t.Errorf("result names artifacts %q, dumped in %q", r.Artifacts, filepath.Dir(reports[0]))
	}
}

// A dump that fails is reported, not dropped: with an artifact directory
// that is a regular file, the planted failure's report ends with the error
// and the result names no artifacts.
func TestChaosArtifactDumpErrorReported(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	r := RunChaos(ChaosOptions{BreakDupSuppression: true}, dupBurst, file)
	if r.Passed() {
		t.Fatal("the planted duplicate burst passes")
	}
	last := r.Report[strings.LastIndex(strings.TrimSuffix(r.Report, "\n"), "\n")+1:]
	if !strings.HasPrefix(last, "artifacts not dumped: ") || !strings.Contains(last, "not-a-dir") {
		t.Errorf("the report's last line is %q, want the dump's error", last)
	}
	if r.Artifacts != "" {
		t.Errorf("result names artifacts %q, but none were dumped", r.Artifacts)
	}
}

// A census tag names the recorder scheme a seed runs: a one-slot map is
// §6.3's total copy, a wider one a sharded map.
func TestChaosOptionsTag(t *testing.T) {
	for _, c := range []struct {
		opt  ChaosOptions
		want string
	}{
		{ChaosOptions{}, "n=3"},
		{ChaosOptions{Nodes: 8, Medium: MediumEther, Checkpoint: true, Recorders: 3, ShardSlots: 16}, "n=8 ether ckpt shard3x16"},
		{ChaosOptions{Recorders: 3}, "n=3 total3"},
		{ChaosOptions{Recorders: 3, ShardSlots: 1}, "n=3 total3"},
	} {
		if got := c.opt.Tag(); got != c.want {
			t.Errorf("%+v: tag %q, want %q", c.opt, got, c.want)
		}
	}
}

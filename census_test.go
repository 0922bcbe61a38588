package publishing

import (
	"fmt"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"publishing/internal/chaos"
)

const censusPath = "testdata/census.golden"

// censusSeeds is the chaos census: the generated schedules of seeds
// 1..censusSeeds, each on its ChaosSeedVariant (`experiments -chaos -chaosn
// 400` prints the same sweep). -short runs the fixed slice
// censusShortFirst..censusShortLast.
const (
	censusSeeds      = 400
	censusShortFirst = 51
	censusShortLast  = 100
)

// censusLine is a failing seed's census line: the seed, its variant tag and
// the invariants it violates, in report order.
func censusLine(r chaos.Result) string {
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
	got := map[uint64]chaos.Result{}
	for _, r := range ChaosCensus(first, int(last-first+1), chaos.DefaultOptions()) {
		if !r.Passed {
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
				seed, censusPath, censusLine(r), r.Report, r.Schedule.Hex())
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

package publishing

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"publishing/internal/chaos"
	"publishing/internal/simtime"
)

var (
	update  = flag.Bool("update", false, "rewrite what the selected tests check (testdata/*.golden, EXPERIMENTS.md's generated blocks) from this run")
	dumpDir = flag.String("dump", "", "write each golden row's full fingerprint text under this directory")
)

const goldenPath = "testdata/fingerprints.golden"

// sweepMsgs is how many messages a sweep row's generator sends.
const sweepMsgs = 100

// sweepRow runs the seed-sweep workload on one medium: a Stream of
// sweepMsgs one-byte messages, 5 ms of compute apart, and the cluster runs
// two virtual minutes. The row keeps the full
// event trace as a "trace" section. Every message must reach the sink, and
// the recorder must drop none below a sender's watermark.
func sweepRow(medium MediumKind, seed uint64) func(*testing.T) []Section {
	return func(t *testing.T) []Section {
		var tr bytes.Buffer
		cfg := DefaultConfig(3)
		cfg.Seed = seed
		cfg.Medium = medium
		c := New(cfg)
		c.Trace().SetSink(&tr)
		t.Cleanup(c.Close)
		run := Stream{Msgs: sweepMsgs, Pace: 5 * simtime.Millisecond}.Start(c)
		c.Run(2 * simtime.Minute)
		if run.Got != sweepMsgs {
			t.Errorf("sink received %d of %d messages", run.Got, sweepMsgs)
		}
		if n := c.Recorder().Stats().BelowWatermark; n != 0 {
			t.Errorf("recorder dropped %d acknowledged messages below a sender's watermark", n)
		}
		return append(c.Fingerprint().Sections(), Section{"trace", tr.String()})
	}
}

// chaosRowSeed is the lowest seed of the chaos census (-chaos -chaosn 50)
// that passes and whose generated schedule crashes and restarts a recorder.
const chaosRowSeed = 2

// chaosRun drives seed's generated fault schedule through the canonical chaos
// scenario until it settles, as the chaos census does for the faulted half of
// a run, and reports whether the workload completed.
func chaosRun(seed uint64) (*Cluster, bool) {
	c, run := ChaosScenario(seed, ChaosSeedVariant(seed))
	s := chaos.Generate(seed, chaos.DefaultLimits())
	ApplyChaos(c, run, s)
	SettleChaos(c, s)
	return c, run.Done()
}

// chaosRow is chaosRun as a golden row. The schedule must crash and restart a
// recorder, and the online invariants must hold.
func chaosRow(t *testing.T) []Section {
	c, done := chaosRun(chaosRowSeed)
	t.Cleanup(c.Close)
	if !done {
		t.Fatal("workload did not complete")
	}
	f := c.Fingerprint()
	restarted := false
	for i := 0; i < c.Recorders(); i++ {
		restarted = restarted || c.RecorderAt(i).RestartNumber() > 0
	}
	if !restarted {
		t.Error("no recorder crashed and restarted; the row tests no recorder restart")
	}
	if mon := c.Monitor(); !mon.Passed() {
		t.Errorf("online invariants violated:\n%s", mon.Report())
	}
	return f.Sections()
}

// goldenRows are the scenarios whose fingerprints testdata/fingerprints.golden
// pins. Only the ether medium draws from the seed in the sweep workload, so
// the other media get one row each.
var goldenRows = []struct {
	name string
	run  func(*testing.T) []Section
}{
	{"ether/1", sweepRow(MediumEther, 1)},
	{"ether/2", sweepRow(MediumEther, 2)},
	{"ether/3", sweepRow(MediumEther, 3)},
	{"ether/4", sweepRow(MediumEther, 4)},
	{"perfect", sweepRow(MediumPerfect, 1)},
	{"ring", sweepRow(MediumRing, 1)},
	{"star", sweepRow(MediumStar, 1)},
	{"crash", func(t *testing.T) []Section { return crashRun(t, 1).Fingerprint().Sections() }},
	{"sharded-crash", func(t *testing.T) []Section {
		c, _, _ := runPromotionScenario(t, false)
		return c.Fingerprint().Sections()
	}},
	{fmt.Sprintf("chaos/%d", chaosRowSeed), chaosRow},
}

// goldenLines reduces a row's sections to its golden-table lines:
// "<row> <section> <first 16 hex digits of the section's sha256>".
func goldenLines(row string, ss []Section) []string {
	lines := make([]string, len(ss))
	for i, s := range ss {
		sum := sha256.Sum256([]byte(s.Text))
		lines[i] = fmt.Sprintf("%s %s %s", row, s.Name, hex.EncodeToString(sum[:8]))
	}
	return lines
}

// readGolden returns the committed table's lines grouped by row.
func readGolden(t *testing.T) map[string][]string {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil && !(*update && os.IsNotExist(err)) {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if row, _, ok := strings.Cut(line, " "); ok {
			rows[row] = append(rows[row], line)
		}
	}
	return rows
}

// TestGoldenFingerprints runs every golden row in parallel and checks each
// section's digest against testdata/fingerprints.golden, so a change that
// moves the simulation fails here naming the row and section that moved.
// -update rewrites the table from this run; -dump DIR writes each row's full
// text to DIR/<row>.txt, so what moved between two trees is a diff -r.
func TestGoldenFingerprints(t *testing.T) {
	want := readGolden(t)
	var mu sync.Mutex
	got := map[string][]string{}
	t.Cleanup(func() {
		if !*update || t.Failed() {
			return
		}
		var out strings.Builder
		for _, row := range goldenRows {
			lines, ok := got[row.name]
			if !ok {
				lines = want[row.name] // not selected by -run: keep its lines
			}
			for _, l := range lines {
				out.WriteString(l + "\n")
			}
		}
		if err := os.WriteFile(goldenPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	})
	for _, row := range goldenRows {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			ss := row.run(t)
			lines := goldenLines(row.name, ss)
			mu.Lock()
			got[row.name] = lines
			mu.Unlock()
			if *dumpDir != "" {
				path := filepath.Join(*dumpDir, row.name+".txt")
				var b bytes.Buffer
				for _, s := range ss {
					fmt.Fprintf(&b, "== %s\n%s", s.Name, s.Text)
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if *update {
				return
			}
			have, pinned := digests(lines), digests(want[row.name])
			var moved []string
			for _, s := range ss {
				if have[s.Name] != pinned[s.Name] {
					moved = append(moved, s.Name)
				}
				delete(pinned, s.Name)
			}
			for _, s := range slices.Sorted(maps.Keys(pinned)) {
				moved = append(moved, s+" (gone)")
			}
			if len(moved) > 0 {
				t.Errorf("%s: sections moved: %s (go test -run TestGoldenFingerprints . -update rewrites the table)",
					row.name, strings.Join(moved, ", "))
			}
		})
	}
}

// TestSeedsActuallyDiffer runs the four ether rows, which differ only in their
// seed, and requires their fingerprints to be pairwise distinct: a seed that
// reaches nothing would pin one run four times over.
func TestSeedsActuallyDiffer(t *testing.T) {
	var runs [][]Section
	for seed := uint64(1); seed <= 4; seed++ {
		runs = append(runs, sweepRow(MediumEther, seed)(t))
	}
	for i := range runs {
		for j := i + 1; j < len(runs); j++ {
			if slices.Equal(runs[i], runs[j]) {
				t.Errorf("ether/%d and ether/%d have equal fingerprints: the seed reaches nothing", i+1, j+1)
			}
		}
	}
}

// TestParallelSweepMatchesSerial runs every golden row once serially and once
// with all rows in parallel, and requires equal fingerprints: no row's result
// depends on what another row runs alongside it.
func TestParallelSweepMatchesSerial(t *testing.T) {
	serial := map[string][]Section{}
	for _, row := range goldenRows {
		t.Run("serial/"+row.name, func(t *testing.T) { serial[row.name] = row.run(t) })
	}
	var mu sync.Mutex
	parallel := map[string][]Section{}
	t.Run("parallel", func(t *testing.T) {
		for _, row := range goldenRows {
			t.Run(row.name, func(t *testing.T) {
				t.Parallel()
				ss := row.run(t)
				mu.Lock()
				parallel[row.name] = ss
				mu.Unlock()
			})
		}
	})
	for _, row := range goldenRows {
		s, okS := serial[row.name]
		p, okP := parallel[row.name]
		if !okS || !okP {
			continue // the row's own subtest has failed
		}
		if moved := diffSections(s, p); len(moved) > 0 {
			t.Errorf("%s: parallel run moved sections %v of the serial run", row.name, moved)
		}
	}
}

// Two Fingerprint calls in a row on a finished crash-and-recover cluster are
// equal: reading the stores seals no write buffer and counts no page read.
func TestFingerprintIsIdempotent(t *testing.T) {
	c := crashRun(t, 1)
	if moved := c.Fingerprint().Diff(c.Fingerprint()); len(moved) > 0 {
		t.Fatalf("a second Fingerprint moved %v", moved)
	}
}

// A Fingerprint taken between two Runs, while the recorder's write buffer is
// open, leaves the rest of the run alone: the run ends with the same
// Fingerprint as a same-seed run that took none.
func TestFingerprintMidRunChangesNothing(t *testing.T) {
	runOnce := func(peek bool) Fingerprint {
		c, run := crashScenario(t, 1)
		c.Run(simtime.Second)
		if peek {
			if c.Store().Stats().Appends == 0 {
				t.Fatal("nothing stored yet; the mid-run Fingerprint reads an empty store")
			}
			c.Fingerprint()
		}
		c.Run(crashRunFor - simtime.Second)
		expectSteps(t, run)
		return c.Fingerprint()
	}
	if moved := runOnce(true).Diff(runOnce(false)); len(moved) > 0 {
		t.Fatalf("a mid-run Fingerprint moved %v of the final one", moved)
	}
}

// digests maps a row's golden lines from section name to digest.
func digests(lines []string) map[string]string {
	m := map[string]string{}
	for _, l := range lines {
		if f := strings.Fields(l); len(f) == 3 {
			m[f[1]] = f[2]
		}
	}
	return m
}

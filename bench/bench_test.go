package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in spec.go and workloads.go")

// benchmarkJSON is the driver's file at the repository root.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []layerJSON    `json:"per_layer"`
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type layerJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func specFromTables() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: 12,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, workloadJSON{w.name, w.why})
	}
	for _, m := range perLayer {
		b.PerLayer = append(b.PerLayer, layerJSON{m.Name, m.Unit, m.Better})
	}
	return b
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables the command prints
// from, and both to the driver's limits.
func TestBenchmarkJSON(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	want := specFromTables()
	if *update {
		b, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json and the tables in bench/ disagree (go test ./bench -run TestBenchmarkJSON -update rewrites it)\n got %+v\nwant %+v", got, want)
	}
	names := map[string]bool{}
	name := func(s string) {
		if names[s] || len(s) == 0 || len(s) > 64 {
			t.Errorf("name %q is repeated, empty or over 64 characters", s)
		}
		names[s] = true
	}
	for _, w := range got.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range got.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 || len(m.Unit) == 0 || len(m.Unit) > 16 {
			t.Errorf("%s: bound %g or unit %q outside the driver's limits", m.Name, m.Bound, m.Unit)
		}
		setup = setup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}
	if !setup {
		t.Error("no setup_s end-to-end metric")
	}
	for _, m := range got.PerLayer {
		name(m.Name)
		if len(m.Unit) == 0 || len(m.Unit) > 16 {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
	}
	if len(got.Workloads) < 2 || len(got.Workloads) > 8 || len(got.EndToEnd) > 16 || len(got.PerLayer) > 128 || len(raw) > 64<<10 {
		t.Error("BENCHMARK.json is outside the driver's size limits")
	}
}

// TestWorkloads runs every workload at -scale tiny the way the command
// does — two untraced passes and a traced one, folded — and checks what the
// command promises: the names in BENCHMARK.json and no others, nothing
// failed, same seed same fingerprint (traced pass included), a ledger that
// sums, and the count predictions of the README's interaction table.
func TestWorkloads(t *testing.T) {
	for i := range workloads {
		def := &workloads[i]
		t.Run(def.name, func(t *testing.T) {
			o := passOpts{seed: 7, tiny: true}
			timed := []passResult{runPass(def, o), runPass(def, o)}
			o.traced, o.outDir = true, t.TempDir()
			traced := runPass(def, o)
			w := fold(def, timed, &traced)

			for _, f := range w.Failures {
				t.Error(f)
			}
			if !w.Correct || w.Failed != 0 || w.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d", w.Correct, w.Attempted, w.Failed)
			}
			if len(w.EndToEnd) != len(endToEnd) || len(w.PerLayer) != len(perLayer) {
				t.Fatalf("%d end-to-end and %d per-layer metrics, want %d and %d", len(w.EndToEnd), len(w.PerLayer), len(endToEnd), len(perLayer))
			}
			L := map[string]float64{}
			for i, m := range w.EndToEnd {
				if m.Name != endToEnd[i].Name || m.Unit == "" {
					t.Errorf("end-to-end metric %d is %q (%q), want %q", i, m.Name, m.Unit, endToEnd[i].Name)
				}
				// The driver takes ratios of these, so none may be 0.
				if !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %g", m.Name, m.Value)
				}
			}
			for i, m := range w.PerLayer {
				if m.Name != perLayer[i].Name || m.Unit == "" {
					t.Errorf("per-layer metric %d is %q (%q), want %q", i, m.Name, m.Unit, perLayer[i].Name)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %g", m.Name, m.Value)
				}
				L[m.Name] = m.Value
			}
			if _, err := os.Stat(filepath.Join(o.outDir, def.name+".trace.json")); err != nil {
				t.Errorf("span file: %v", err)
			}

			sum := L["ledger.unattributed_ns_per_msg"]
			for _, l := range ledgerLayers {
				sum += L["ledger."+l+"_ns_per_msg"]
			}
			if e2e := L["ledger.e2e_ns_per_msg"]; math.Abs(sum-e2e) > 1e-6*e2e {
				t.Errorf("ledger rows sum to %g, end to end is %g", sum, e2e)
			}

			// What each workload exercises and what it bypasses.
			coalesced := L["transport.coalesced_frac"]
			if def.name == "echo2-wire" {
				if coalesced < 0.9 {
					t.Errorf("transport.coalesced_frac = %g on the workload built to coalesce", coalesced)
				}
			} else if coalesced > 0.05 {
				t.Errorf("transport.coalesced_frac = %g on a workload that should bypass coalescing", coalesced)
			}
			faulty := def.name == "faulty64"
			if lost := L["lan.lost_frac"]; (lost > 0) != faulty {
				t.Errorf("lan.lost_frac = %g", lost)
			}
			if faulty && (L["transport.dups_suppressed_per_msg"] == 0 || L["lan.tap_misses_per_msg"] == 0) {
				t.Error("the fault workload suppressed no duplicate or missed no tap")
			}
			crash := def.name == "crash3"
			if (L["recovery.cycles"] > 0) != crash || (L["demos.suppressed_per_recovery"] > 0) != crash || (L["recovery.replay_vms"] > 0) != crash {
				t.Errorf("recovery.cycles = %g, demos.suppressed_per_recovery = %g, recovery.replay_vms = %g",
					L["recovery.cycles"], L["demos.suppressed_per_recovery"], L["recovery.replay_vms"])
			}
			if (L["stablestore.checkpoints_per_msg"] > 0) != (def.name == "stream3") {
				t.Errorf("stablestore.checkpoints_per_msg = %g", L["stablestore.checkpoints_per_msg"])
			}
			if L["monitor.violations"] != 0 || L["transport.gave_up"] != 0 {
				t.Errorf("monitor.violations = %g, transport.gave_up = %g", L["monitor.violations"], L["transport.gave_up"])
			}
		})
	}
}

func TestQuartiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g", q1, q2, q3)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rate, allocs []float64) string {
		doc := document{Seed: 7, Scale: "tiny", Workloads: []*workloadResult{{
			Name: "stream3", Fingerprint: "f",
			EndToEnd: []metricValue{
				{metricSpec{"msgs_per_s", "msgs/s", "higher", 0.10}, median(rate), rate},
				{metricSpec{"allocs_per_msg", "count", "lower", 0.02}, median(allocs), allocs},
			},
		}}}
		b, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", []float64{100, 101, 102, 103, 104}, []float64{30, 30, 30, 30, 30})
	for _, tc := range []struct {
		name         string
		rate, allocs []float64
		code         int
		want         string
	}{
		{"same", []float64{100, 101, 102, 103, 104}, []float64{30, 30, 30, 30, 30}, 0, "ok, identical"},
		{"slower", []float64{80, 81, 82, 83, 84}, []float64{30, 30, 30, 30, 30}, 1, "regressed"},
		{"more-allocs", []float64{100, 101, 102, 103, 104}, []float64{31, 31, 31, 31, 31}, 1, "regressed"},
		{"noisy", []float64{60, 80, 100, 120, 140}, []float64{30, 30, 30, 30, 30}, 1, "unresolved"},
	} {
		var out bytes.Buffer
		code := compareFiles(&out, &out, a, write(tc.name+".json", tc.rate, tc.allocs))
		if code != tc.code || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: exit %d, want %d and %q in\n%s", tc.name, code, tc.code, tc.want, out.String())
		}
	}
}

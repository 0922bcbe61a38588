package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"sort"
	"strings"
)

// document is what -json writes and -compare reads.
type document struct {
	Seed      uint64            `json:"seed"`
	Scale     string            `json:"scale"`
	Workloads []*workloadResult `json:"workloads"`
}

type metricValue struct {
	metricSpec
	Value float64 `json:"value"`
	// Samples are the per-pass values of an end-to-end metric; Value is
	// their median.
	Samples []float64 `json:"samples,omitempty"`
}

type workloadResult struct {
	Name        string        `json:"name"`
	Why         string        `json:"why"`
	Correct     bool          `json:"correct"`
	Attempted   int           `json:"attempted"`
	Failed      int           `json:"failed"`
	Failures    []string      `json:"failures,omitempty"`
	Fingerprint string        `json:"fingerprint"`
	Passes      int           `json:"passes"`
	Samples     int           `json:"latency_samples"`
	Cycles      int           `json:"recovery_cycles"`
	EndToEnd    []metricValue `json:"end_to_end"`
	PerLayer    []metricValue `json:"per_layer,omitempty"`
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// quartiles are Python's statistics.quantiles(v, n=4): the exclusive
// method, which is what the driver applies to a set of runs.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		p := float64(k*(n+1)) / 4
		j := min(max(int(p), 1), n-1)
		return s[j-1] + (p-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// fold turns a workload's passes into its result: medians of the untraced
// passes for the end-to-end metrics, the exact counts from any pass, the
// drive and span numbers from the traced pass, and the ledger's remainder.
func fold(def *workloadDef, timed []passResult, traced *passResult) *workloadResult {
	w := &workloadResult{Name: def.name, Why: def.why, Passes: len(timed),
		Fingerprint: timed[0].Fingerprint, Samples: timed[0].Msgs, Cycles: timed[0].Cycles}
	all := timed
	if traced != nil {
		all = append(append([]passResult(nil), timed...), *traced)
	}
	for i, r := range all {
		w.Attempted += r.Attempted
		w.Failed += r.Failed
		for _, f := range r.Failures {
			w.Failures = append(w.Failures, fmt.Sprintf("pass %d: %s", i+1, f))
		}
		// Tracing must not perturb the run either, so the traced pass is
		// held to the same fingerprint.
		if r.Fingerprint != w.Fingerprint {
			w.Failed++
			w.Failures = append(w.Failures, fmt.Sprintf("pass %d: fingerprint %s, pass 1 had %s: same seed, different execution", i+1, r.Fingerprint, w.Fingerprint))
		}
	}
	w.Correct = w.Failed == 0

	samples := func(get func(*passResult) float64) []float64 {
		v := make([]float64, len(timed))
		for i := range timed {
			v[i] = get(&timed[i])
		}
		return v
	}
	e2e := map[string]float64{}
	for _, m := range endToEnd {
		s := samples(func(r *passResult) float64 { return r.E2E[m.Name] })
		e2e[m.Name] = median(s)
		w.EndToEnd = append(w.EndToEnd, metricValue{m, e2e[m.Name], s})
	}
	if traced == nil {
		return w
	}
	L := traced.Layer
	perMsg := 1e9 / e2e["msgs_per_s"]
	var attributed float64
	for _, l := range ledgerLayers {
		attributed += L["ledger."+l+"_ns_per_msg"]
	}
	parent := map[string]float64{
		"trace.overhead_frac":            1 - traced.E2E["msgs_per_s"]/e2e["msgs_per_s"],
		"ledger.e2e_ns_per_msg":          perMsg,
		"ledger.unattributed_ns_per_msg": perMsg - attributed,
		"ledger.attributed_frac":         attributed / perMsg,
	}
	for _, m := range perLayer {
		var v float64
		switch m.from {
		case fromAnyPass:
			v = median(samples(func(r *passResult) float64 { return r.Layer[m.Name] }))
		case fromTraced:
			v = L[m.Name]
		case fromParent:
			v = parent[m.Name]
		}
		w.PerLayer = append(w.PerLayer, metricValue{m.metricSpec, v, nil})
	}
	return w
}

// contractLine is the object the driver reads from the last line of
// output: end-to-end metrics for -trace 0, per-layer for -trace 1.
func (w *workloadResult) contractLine(trace int) any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	add := func(ms []metricValue) {
		for _, m := range ms {
			metrics[m.Name] = value{m.Value, m.Unit}
		}
	}
	if trace != 1 {
		add(w.EndToEnd)
	}
	if trace != 0 {
		add(w.PerLayer)
	}
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{w.Correct, w.Attempted, w.Failed, metrics}
}

func (w *workloadResult) print(out io.Writer) {
	fmt.Fprintf(out, "\n== %s: %s\n", w.Name, w.Why)
	fmt.Fprintf(out, "%d untraced passes, %d latency samples, %d recovery cycles, fingerprint %s\n",
		w.Passes, w.Samples, w.Cycles, w.Fingerprint)
	fmt.Fprintf(out, "end-to-end (median of the untraced passes; regression bound)\n")
	for _, m := range w.EndToEnd {
		fmt.Fprintf(out, "  %-36s %14.4f %-8s %s is better, bound %g%%\n", m.Name, m.Value, m.Unit, m.Better, m.Bound*100)
	}
	if len(w.PerLayer) > 0 {
		fmt.Fprintf(out, "per layer\n")
		val := map[string]float64{}
		for _, m := range w.PerLayer {
			val[m.Name] = m.Value
			if !strings.HasPrefix(m.Name, "ledger.") {
				fmt.Fprintf(out, "  %-36s %14.4f %s\n", m.Name, m.Value, m.Unit)
			}
		}
		total := val["ledger.e2e_ns_per_msg"]
		row := func(name string, v float64) {
			fmt.Fprintf(out, "  %-36s %14.1f ns  %5.1f%%\n", name, v, 100*v/total)
		}
		fmt.Fprintf(out, "ledger: host ns per msg = unit cost from the layer's drive × the pass's count per msg\n")
		for _, l := range ledgerLayers {
			row(l, val["ledger."+l+"_ns_per_msg"])
		}
		row("Σ layers", total-val["ledger.unattributed_ns_per_msg"])
		row("ledger.unattributed_ns_per_msg", val["ledger.unattributed_ns_per_msg"])
		row("end to end (1e9 ÷ msgs_per_s)", total)
	}
	for _, f := range w.Failures {
		fmt.Fprintf(out, "FAILED %s\n", f)
	}
	fmt.Fprintf(out, "%s: attempted %d, failed %d, failed_frac %g\n", w.Name, w.Attempted, w.Failed,
		float64(w.Failed)/float64(max(w.Attempted, 1)))
}

// --- -compare ------------------------------------------------------------------

// rowKey names one row of the comparison.
type rowKey struct{ workload, metric string }

// pooled are the samples of one workload × end-to-end metric from every
// document in a file.
type pooled struct {
	spec    metricSpec
	samples []float64
}

// runSet is one side of a comparison: a file of -json documents.
type runSet struct {
	rows  map[rowKey]*pooled
	order []rowKey
	// prints are each workload's "seed fingerprint" pairs.
	prints map[string]map[string]bool
}

func readSet(path string) (*runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := &runSet{rows: map[rowKey]*pooled{}, prints: map[string]map[string]bool{}}
	dec := json.NewDecoder(f)
	for dec.More() {
		var doc document
		if err := dec.Decode(&doc); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, w := range doc.Workloads {
			if set.prints[w.Name] == nil {
				set.prints[w.Name] = map[string]bool{}
			}
			set.prints[w.Name][fmt.Sprintf("seed %d %s", doc.Seed, w.Fingerprint)] = true
			for _, m := range w.EndToEnd {
				key := rowKey{w.Name, m.Name}
				p := set.rows[key]
				if p == nil {
					p = &pooled{spec: m.metricSpec}
					set.rows[key] = p
					set.order = append(set.order, key)
				}
				p.samples = append(p.samples, m.Samples...)
			}
		}
	}
	return set, nil
}

// compareFiles prints, per workload and end-to-end metric, both sides'
// quartiles and the verdict: regressed (b's median worse than a's by more
// than the bound), unresolved (either side's own spread is wider than the
// bound, so the bound cannot be checked), or ok.
func compareFiles(stdout, stderr io.Writer, pathA, pathB string) int {
	a, err := readSet(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	b, err := readSet(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%-11s %-20s %32s %32s %8s %6s  %s\n", "workload", "metric",
		"a: q1 / median / q3 (n)", "b: q1 / median / q3 (n)", "worse", "bound", "verdict")
	side := func(q1, q2, q3 float64, n int) string {
		return fmt.Sprintf("%.4g / %.4g / %.4g (%d)", q1, q2, q3, n)
	}
	bad := 0
	for _, key := range a.order {
		pa, pb := a.rows[key], b.rows[key]
		if pb == nil {
			fmt.Fprintf(stdout, "%-11s %-20s missing from %s\n", key.workload, key.metric, pathB)
			bad++
			continue
		}
		a1, a2, a3 := quartiles(pa.samples)
		b1, b2, b3 := quartiles(pb.samples)
		worse := (b2 - a2) / math.Abs(a2)
		if pa.spec.Better == "higher" {
			worse = -worse
		}
		spread := max((a3-a1)/math.Abs(a2), (b3-b1)/math.Abs(b2))
		verdict := "ok"
		switch {
		case spread > pa.spec.Bound:
			verdict = fmt.Sprintf("unresolved (spread %.1f%%)", 100*spread)
			bad++
		case worse > pa.spec.Bound:
			verdict = "regressed"
			bad++
		}
		if a2 == b2 && a1 == a3 && b1 == b3 {
			verdict += ", identical"
		}
		fmt.Fprintf(stdout, "%-11s %-20s %32s %32s %+7.2f%% %5g%%  %s\n", key.workload, key.metric,
			side(a1, a2, a3, len(pa.samples)), side(b1, b2, b3, len(pb.samples)), 100*worse, 100*pa.spec.Bound, verdict)
	}
	for _, w := range workloads {
		pa, pb := a.prints[w.name], b.prints[w.name]
		switch {
		case pa == nil || pb == nil:
		case maps.Equal(pa, pb):
			fmt.Fprintf(stdout, "%-11s simulated statistics identical\n", w.name)
		default:
			fmt.Fprintf(stdout, "%-11s simulated statistics DIFFER (or the seeds do)\n", w.name)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

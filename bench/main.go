// Command bench is the repository's one benchmark: five workloads driven
// through publishing.Cluster from outside, end-to-end metrics on the host
// axis (what a simulation costs to run) and on the protocol axis (what a
// guaranteed message and a crash cost in virtual time), and a per-layer
// ledger that sums to the end-to-end figure. See README.md beside this file
// and BENCHMARK.json at the repository root.
//
//	go run ./bench                                  every workload, every metric
//	go run ./bench -workload stream3 -trace 0       end-to-end metrics only
//	go run ./bench -json > a.json                   machine-readable, for -compare
//	go run ./bench -compare a.json b.json
//
// A run is a parent process that re-executes its own binary once per pass:
// Cluster has no teardown, so a process never builds two.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	passes   int
	scale    string
	trace    int
	json     bool
	compare  bool
	outDir   string
	pass     bool
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	fs.Uint64Var(&o.seed, "seed", 7, "seed of every generated input (hold-out: 11)")
	fs.IntVar(&o.seconds, "seconds", 12, "timed-phase seconds to accumulate per workload before stopping")
	fs.IntVar(&o.passes, "passes", 0, "untraced passes per workload (0: as many as -seconds asks, at least 3)")
	fs.StringVar(&o.scale, "scale", "full", "full or tiny")
	fs.IntVar(&o.trace, "trace", -1, "0: end-to-end metrics only; 1: per-layer metrics (one untraced and one traced pass); -1: both")
	fs.BoolVar(&o.json, "json", false, "write the results as one JSON document on standard output (the report goes to standard error)")
	fs.BoolVar(&o.compare, "compare", false, "compare two files of -json documents: bench -compare a.json b.json")
	fs.StringVar(&o.outDir, "out", "bench/out", "directory for the traced pass's span files")
	fs.BoolVar(&o.pass, "pass", false, "internal: run one pass in this process and print its result")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two files")
			return 2
		}
		return compareFiles(stdout, stderr, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || (o.scale != "full" && o.scale != "tiny") || o.trace < -1 || o.trace > 1 {
		fs.Usage()
		return 2
	}
	var defs []*workloadDef
	if o.workload == "all" {
		for i := range workloads {
			defs = append(defs, &workloads[i])
		}
	} else if d := findWorkload(o.workload); d != nil {
		defs = []*workloadDef{d}
	} else {
		fmt.Fprintf(stderr, "bench: no workload %q\n", o.workload)
		return 2
	}

	if o.pass {
		res := runPass(defs[0], passOpts{seed: o.seed, tiny: o.scale == "tiny", traced: o.trace == 1, outDir: o.outDir})
		return writeJSONLine(stdout, stderr, res)
	}

	report := stdout
	if o.json {
		report = stderr
	}
	doc := document{Seed: o.seed, Scale: o.scale}
	ok := true
	for _, def := range defs {
		w, err := runWorkload(def, o, report)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", def.name, err)
			return 1
		}
		w.print(report)
		ok = ok && w.Correct
		doc.Workloads = append(doc.Workloads, w)
	}
	switch {
	case o.json:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	case len(defs) == 1:
		// The driver's contract: the last line is one JSON object.
		if code := writeJSONLine(stdout, stderr, doc.Workloads[0].contractLine(o.trace)); code != 0 {
			return code
		}
	}
	if !ok {
		return 1
	}
	return 0
}

func writeJSONLine(stdout, stderr io.Writer, v any) int {
	b, err := json.Marshal(v)
	if err == nil {
		_, err = fmt.Fprintf(stdout, "%s\n", b)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// Pass counts when -passes is 0: enough untraced passes to fill -seconds of
// timed phase, within these limits.
const minPasses, maxPasses = 3, 12

// runWorkload runs one workload's passes, each in a fresh process, and
// folds them into a result.
func runWorkload(def *workloadDef, o options, report io.Writer) (*workloadResult, error) {
	var timed []passResult
	var traced *passResult
	want := o.passes
	if o.trace == 1 && want == 0 {
		want = 1 // only the exact counts and the untraced rate are needed
	}
	budget := float64(o.seconds)
	enough := func() bool {
		if want > 0 {
			return len(timed) >= want
		}
		return len(timed) >= minPasses && budget <= 0 || len(timed) >= maxPasses
	}
	timedSeconds := func(r *passResult) float64 { return float64(r.Msgs) / r.E2E["msgs_per_s"] }
	for !enough() {
		r, err := childPass(def, o, false)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(report, "%s pass %d: set-up %.2f s, %d msgs in %.2f s, fingerprint %s\n",
			def.name, len(timed)+1, r.E2E["setup_s"], r.Msgs, timedSeconds(&r), r.Fingerprint)
		budget -= timedSeconds(&r)
		timed = append(timed, r)
	}
	if o.trace != 0 {
		r, err := childPass(def, o, true)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(report, "%s traced pass: %d msgs in %.2f s, fingerprint %s\n",
			def.name, r.Msgs, timedSeconds(&r), r.Fingerprint)
		traced = &r
	}
	return fold(def, timed, traced), nil
}

// childPass re-executes this binary for one pass and parses the result
// from the last line of its output.
func childPass(def *workloadDef, o options, traced bool) (passResult, error) {
	var res passResult
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-pass", "-workload", def.name, "-seed", strconv.FormatUint(o.seed, 10),
		"-scale", o.scale, "-trace", trace, "-out", o.outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, fmt.Errorf("pass process: %w", err)
	}
	out = bytes.TrimRight(out, "\n")
	if i := bytes.LastIndexByte(out, '\n'); i >= 0 {
		out = out[i+1:]
	}
	if err := json.Unmarshal(out, &res); err != nil {
		return res, fmt.Errorf("pass result: %w", err)
	}
	return res, nil
}

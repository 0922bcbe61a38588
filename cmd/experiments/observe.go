// The observe experiment is the observability counterpart of the paper runs:
// it drives a crash-and-recover workload and exports what the new
// instrumentation sees — the unified metrics snapshot and the causal
// per-message timeline — instead of a paper-vs-measured table.
package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"publishing"
	"publishing/internal/monitor"
	"publishing/internal/simtime"
	"publishing/internal/trace"
)

// observeOpts carries the surfacing flags from main.
type observeOpts struct {
	metricsOut string // "" = skip; "-" = stdout
	traceOut   string // Chrome trace-event JSON file
	flight     int    // flight-recorder bound on the trace ring
	seed       uint64
	explain    string // message id to post-mortem after the run ("" = off)
}

// runObserve boots a 3-node published cluster, crashes the worker's node
// mid-stream, lets recovery replay it, and then exports the metrics
// snapshot and trace timeline per opts. With explain set it instead becomes
// a causal post-mortem: the run carries the online monitor, and afterwards
// the named message's full timeline is reconstructed from the trace events
// and cross-referenced against the recorder's database (with -trace-out, the
// Chrome export narrows to just that message's events).
func runObserve(o observeOpts) {
	section("observe — crash-and-recover run with metrics + timeline export")

	cfg := publishing.DefaultConfig(3)
	cfg.Medium = publishing.MediumEther
	cfg.Seed = o.seed
	cfg.FlightRecorder = o.flight
	cfg.Monitor = o.explain != ""
	c := publishing.New(cfg)
	if o.traceOut != "" {
		c.Trace().SetDetailed(true)
	}

	const msgs = 10
	run := publishing.Pipeline{Msgs: msgs, Pace: 200 * publishing.Millisecond}.Start(c)

	c.Scheduler().At(simtime.Time((1200 * time.Millisecond).Nanoseconds()), func() {
		c.CrashNode(1)
	})
	c.Run(3 * publishing.Minute)

	s := c.Recorder().Stats()
	fmt.Printf("  crash of node 1 at 1.2s: witness received %d/%d, %d messages replayed, %d suppressed resends\n",
		len(run.Output()), msgs, s.MessagesReplayed, c.Kernel(1).Stats().Suppressed)

	if o.metricsOut != "" {
		w := os.Stdout
		if o.metricsOut != "-" {
			f, err := os.Create(o.metricsOut)
			obDie(err)
			defer f.Close()
			w = f
		}
		snap := c.Metrics().Snapshot()
		if strings.HasSuffix(o.metricsOut, ".json") {
			// A .json path gets the JSON form, anything else the text form.
			obDie(snap.WriteJSON(w))
		} else {
			obDie(snap.WriteText(w))
		}
		if o.metricsOut != "-" {
			fmt.Printf("  wrote metrics snapshot to %s\n", o.metricsOut)
		}
	}
	msgEvents := []trace.Event(nil)
	if o.explain != "" {
		fmt.Printf("\n  ---- causal post-mortem for %s ----\n", o.explain)
		msgEvents = monitor.Explain(os.Stdout, c.Trace().Events(), o.explain)
		explainStreams(c, o.explain)
		fmt.Println()
		obDie(c.Monitor().WriteReport(os.Stdout))
	}
	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		obDie(err)
		if msgEvents != nil {
			// Single-message export: just this id's causal thread.
			err = trace.WriteChrome(f, msgEvents)
		} else {
			err = c.Trace().WriteChrome(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		obDie(err)
		fmt.Printf("  wrote Chrome trace timeline to %s (open in Perfetto / chrome://tracing)\n", o.traceOut)
		if d := c.Trace().Dropped(); d > 0 {
			fmt.Printf("  flight recorder dropped %d older events\n", d)
		}
	}
}

// explainStreams cross-references one message id against the recorder's
// database: for every process stream that holds the message, print its
// replay-order position — the authoritative "would recovery re-deliver
// this?" answer, independent of what the trace retained.
func explainStreams(c *publishing.Cluster, msgID string) {
	found := false
	for _, n := range c.Nodes() {
		k := c.Kernel(n)
		if k == nil {
			continue
		}
		for _, p := range k.Procs() {
			stream := c.Recorder().StreamSummary(p)
			for i, id := range stream {
				if id.String() == msgID {
					fmt.Printf("recorder database: position %d/%d in %s's replay stream\n", i+1, len(stream), p)
					found = true
				}
			}
		}
	}
	if !found {
		fmt.Println("recorder database: not in any replay stream (acked past, checkpoint-trimmed, or never published)")
	}
}

func obDie(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

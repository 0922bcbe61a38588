// Demosnet is a scripted playground: it boots a DEMOS/MP cluster with
// publishing on the medium of your choice, runs the producer → worker →
// witness pipeline (publishing.Pipeline), injects the crashes you ask for,
// and streams the simulation's event trace so you can watch detection,
// replay, suppression, and recovery happen. The witness prints each step
// as "step=k sum=s".
//
// Usage:
//
//	go run ./cmd/demosnet                              # default scenario
//	go run ./cmd/demosnet -medium ether -trace         # watch every event
//	go run ./cmd/demosnet -crash-node 1 -crash-at 2s
//	go run ./cmd/demosnet -crash-recorder -crash-at 3s
//	go run ./cmd/demosnet -medium ether -msgs 10 -crash-node 1 -explain 'p0.1#3'
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"publishing"
	"publishing/internal/metrics"
	"publishing/internal/monitor"
	"publishing/internal/simtime"
	"publishing/internal/trace"
)

func main() {
	var (
		medium    = flag.String("medium", "perfect", "perfect | ether | ackether | ring | star")
		nodes     = flag.Int("nodes", 3, "processing nodes (at least 3: producer, worker, witness)")
		msgs      = flag.Int("msgs", 12, "messages the producer sends")
		crashProc = flag.Bool("crash-proc", true, "crash the worker process")
		crashNode = flag.Int("crash-node", -1, "crash a whole node instead")
		crashRec  = flag.Bool("crash-recorder", false, "crash the recorder too")
		crashAt   = flag.Duration("crash-at", 1200*time.Millisecond, "when to inject the crash (virtual)")
		showTrace = flag.Bool("trace", false, "stream the full event trace")
		seed      = flag.Uint64("seed", 1, "determinism seed")
		showMet   = flag.Bool("metrics", false, "print the unified metrics snapshot at the end")
		traceOut  = flag.String("trace-out", "", "write a Chrome trace-event JSON timeline to this file")
		flight    = flag.Int("flight", 0, "flight-recorder mode: keep only the most recent N trace events")
		monitorOn = flag.Bool("monitor", false, "attach the online invariant monitor; print violations live and its report at the end")
		explain   = flag.String("explain", "", "causal post-mortem for one message id after the run (implies -monitor; with -trace-out, exports only that message's events)")
	)
	flag.Parse()
	*monitorOn = *monitorOn || *explain != ""
	if *nodes < 3 {
		die(fmt.Errorf("demosnet: -nodes %d: the pipeline needs nodes 0, 1 and 2", *nodes))
	}

	cfg := publishing.DefaultConfig(*nodes)
	cfg.Medium = publishing.MediumKind(*medium)
	cfg.Seed = *seed
	cfg.Monitor = *monitorOn
	c := publishing.New(cfg)
	c.Trace().SetFlightRecorder(*flight)
	if *traceOut != "" {
		// Timelines need the per-message detail events (replay records,
		// end-to-end acks) that are off by default.
		c.Trace().SetDetailed(true)
	}
	switch {
	case *showTrace:
		c.Trace().SetSink(os.Stdout)
	case *traceOut != "" || *explain != "":
		// The filter gates retention too; a timeline export or a post-mortem
		// needs every event, so keep the console quiet instead of filtering.
	default:
		c.Trace().SetFilter(func(e trace.Event) bool {
			switch e.Kind {
			case trace.KindCrash, trace.KindDetect, trace.KindRecoveryStart,
				trace.KindRecoveryDone, trace.KindSuppress, trace.KindCheckpoint:
				return true
			}
			return false
		})
		c.Trace().SetSink(os.Stdout)
	}

	run := publishing.Pipeline{Msgs: *msgs, Pace: 200 * publishing.Millisecond}.Start(c)

	at := simtime.Time(crashAt.Nanoseconds())
	c.Scheduler().At(at, func() {
		switch {
		case *crashNode >= 0:
			fmt.Printf("--- injecting processor crash on node %d ---\n", *crashNode)
			c.CrashNode(publishing.NodeID(*crashNode))
		case *crashProc:
			fmt.Println("--- injecting process fault into the worker ---")
			c.CrashProcess(run.Worker)
		}
		if *crashRec {
			fmt.Println("--- crashing the recorder ---")
			c.CrashRecorder()
			c.Scheduler().After(3*publishing.Second, func() {
				fmt.Println("--- restarting the recorder ---")
				_ = c.RestartRecorder()
			})
		}
	})

	c.Run(3 * publishing.Minute)

	fmt.Printf("\nwitness received %d/%d messages: %v\n", len(run.Output()), *msgs, run.Output())
	var msgEvents []trace.Event
	if *explain != "" {
		fmt.Printf("\n---- causal post-mortem for %s ----\n", *explain)
		msgEvents = monitor.Explain(os.Stdout, c.Trace().Events(), *explain)
		explainStreams(c, *explain)
	}
	if *monitorOn {
		fmt.Println()
		die(c.Monitor().WriteReport(os.Stdout))
	}
	// Every subsystem reports through the same registry, so the closing
	// summary is one printer over one snapshot instead of per-type printfs.
	snap := c.Metrics().Snapshot()
	printSummary(os.Stdout, snap)
	if *showMet {
		fmt.Println()
		if err := snap.WriteText(os.Stdout); err != nil {
			die(err)
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		die(err)
		if msgEvents != nil {
			// Single-message export: just this id's causal thread.
			err = trace.WriteChrome(f, msgEvents)
		} else {
			err = c.Trace().WriteChrome(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		die(err)
		fmt.Printf("wrote Chrome trace timeline to %s (open in Perfetto / chrome://tracing)\n", *traceOut)
		if d := c.Trace().Dropped(); d > 0 {
			fmt.Printf("flight recorder dropped %d older events\n", d)
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
		for _, p := range c.Kernel(n).Procs() {
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

// printSummary prints one line per (subsystem, node) group, skipping
// zero-valued samples so the common case stays readable. Snapshot order is
// (subsystem, name, node), so samples are bucketed per group first.
func printSummary(w io.Writer, snap metrics.Snapshot) {
	type group struct{ sub, node string }
	var order []group
	lines := map[group]string{}
	for _, s := range snap.Samples {
		if s.Value == 0 {
			continue
		}
		g := group{s.Subsystem, ""}
		if s.Node >= 0 {
			g.node = fmt.Sprintf("[%d]", s.Node)
		}
		if _, ok := lines[g]; !ok {
			order = append(order, g)
		}
		if s.Kind == metrics.KindHistogram.String() {
			lines[g] += fmt.Sprintf(" %s{n=%d avg=%d}", s.Name, s.Value, s.Sum/s.Value)
		} else {
			lines[g] += fmt.Sprintf(" %s=%d", s.Name, s.Value)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].sub != order[j].sub {
			return order[i].sub < order[j].sub
		}
		return order[i].node < order[j].node
	})
	for _, g := range order {
		fmt.Fprintf(w, "%s%s:%s\n", g.sub, g.node, lines[g])
	}
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

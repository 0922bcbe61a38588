// Package figures prints the paper's evaluation as text, paper value beside
// measured value. Its reports are the two halves of Chapter 5 and the
// Fig 3.1 bound: the measurements of the implementation (§5.2, §3.2.3,
// §6.6.2), run on the simulated cluster, which cmd/experiments prints, and
// the queuing model (Figs 5.1–5.5, the §5.1 claims, the 115-user capacity,
// §6.6), run on internal/model, which cmd/pubsim prints. Every report is
// deterministic for its seed, and EXPERIMENTS.md quotes each one verbatim
// as a generated block that TestDocBlocks checks.
package figures

import (
	"flag"
	"fmt"
	"io"

	"publishing/internal/checkpoint"
	"publishing/internal/measure"
	"publishing/internal/model"
	"publishing/internal/simtime"
)

// A Report is one figure or claim: the command-line flag that selects it
// and the function that prints it. Seed is the model simulation's seed;
// the cluster measurements ignore it.
type Report struct {
	Flag, Usage string
	Write       func(w io.Writer, seed uint64)
}

// Experiments are cmd/experiments' reports, in the order it prints them.
var Experiments = []Report{
	{"fig31", "the §3.2.3 recovery-time bound example", fig31},
	{"fig57", "Fig 5.7 per-message overheads", fig57},
	{"fig58", "Fig 5.8 per-process overheads", fig58},
	{"publishtime", "§5.2.2 publishing time per message", publishTime},
	{"nodeopt", "§6.6.2 node-level recovery trade-off", nodeOpt},
}

// Model are cmd/pubsim's reports, in the order it prints them.
var Model = []Report{
	{"topology", "print the Fig 5.1 model topology", topology},
	{"params", "print the Fig 5.2 hardware parameters", params},
	{"statesizes", "print the Fig 5.3 state-size distribution", stateSizes},
	{"points", "print the Fig 5.4 operating points", points},
	{"ckintervals", "print the §5.1 checkpoint intervals", intervals},
	{"fig55", "simulate the Fig 5.5 utilization surface", fig55},
	{"claims", "check the §5.1 prose claims", claims},
	{"capacity", "find the 115-user capacity", capacity},
	{"optim", "evaluate the §6.6 optimizations", optim},
}

// Flags defines one boolean command-line flag per report. The function it
// returns, called after flag.Parse, prints the reports whose flags are set,
// or all of them when none is, each after a blank line.
func Flags(reports []Report) func(w io.Writer, seed uint64) {
	set := make([]*bool, len(reports))
	for i, r := range reports {
		set[i] = flag.Bool(r.Flag, false, r.Usage)
	}
	return func(w io.Writer, seed uint64) {
		all := true
		for _, on := range set {
			all = all && !*on
		}
		for i, r := range reports {
			if all || *set[i] {
				fmt.Fprintln(w)
				r.Write(w, seed)
			}
		}
	}
}

func section(w io.Writer, title string) {
	fmt.Fprintf(w, "================ %s ================\n", title)
}

func fig31(w io.Writer, _ uint64) {
	section(w, "Fig 3.1 / §3.2.3 — the recovery-time bound, worked example")
	lp := checkpoint.Fig31Params()
	fmt.Fprintf(w, "  parameters: t_cfix=%v t_page=%v/page t_mfix=%v t_byte=%v/B f_cpu=%.1f\n",
		lp.CFix, lp.PerPage, lp.MFix, lp.PerByte, lp.CPUShare)

	pp := checkpoint.ProcParams{CheckpointPages: 4}
	fmt.Fprintf(w, "  right after a 4-page checkpoint:      t_max = %-9v (paper: 140ms)\n", checkpoint.Bound(lp, pp))
	pp.ExecSince = 100 * simtime.Millisecond
	fmt.Fprintf(w, "  at +200ms (100ms of execution):       t_max = %-9v (paper: 340ms)\n", checkpoint.Bound(lp, pp))
	pp.MsgsSince, pp.BytesSince = 1, 1024
	fmt.Fprintf(w, "  right after a 1024-byte message:      t_max = %-9v (paper's figure lost; +t_mfix+l*t_byte = +12.24ms)\n",
		checkpoint.Bound(lp, pp))
	fmt.Fprintf(w, "  Young's interval for Ts=10s, Tf=2min: T_c  = %v\n",
		checkpoint.YoungInterval(10*simtime.Second, 2*simtime.Minute))
}

func fig57(w io.Writer, _ uint64) {
	section(w, "Fig 5.7 — per-message overheads (512 intranode self-sends, quiescent system)")
	rows := measure.Fig57Table()
	fmt.Fprintf(w, "  %-9s %12s %12s\n", "", "realTime", "cpuTime")
	for _, r := range rows {
		tag := "without"
		if r.Publishing {
			tag = "with"
		}
		fmt.Fprintf(w, "  %-9s %10.1fms %10.1fms\n", tag, r.RealMS, r.CPUMS)
	}
	fmt.Fprintln(w, "  paper's surviving anchors: real-cpu = 1ms without publishing, ~3ms with")
	fmt.Fprintf(w, "  (measured: %.1fms and %.1fms); publishing adds ~26ms CPU per message\n",
		rows[0].RealMS-rows[0].CPUMS, rows[1].RealMS-rows[1].CPUMS)
	fmt.Fprintf(w, "  (measured: %.1fms)\n", rows[1].CPUMS-rows[0].CPUMS)
}

func fig58(w io.Writer, _ uint64) {
	section(w, "Fig 5.8 — per-process overheads (create+destroy a null process x25)")
	rows := measure.Fig58Table()
	fmt.Fprintf(w, "  %-9s %12s %12s\n", "", "measured", "paper")
	fmt.Fprintf(w, "  %-9s %10.0fms %10s\n", "without", rows[0].TotalCPUMS, "608ms")
	fmt.Fprintf(w, "  %-9s %10.0fms %10s\n", "with", rows[1].TotalCPUMS, "5135ms")
	fmt.Fprintf(w, "  blow-up ratio: %.1fx (paper: 8.4x) — \"directly attributable to the\n",
		rows[1].TotalCPUMS/rows[0].TotalCPUMS)
	fmt.Fprintln(w, "  servicing of network protocols\"")
}

func publishTime(w io.Writer, _ uint64) {
	section(w, "§5.2.2 — publishing time per message at the recorder")
	fmt.Fprintf(w, "  %-14s %10s %10s\n", "implementation", "measured", "paper")
	paper := []string{"57ms", "12ms", "0.8ms"}
	for i, l := range measure.PublishTimeLevels() {
		fmt.Fprintf(w, "  %-14s %8.2fms %10s\n", l.Mode, l.PerMS, paper[i])
	}
	fmt.Fprintln(w, "  \"by intercepting and publishing the messages directly at the media")
	fmt.Fprintln(w, "  layer ... the per message cost can be reduced to the desired 0.8ms\"")
}

func nodeOpt(w io.Writer, _ uint64) {
	section(w, "§6.6.2 — recovering nodes rather than processes")
	rows := measure.Fig57Table()
	withPub, withoutPub := rows[1].CPUMS, rows[0].CPUMS
	fmt.Fprintf(w, "  per-process publishing: every intranode message costs %.1fms CPU\n", withPub)
	fmt.Fprintf(w, "  node-level recovery:    intranode messages stay local (%.1fms) but every\n", withoutPub)
	fmt.Fprintf(w, "  extranode message needs a sync companion (x2 extranode traffic)\n\n")
	fmt.Fprintf(w, "  %-28s %22s %22s\n", "intranode share of traffic", "per-proc CPU/msg", "node-level CPU/msg")
	for _, frac := range []float64{0.2, 0.5, 0.8, 0.9} {
		perProc := frac*withPub + (1-frac)*withPub
		nodeLevel := frac*withoutPub + (1-frac)*2*withPub
		fmt.Fprintf(w, "  %26.0f%% %20.1fms %20.1fms\n", frac*100, perProc, nodeLevel)
	}
	fmt.Fprintln(w, "\n  \"not all sites may wish to recover single processes ... we can greatly")
	fmt.Fprintln(w, "  reduce the number of messages that the recorder needs to publish\"")
}

func topology(w io.Writer, _ uint64) {
	section(w, "Fig 5.1 — the open queuing model")
	fmt.Fprint(w, `
  [node 1..N sources] --short/long/ckpt msgs--> (network) --+--> (recorder CPU) --> [4KB buffer] --> (disk x d)
                                                            |
                each delivery provokes an ack frame  <------+
                (rides the Acknowledging Ethernet's reserved slot; the
                 recorder CPU processes it to learn arrival order)
`)
}

func params(w io.Writer, _ uint64) {
	section(w, "Fig 5.2 — hardware parameters")
	h := model.Fig52()
	fmt.Fprintf(w, "  Ethernet interface interpacket delay  %v\n", h.InterpacketDelay)
	fmt.Fprintf(w, "  Network bandwidth                     %d megabits per second\n", h.BitsPerSecond/1_000_000)
	fmt.Fprintf(w, "  Disk latency                          %v\n", h.DiskLatency)
	fmt.Fprintf(w, "  Disk transfer rate                    %d megabytes per second\n", h.DiskBytesPerSecond/1_000_000)
	fmt.Fprintf(w, "  Time to process a packet              %v\n", h.PacketCPU)
}

func stateSizes(w io.Writer, _ uint64) {
	section(w, "Fig 5.3 — state sizes for UNIX processes (synthetic; original figure lost)")
	for _, b := range model.Fig53StateSizes() {
		bar := ""
		for i := 0; i < int(b.Fraction*100); i++ {
			bar += "#"
		}
		fmt.Fprintf(w, "  %3d KB %5.1f%% %s\n", b.KB, b.Fraction*100, bar)
	}
	fmt.Fprintf(w, "  mean: %d KB\n", model.MeanStateKB())
}

func points(w io.Writer, _ uint64) {
	section(w, "Fig 5.4 — operating points (synthetic; calibrated to §5.1's prose)")
	fmt.Fprintf(w, "  %-12s %9s %9s %12s %12s\n", "point", "load avg", "state KB", "short/proc/s", "long/proc/s")
	for _, p := range model.Fig54OperatingPoints() {
		fmt.Fprintf(w, "  %-12s %9d %9d %12.2f %12.2f\n", p.Name, p.LoadAvg, p.StateKB, p.ShortPerProc, p.LongPerProc)
	}
}

func intervals(w io.Writer, _ uint64) {
	section(w, "§5.1 — storage-balance checkpoint intervals")
	for _, p := range model.Fig54OperatingPoints() {
		fmt.Fprintf(w, "  %-12s state %2d KB at %7.0f B/s/proc -> checkpoint every %v\n",
			p.Name, p.StateKB, p.BytesPerProcPerSec(), p.CheckpointInterval())
	}
	fmt.Fprintln(w, "  paper: \"between 1 second for 4k byte processes during high message")
	fmt.Fprintln(w, "  rates and 2 minutes for 64k byte processes during low message rates\"")
}

func fig55(w io.Writer, seed uint64) {
	section(w, "Fig 5.5 — % utilization of system components (simulated)")
	rows := model.Fig55(true, seed)
	cur := ""
	for _, r := range rows {
		if r.Disks != 1 && r.Point != "max-msg" {
			continue // the disk sweep only moves the needle at max-msg
		}
		if r.Point != cur {
			cur = r.Point
			fmt.Fprintf(w, "\n  operating point %q:\n", cur)
			fmt.Fprintf(w, "    %5s %5s | %8s %8s %8s\n", "nodes", "disks", "network", "cpu", "disk")
		}
		fmt.Fprintf(w, "    %5d %5d | %7.1f%% %7.1f%% %7.1f%%\n",
			r.Nodes, r.Disks, r.Network*100, r.CPU*100, r.Disk*100)
	}
}

func claims(w io.Writer, seed uint64) {
	section(w, "§5.1 — prose claims")

	p, _ := model.Point("max-msg")
	unbuf := model.DefaultSystem(p, 5, 1)
	unbuf.Buffered = false
	unbuf.Seed = seed
	ru := model.Simulate(unbuf)
	buf := model.DefaultSystem(p, 5, 1)
	buf.Seed = seed
	rb := model.Simulate(buf)
	fmt.Fprintf(w, "  disk at max-msg, 5 nodes: per-message writes %.0f%% -> 4KB buffers %.0f%%\n",
		ru.DiskUtil*100, rb.DiskUtil*100)
	fmt.Fprintln(w, "    paper: disk saturation \"removed by allowing messages to be written")
	fmt.Fprintln(w, "    out in 4k byte buffers rather than forcing one disk write per message\"")

	ps, _ := model.Point("max-syscall")
	fmt.Fprintf(w, "\n  max-syscall saturation: network binds at %.1f nodes (CPU at %.1f)\n",
		model.SaturationNodes(ps, true, 1)*1, satCPU(ps))
	fmt.Fprintln(w, "    paper: \"all three subsystems saturate when more than 3 processing")
	fmt.Fprintln(w, "    nodes are attached ... cannot be removed by any simple optimizations\"")

	worstBacklog, worstStorage := 0.0, 0.0
	for _, p := range model.Fig54OperatingPoints() {
		cfg := model.DefaultSystem(p, 5, 1)
		cfg.Seed = seed
		cfg.Measure = 60 * simtime.Second
		r := model.Simulate(cfg)
		if r.NetworkUtil < 0.95 && r.CPUUtil < 0.95 && r.DiskUtil < 0.95 && r.RecorderBacklogKB > worstBacklog {
			worstBacklog = r.RecorderBacklogKB
		}
		if r.StorageKB > worstStorage {
			worstStorage = r.StorageKB
		}
	}
	fmt.Fprintf(w, "\n  recorder buffering high-water: %.1f KB   (paper: \"at most 28k bytes\")\n", worstBacklog)
	fmt.Fprintf(w, "  worst-case checkpoint+message storage: %.2f MB (paper: 2.76 MB)\n", worstStorage/1024)
}

func satCPU(p model.OperatingPoint) float64 {
	_, cpu, _ := model.PerNodeDemand(p, model.Fig52(), true, 1)
	if cpu <= 0 {
		return 0
	}
	return 1 / cpu
}

func capacity(w io.Writer, seed uint64) {
	section(w, "capacity — the abstract's \"up to 115 users\"")
	fmt.Fprintf(w, "  analytic capacity:  %d users\n", model.AnalyticCapacity())
	fmt.Fprintf(w, "  simulated capacity: %d users (binary search to saturation)\n", model.Capacity(seed))
	fmt.Fprintln(w, "  paper: \"a recorder, constructed from current technology, can support")
	fmt.Fprintln(w, "  a system of up to 115 users\"")
}

func optim(w io.Writer, _ uint64) {
	section(w, "§6.6 — optimizations")
	p, _ := model.Point("max-msg")
	full := model.SaturationNodes(p, false, 1.0)
	trimmed := model.SaturationNodes(p, false, 0.85)
	fmt.Fprintf(w, "  §6.6.1 not publishing the disk-to-tape backups (15%% of messages at the\n")
	fmt.Fprintf(w, "  max disk-rate point): supportable nodes %.2f -> %.2f\n", full, trimmed)
	fmt.Fprintln(w, "    paper: \"the recorder would be able to support one more VAX\"")

	fmt.Fprintf(w, "\n  §6.6.2 node-level recovery removes intranode messages from the wire\n")
	fmt.Fprintf(w, "  (see 'go run ./cmd/experiments -nodeopt' for the measured trade-off)\n")
}

package publishing

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"publishing/internal/chaos"
	"publishing/internal/demos"
	"publishing/internal/frame"
	"publishing/internal/lan"
	"publishing/internal/simtime"
)

// This file is the chaos harness: the canonical chaos scenario, and the run
// that drives a fault schedule of internal/chaos through it. A chaos run is
// named by two values, its ChaosOptions and its chaos.Schedule: every chaos
// test, the soak tests and the `experiments -chaos` census pass that pair.
// The invariant checker is chaoscheck.go.

// ChaosOptions parameterize the canonical chaos scenario.
type ChaosOptions struct {
	// Msgs is the producer's message count (default 16).
	Msgs int
	// Nodes sizes the cluster (minimum and default 3, plus the recorder
	// node). The scenario's processes stay on nodes 0..2; larger clusters
	// add bystander stations so fault schedules drive the broadcast
	// delivery, gating, and per-destination fast paths at scale — the
	// 256-node smoke in sim_scale_test.go uses this.
	Nodes int
	// Medium selects the LAN simulation (default MediumPerfect).
	Medium MediumKind
	// Checkpoint enables the recovery-time-bound checkpoint policy on the
	// worker, which arms the harness's bounded-recovery invariant.
	Checkpoint bool
	// BreakDupSuppression disables the transport's duplicate detection —
	// negative testing: a run with injected duplication must then fail the
	// exactly-once invariant, proving the checker has teeth.
	BreakDupSuppression bool
	// Recorders, when > 1, runs that many recorders, replicated over
	// ShardSlots slots, which gives the checker's replay-basis-union
	// invariant replicas to compare and makes KindHandoffCrash faults
	// meaningful.
	Recorders int
	// ShardSlots is the shard table size (see Config.ShardSlots).
	ShardSlots int
}

// codeChaosOptions codes a chaos run's options, the first part of its
// reproducer token (chaosToken).
func codeChaosOptions(c *frame.Coder, opt *ChaosOptions) {
	frame.Int(c, &opt.Msgs)
	frame.Int(c, &opt.Nodes)
	c.Text((*string)(&opt.Medium))
	c.Bool(&opt.Checkpoint)
	c.Bool(&opt.BreakDupSuppression)
	frame.Int(c, &opt.Recorders)
	frame.Int(c, &opt.ShardSlots)
}

// chaosToken is the reproducer token of the run (opt, s): the options'
// encoding and the schedule's (chaos.Schedule.Hex), in hex, joined by a
// dot. TestChaosRepro replays the token's run, whatever its options.
func chaosToken(opt ChaosOptions, s chaos.Schedule) string {
	return hex.EncodeToString(frame.AppendBody(nil, &opt, codeChaosOptions)) + "." + s.Hex()
}

// parseChaosToken reads back the run a chaosToken names.
func parseChaosToken(tok string) (ChaosOptions, chaos.Schedule, error) {
	var opt ChaosOptions
	optHex, schedHex, ok := strings.Cut(strings.TrimSpace(tok), ".")
	if !ok {
		return opt, chaos.Schedule{}, fmt.Errorf("chaos token %q: want <options>.<schedule>", tok)
	}
	b, err := hex.DecodeString(optHex)
	if err == nil {
		err = frame.DecodeBody(b, &opt, codeChaosOptions)
	}
	if err != nil {
		return opt, chaos.Schedule{}, fmt.Errorf("chaos token options: %w", err)
	}
	s, err := chaos.DecodeHex(schedHex)
	return opt, s, err
}

// workerBound is the worker's recovery-time bound: 400 ms under the
// checkpoint policy, none without it. The checker's bounded-recovery
// invariant reads the same value.
func (opt ChaosOptions) workerBound() Time {
	if opt.Checkpoint {
		return 400 * simtime.Millisecond
	}
	return 0
}

// ChaosScenario assembles the canonical chaos scenario for one seed:
// producer on node 0, worker on node 1, witness on node 2, and the primary
// recorder on the first station past the processing nodes (node 3 at the
// default width). The watchdog's silence tolerance (MissThreshold 20 ×
// 500 ms = 10 s) deliberately exceeds the default 8 s fault window, so
// bursts and partitions can never falsely condemn the untargeted witness or
// producer nodes.
func ChaosScenario(seed uint64, opt ChaosOptions) (*Cluster, *PipelineRun) {
	if opt.Msgs <= 0 {
		opt.Msgs = 16
	}
	if opt.Nodes < 3 {
		opt.Nodes = 3
	}
	cfg := DefaultConfig(opt.Nodes)
	cfg.Seed = seed
	if opt.Medium != "" {
		cfg.Medium = opt.Medium
	}
	if opt.Nodes > 16 {
		// Keep the fault schedule the experiment, not congestion.
		FastLAN(&cfg)
	}
	cfg.MissThreshold = 20
	// The retry budget must outlast worst-case convalescence: ~10 s watchdog
	// detection + 2 s reboot + recovery, plus recorder-outage suspensions.
	// The default 200×50 ms = 10 s budget is exactly the detection tolerance,
	// so a sender could give up moments before the recovered process returns.
	// The attempt counter does not map to wall time (backed-off timeouts
	// stretch toward the transport's 400 ms ceiling), so the transport also
	// abandons a flight MaxRetries × RetransmitInterval after its first
	// transmission — 600 × 50 ms = 30 s is the effective give-up bound.
	cfg.Transport.MaxRetries = 600
	cfg.Transport.DisableDupSuppression = opt.BreakDupSuppression
	p := Pipeline{Msgs: opt.Msgs, Pace: 200 * simtime.Millisecond, Prefix: "chaos-", WorkerBound: opt.workerBound()}
	if opt.Checkpoint {
		cfg.CheckpointPolicy = CheckpointBound
		cfg.CheckpointTick = 300 * simtime.Millisecond
	}
	if opt.Recorders > 0 {
		cfg.Recorders = opt.Recorders
	}
	cfg.ShardSlots = opt.ShardSlots
	// Every chaos run carries the online invariant monitor: the checker reads
	// its exactly-once verdict, stamped with the virtual time the violating
	// delivery landed, not just discovered after the fact.
	cfg.Monitor = true
	c := New(cfg)
	return c, p.Start(c)
}

// ChaosSeedVariant derives per-seed option diversity for sweeps. A third of
// seeds run with the checkpoint-bound policy armed (exercising chunked
// checkpoint transfer and the bounded-recovery invariant). Among seeds
// 1–400 a third run the sharded replicated recorder trio (arming
// replay-basis-union and making handoff-crash faults bite; a sparse extra
// rotation overlaps sharding with the checkpoint seeds so the combination is
// covered too). Seeds from 401 on run §6.3's total copy, the trio on the
// one-slot map, so no earlier seed changed variant when they were added.
// Media rotate through the sweep so every LAN simulation faces schedules,
// and cluster sizes rotate 3/4/8/16/64 so fault schedules hit the
// gated-station and dense-table paths at every width the fast paths
// specialize for.
func ChaosSeedVariant(seed uint64) ChaosOptions {
	opt := ChaosOptions{
		Checkpoint: seed%3 == 1,
		Medium:     []MediumKind{"", MediumEther, MediumAckEther, MediumStar}[seed%4],
		Nodes:      []int{0, 4, 8, 16, 64}[seed%5],
	}
	switch {
	case seed > 400:
		opt.Recorders = 3
	case seed%3 == 2 || seed%7 == 1:
		opt.Recorders, opt.ShardSlots = 3, 16
	}
	return opt
}

// Tag compacts the options into a census note: cluster width, LAN medium,
// and which option rotations are armed — the checkpoint-bound policy and
// the replicated recorders, either §6.3's total copy (one slot, totalR) or
// a sharded map (shardRxS).
func (opt ChaosOptions) Tag() string {
	tag := fmt.Sprintf("n=%d", max(opt.Nodes, 3))
	if opt.Medium != "" {
		tag += " " + string(opt.Medium)
	}
	if opt.Checkpoint {
		tag += " ckpt"
	}
	switch {
	case opt.Recorders > 1 && opt.ShardSlots > 1:
		tag += fmt.Sprintf(" shard%dx%d", opt.Recorders, opt.ShardSlots)
	case opt.Recorders > 1:
		tag += fmt.Sprintf(" total%d", opt.Recorders)
	}
	return tag
}

// settleCap bounds how long (virtual) SettleChaos waits: generous against
// the ~10 s fault window, and still milliseconds of real time.
const settleCap = 4 * simtime.Minute

// RunChaos runs one schedule on the canonical scenario with opt, on one
// cluster: the faulted run with detailed tracing, then, once it has settled,
// the invariant check against PipelineRun.Model. The cluster is closed when
// it returns, so a sweep holds no finished cluster. With artifactDir set, a
// failing run dumps its post-mortem artifacts underneath it.
func RunChaos(opt ChaosOptions, s chaos.Schedule, artifactDir string) ChaosResult {
	c, run := ChaosScenario(s.Seed, opt)
	defer c.Close()
	// Detailed tracing emits the per-record replay events the monitor's
	// exactly-once rule counts as licenses. It changes only what is logged,
	// never the execution.
	c.Trace().SetDetailed(true)
	ApplyChaos(c, run, s)
	faulted := outcome(run, SettleChaos(c, s))

	r := checkChaos(c, opt, s, faulted, run.Model())
	if !r.Passed() && artifactDir != "" {
		dir, err := dumpChaosArtifacts(artifactDir, c, r)
		if err != nil {
			r.Report += fmt.Sprintf("artifacts not dumped: %v\n", err)
		} else {
			r.Artifacts = dir
		}
	}
	return r
}

// outcome collects what a settled run's pipeline produced.
func outcome(run *PipelineRun, unsettled []string) chaosOutcome {
	return chaosOutcome{Unsettled: unsettled, Done: run.Done(), Output: run.Output(), State: run.State()}
}

// ApplyChaos schedules every fault of s onto c's virtual clock, offset from
// the current instant. A fault's operands are indices reduced modulo the
// pipeline's layout, so any byte value (fuzzed included) resolves to a
// legal target: the worker is the process-crash victim and its node the
// node-crash victim, a partition isolates the producer's or the worker's
// node, and link loss cuts a link among the three pipeline nodes and the
// primary recorder's station. The witness's node is never crashed or
// partitioned: its external effects cannot be replay-deduplicated. Burst
// faults set an injection knob at At and restore it at At+Dur; overlapping
// bursts of the same kind resolve last-writer-wins, which is deterministic
// under the simulation scheduler's stable event order.
func ApplyChaos(c *Cluster, run *PipelineRun, s chaos.Schedule) {
	part := [...]NodeID{producerNode, workerNode}
	link := [...]NodeID{producerNode, workerNode, witnessNode, c.Recorder().Proc().Node}
	sched := c.Scheduler()
	start := sched.Now()
	for i, f := range s.Faults {
		at := start + f.At()
		end := at + f.Dur()
		switch f.Kind {
		case chaos.KindProcCrash:
			sched.At(at, func() { c.CrashProcess(run.Worker) })
		case chaos.KindNodeCrash:
			sched.At(at, func() { c.CrashNode(workerNode) })
		case chaos.KindRecorderOutage:
			recorderOutage(c, at, end)
		case chaos.KindHandoffCrash:
			nRecs := c.Recorders()
			if nRecs < 2 {
				// Degenerate cluster: behave like a recorder outage so the
				// fault still exercises something on one-recorder scenarios.
				recorderOutage(c, at, end)
				break
			}
			victim := int(f.A) % nRecs
			partner := (victim + 1) % nRecs
			chunks := 1 + int(f.B)%3
			sched.At(at, func() {
				if !c.RecorderAt(victim).Crashed() {
					c.CrashRecorderAt(victim)
				}
			})
			// Halfway through, arm the surviving partner to kill itself a few
			// chunks into serving the victim's catch-up handoff, then restart
			// the victim so that handoff actually starts.
			sched.At(at+f.Dur()/2, func() {
				if r := c.RecorderAt(partner); !r.Crashed() {
					r.ArmHandoffCrash(chunks)
				}
				if c.RecorderAt(victim).Crashed() {
					_ = c.RestartRecorderAt(victim)
				}
			})
			sched.At(end, func() {
				for i := range nRecs {
					if c.RecorderAt(i).Crashed() {
						_ = c.RestartRecorderAt(i)
					}
				}
			})
		case chaos.KindPartition:
			n := part[int(f.A)%len(part)]
			group := 1 + i // distinct per fault so overlaps stay separate
			sched.At(at, func() { c.Medium().Faults().SetPartition(n, group) })
			sched.At(end, func() { c.Medium().Faults().SetPartition(n, 0) })
		case chaos.KindLinkLoss:
			src, dst := link[int(f.A)%len(link)], link[int(f.B)%len(link)]
			if src != dst {
				p := f.EffProb()
				sched.At(at, func() { c.Medium().Faults().SetLinkLoss(src, dst, p) })
				sched.At(end, func() { c.Medium().Faults().SetLinkLoss(src, dst, 0) })
			}
		case chaos.KindStoreFailBurst:
			p := f.EffProb()
			sched.At(at, func() { c.Recorder().SetStoreFailProb(p) })
			sched.At(end, func() { c.Recorder().SetStoreFailProb(0) })
		default:
			if knob := probKnob(c.Medium().Faults(), f.Kind); knob != nil {
				p := f.EffProb()
				sched.At(at, func() { *knob = p })
				sched.At(end, func() { *knob = 0 })
			}
		}
	}
}

// recorderOutage crashes the primary recorder at at and restarts it at end,
// each step guarded so overlapping outages cannot double-crash or
// double-restart.
func recorderOutage(c *Cluster, at, end Time) {
	c.Scheduler().At(at, func() {
		if !c.Recorder().Crashed() {
			c.CrashRecorder()
		}
	})
	c.Scheduler().At(end, func() {
		if c.Recorder().Crashed() {
			_ = c.RestartRecorder()
		}
	})
}

// probKnob maps a burst kind to its FaultPlan field.
func probKnob(fp *lan.FaultPlan, k chaos.Kind) *float64 {
	switch k {
	case chaos.KindLossBurst:
		return &fp.LossProb
	case chaos.KindDupBurst:
		return &fp.DupProb
	case chaos.KindCorruptBurst:
		return &fp.CorruptProb
	case chaos.KindTapMissBurst:
		return &fp.TapMissProb
	case chaos.KindRecvMissBurst:
		return &fp.ReceiverMissProb
	case chaos.KindAckSlotBurst:
		return &fp.AckSlotErrProb
	default:
		return nil
	}
}

// SettleChaos runs c, to which s was applied at the current instant, until
// it has settled, and returns what is still unsettled (nil once settled).
// The stop is derived, not configured. It is no earlier than s's last fault
// end plus c.crashLag(), by when any crash the schedule caused has started
// its recovery. From there SettleChaos polls unsettled every 100 virtual ms,
// and it gives up at settleCap.
func SettleChaos(c *Cluster, s chaos.Schedule) []string {
	start := c.Now()
	var end Time
	for _, f := range s.Faults {
		end = max(end, f.At()+f.Dur())
	}
	c.Run(end + c.crashLag())
	for {
		busy := unsettled(c)
		if len(busy) == 0 || c.Now()-start >= settleCap {
			return busy
		}
		c.Run(100 * simtime.Millisecond)
	}
}

// unsettled lists, in node order and then process order, what is still
// moving in c: a node that is down, an endpoint with guaranteed messages in
// flight, a process that is running, crashed or recovering, a nonzero
// kernel queue, and a recorder that is down, catching up, or recovering a
// process.
func unsettled(c *Cluster) []string {
	var busy []string
	for _, n := range c.Nodes() {
		k := c.Kernel(n)
		if k.Crashed() {
			busy = append(busy, fmt.Sprintf("node %d down", n))
			continue
		}
		if inf := k.Endpoint().InFlight(); inf > 0 {
			busy = append(busy, fmt.Sprintf("node %d holds %d in flight", n, inf))
		}
		for _, p := range k.Procs() {
			if st := k.ProcState(p); st == demos.StateCrashed || st == demos.StateRecovering || !k.Quiescent(p) {
				busy = append(busy, fmt.Sprintf("%v %s", p, st))
			}
		}
		if d := c.Metrics().Gauge(int(n), "kernel", "queue_depth").Value(); d != 0 {
			busy = append(busy, fmt.Sprintf("node %d queue depth %d", n, d))
		}
	}
	for i := range c.Recorders() {
		switch r := c.RecorderAt(i); {
		case r.Crashed():
			busy = append(busy, fmt.Sprintf("rec%d down", i))
		case r.CatchingUp():
			busy = append(busy, fmt.Sprintf("rec%d catching up", i))
		default:
			for _, p := range r.KnownProcs() {
				if _, recovering, _, _, _ := r.Entry(p); recovering {
					busy = append(busy, fmt.Sprintf("rec%d recovering %v", i, p))
				}
			}
		}
	}
	return busy
}

// ChaosReproducer minimizes a failing schedule and formats the one-line
// repro instructions a test failure prints: the token names opt and the
// minimized schedule, so re-running it replays the exact failure. Its
// probes dump no artifacts.
func ChaosReproducer(opt ChaosOptions, s chaos.Schedule) string {
	min := chaos.Minimize(s, func(cand chaos.Schedule) bool {
		return !RunChaos(opt, cand, "").Passed()
	})
	return fmt.Sprintf(
		"failing seed %d; minimized schedule (%d/%d faults):\n%s\nreproduce with: CHAOS_SCHEDULE=%s go test -run TestChaosRepro .",
		s.Seed, len(min.Faults), len(s.Faults), min, chaosToken(opt, min))
}

// ChaosCensus runs the generated schedules of seeds start..start+n-1, each
// on its ChaosSeedVariant, across GOMAXPROCS workers, and returns their
// results in seed order. It is the chaos census: `experiments -chaos` prints
// it, and TestChaosCensus checks it against testdata/census.golden.
func ChaosCensus(start uint64, n int, artifactDir string) []ChaosResult {
	lim := chaos.DefaultLimits()
	out := make([]ChaosResult, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			seed := start + uint64(i)
			out[i] = RunChaos(ChaosSeedVariant(seed), chaos.Generate(seed, lim), artifactDir)
		}()
	}
	wg.Wait()
	return out
}

// dumpChaosArtifacts writes a failing run's post-mortem bundle into a
// directory named after the seed and schedule token, so the printed path
// doubles as the reproducer: report.txt (the checker report), trace.log
// (whatever the trace log retained — the flight-recorder ring on bounded
// runs), monitor.txt (the online monitor's report) and metrics.txt (the
// final metrics snapshot).
func dumpChaosArtifacts(root string, c *Cluster, r ChaosResult) (string, error) {
	token := r.Schedule.Hex()
	if len(token) > 24 {
		token = token[:24]
	}
	dir := filepath.Join(root, fmt.Sprintf("chaos-seed%d-%s", r.Schedule.Seed, token))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	write := func(name string, b []byte) error {
		return os.WriteFile(filepath.Join(dir, name), b, 0o644)
	}
	if err := write("report.txt", []byte(r.Report)); err != nil {
		return "", err
	}
	var tb bytes.Buffer
	fmt.Fprintf(&tb, "# trace tail: %d events retained, %d dropped by the flight-recorder bound\n",
		len(c.Trace().Events()), c.Trace().Dropped())
	c.Trace().Dump(&tb)
	if err := write("trace.log", tb.Bytes()); err != nil {
		return "", err
	}
	if err := write("monitor.txt", []byte(c.Monitor().Report())); err != nil {
		return "", err
	}
	var mb bytes.Buffer
	if err := c.Metrics().Snapshot().WriteText(&mb); err == nil {
		if err := write("metrics.txt", mb.Bytes()); err != nil {
			return "", err
		}
	}
	return dir, nil
}

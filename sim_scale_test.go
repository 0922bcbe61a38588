package publishing_test

// The big-cluster simulator scenario and its scale-determinism coverage. An
// internal/workload open-loop Poisson stream (hotspot-skewed publishers,
// fan-out subscriber draws) is re-expressed as cluster traffic: every
// arrival becomes guaranteed sends through the full stack — kernel send,
// medium broadcast, recorder tap + publish, transport acks, §4.4.1
// acceptance-order accounting. TestExperimentNumbers pins the scenario's
// event counts at 256 and 1024 nodes.
//
// The optimizations in simtime (4-ary heap), lan (no-fault broadcast fast
// path), and transport (dense per-destination tables) are only admissible
// while same-seed runs stay byte-identical. The tests below pin that
// property at 256 nodes — the scale the hot loop was tuned for — on both the
// fault-free workload scenario and the chaos harness's faulted paths. They
// are heavyweight, so `go test -short` skips them; `make check` runs them in
// full.

import (
	"encoding/binary"
	"fmt"
	"testing"

	"publishing"
	"publishing/internal/chaos"
	"publishing/internal/simtime"
	"publishing/internal/workload"
)

// simClusterSeed is the fixed scenario seed shared by the determinism tests,
// the monitor-passivity tests and TestExperimentNumbers' simulator rows.
const simClusterSeed = 7

// simClusterScale derives the workload shape from the node count: ~8
// messages per node at ~10 messages/second/proc, fan-out 2, with a fifth of
// the traffic concentrated on a 1/16 hot set — the floodsub-style load the
// ROADMAP's big-cluster scenarios assume.
func simClusterScale(nodes int) workload.Config {
	hot := nodes / 16
	if hot < 1 {
		hot = 1
	}
	// The aggregate arrival rate tops out at the 256-node figure. The
	// modeled 100 Mb/s LAN serializes a data frame in ~60 µs, so 10·N
	// arrivals/s at fan-out 2 crosses channel saturation (utilization > 1)
	// between 256 and 1024 nodes — an open-loop overload whose queues grow
	// without bound and that no drain window clears. Holding the channel at
	// the 256-node operating point (~0.31 data-frame utilization) lets node
	// count stress the simulator rather than the modeled queue; the
	// utilization arithmetic is worked in EXPERIMENTS.md.
	rate := 10 * float64(nodes)
	if nodes > 256 {
		rate = 10 * 256
	}
	return workload.Config{
		Seed:     simClusterSeed,
		Procs:    nodes,
		Rate:     rate,
		Hotspot:  0.2,
		HotProcs: hot,
		MsgBytes: 96,
		FanOut:   2,
	}
}

// simCluster is a built-but-not-yet-run scenario: callers run it themselves
// so they can fingerprint the cluster's metrics and recorder database, or
// read its clock and event count, afterwards.
type simCluster struct {
	c         *publishing.Cluster
	horizon   simtime.Time
	sent      int
	delivered *int64
}

// buildSimCluster assembles the scenario without running it. Optional
// mutators adjust the config after the standard scenario knobs are set
// (e.g. the sharded-recorder passivity test turns on the recorder trio).
// The cluster is closed when tb finishes.
func buildSimCluster(tb testing.TB, nodes int, seed uint64, monitored bool, mutate ...func(*publishing.Config)) *simCluster {
	wcfg := simClusterScale(nodes)
	wcfg.Seed = seed
	events := workload.Msgs(wcfg, 8*nodes)
	scheds := make([][]workload.MsgEvent, nodes)
	horizon := simtime.Time(0)
	sent := 0
	for _, ev := range events {
		scheds[ev.Pub] = append(scheds[ev.Pub], ev)
		sent += len(ev.Subs)
		if ev.At > horizon {
			horizon = ev.At
		}
	}

	cfg := publishing.DefaultConfig(nodes)
	cfg.Seed = seed
	// The simulator, not the modeled channel, is what this scenario stresses.
	publishing.FastLAN(&cfg)
	if nodes > 256 {
		// Past 256 nodes even the fast LAN saturates — not on data frames
		// (the arrival rate is capped, see simClusterScale) but on per-node
		// background traffic: the 50 µs interframe gap bounds the channel at
		// ~16.6k frames/s, and 1024 nodes' watchdog pings plus delayed-ack
		// flushes alone approach that ceiling during the burst, which shows
		// up as a spurious-retransmit storm. Model a switched 1 Gb/s fabric
		// (5 µs gap, ~160k frames/s) so utilization drops back to ~0.1; the
		// arithmetic is worked in EXPERIMENTS.md.
		cfg.LAN.BitsPerSecond = 1_000_000_000
		cfg.LAN.InterframeGap = 5 * simtime.Microsecond
	}
	if monitored {
		cfg.Monitor = true
	}
	for _, m := range mutate {
		m(&cfg)
	}
	c := publishing.New(cfg)
	tb.Cleanup(c.Close)
	if monitored {
		c.Trace().SetFlightRecorder(4096)
	} else {
		c.Trace().Enable(false)
	}

	// Not publishing.Stream: every node runs a publisher and a sink, fed by
	// the workload schedule, and the sim/* rows pin this shape's names.
	var delivered int64
	c.Registry().RegisterMachine("sink", func(args []byte) publishing.Machine {
		return &simSink{delivered: &delivered}
	})
	sinkNames := make([]string, nodes)
	for i := range sinkNames {
		sinkNames[i] = fmt.Sprintf("sink%d", i)
	}
	body := make([]byte, wcfg.MsgBytes)
	c.Registry().RegisterProgram("pub", func(args []byte) publishing.Program {
		sched := scheds[binary.BigEndian.Uint32(args)]
		return func(ctx *publishing.PCtx) {
			links := make([]publishing.LinkID, nodes)
			have := make([]bool, nodes)
			last := simtime.Time(0)
			for _, ev := range sched {
				if d := ev.At - last; d > 0 {
					ctx.Compute(d)
				}
				last = ev.At
				for _, sub := range ev.Subs {
					if !have[sub] {
						l, err := ctx.ServiceLink(sinkNames[sub])
						if err != nil {
							panic(err)
						}
						links[sub], have[sub] = l, true
					}
					_ = ctx.Send(links[sub], body, publishing.NoLink)
				}
			}
		}
	})

	for i := 0; i < nodes; i++ {
		pid, err := c.Spawn(publishing.NodeID(i), publishing.ProcSpec{Name: "sink", Recoverable: true})
		if err != nil {
			panic(err)
		}
		c.SetService(sinkNames[i], pid)
	}
	for i := 0; i < nodes; i++ {
		var args [4]byte
		binary.BigEndian.PutUint32(args[:], uint32(i))
		if _, err := c.Spawn(publishing.NodeID(i), publishing.ProcSpec{Name: "pub", Args: args[:], Recoverable: true}); err != nil {
			panic(err)
		}
	}

	return &simCluster{c: c, horizon: horizon, sent: sent, delivered: &delivered}
}

// simSink counts consumed messages; the count doubles as the scenario's
// delivery check (no-fault scenario: every send must arrive exactly once).
type simSink struct {
	n         int64
	delivered *int64
}

func (s *simSink) Init(ctx *publishing.PCtx) {}
func (s *simSink) Handle(ctx *publishing.PCtx, m publishing.Msg) {
	s.n++
	*s.delivered++
}
func (s *simSink) Snapshot() ([]byte, error) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(s.n))
	return b[:], nil
}
func (s *simSink) Restore(b []byte) error {
	s.n = int64(binary.BigEndian.Uint64(b))
	return nil
}

// run drives the scenario to its quiescent horizon — the last arrival plus a
// drain window for retransmits, delayed acks and recorder publishing — and
// fails tb unless every send was delivered.
func (s *simCluster) run(tb testing.TB) {
	s.c.Run(s.horizon + 2*simtime.Second)
	if got, want := *s.delivered, int64(s.sent); got != want {
		tb.Fatalf("delivered %d of %d messages", got, want)
	}
}

// scaleNodes is the cluster size the determinism tests run at.
const scaleNodes = 256

// TestScaleDeterminism256 runs the 256-node scenario twice with the same
// seed and requires equal fingerprints: clock, every metric and the recorder
// database. Any hidden nondeterminism the optimizations introduced — map
// iteration, heap-shape-dependent tie-breaks, allocation-order identity —
// would surface here before it could corrupt an experiment.
func TestScaleDeterminism256(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node double run; skipped in -short (tier-1) mode")
	}
	run := func() publishing.Fingerprint {
		s := buildSimCluster(t, scaleNodes, simClusterSeed, false)
		s.run(t)
		return s.c.Fingerprint()
	}
	if moved := run().Diff(run()); len(moved) > 0 {
		t.Errorf("same-seed runs differ in %v", moved)
	}
}

// chaosSmoke drives seed's generated fault schedule through the canonical
// chaos scenario on a cluster nodes wide and requires every invariant to
// hold.
func chaosSmoke(t *testing.T, seed uint64, nodes int) {
	opt := publishing.ChaosSeedVariant(seed)
	opt.Nodes = nodes
	sched := chaos.Generate(seed, chaos.DefaultLimits())
	res := publishing.RunChaos(opt, sched, "")
	if !res.Passed() {
		t.Errorf("chaos run failed at %d nodes:\n%s", nodes, res.Report)
		for _, v := range res.Violations {
			t.Logf("violation: %+v", v)
		}
	}
}

// TestChaosSmoke256 keeps the fault paths honest at scale: the no-fault
// fast paths (gated-station sets, clean fault draws, dense tables) must
// not have bent the faulted slow paths. It drives generated fault
// schedules through the canonical chaos scenario on a 256-node cluster —
// 253 bystander stations make the broadcast delivery and per-destination
// state as wide as the simulator scenario's — and requires every
// invariant to hold.
func TestChaosSmoke256(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node chaos runs; skipped in -short (tier-1) mode")
	}
	// Two seeds whose ChaosSeedVariant rotations differ in everything but
	// the width: seed 8 runs the perfect medium and the sharded recorder
	// trio, seed 13 ether, one recorder and the checkpoint policy.
	for _, seed := range []uint64{8, 13} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			chaosSmoke(t, seed, scaleNodes)
		})
	}
}

// TestChaosSmoke1024 pushes the chaos scenario to 1024 bystander stations,
// the width of the largest simulator row and of the utilization arithmetic
// in EXPERIMENTS.md: every invariant must hold at full width.
func TestChaosSmoke1024(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-node chaos run; skipped in -short (tier-1) mode")
	}
	t.Run("serial", func(t *testing.T) { chaosSmoke(t, 6, 1024) })
}

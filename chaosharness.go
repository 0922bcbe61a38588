package publishing

import (
	"fmt"
	"runtime"
	"sync"

	"publishing/internal/chaos"
	"publishing/internal/simtime"
)

// This file is the bridge between internal/chaos and a Cluster: the
// canonical chaos scenario every chaos test, the soak tests, and the
// `experiments -chaos` sweep share. It lives in the non-test part of the
// package so tools can reuse it; *Cluster satisfies chaos.System
// structurally, so internal/chaos never imports this package.

var _ chaos.System = (*Cluster)(nil)

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

// ChaosScenario assembles the canonical chaos scenario for one seed:
// producer on node 0, worker on node 1, witness on node 2, recorder on
// node 3. The watchdog's silence tolerance (MissThreshold 20 × 500 ms =
// 10 s) deliberately exceeds the default 8 s fault window, so bursts and
// partitions can never falsely condemn the untargeted witness or producer
// nodes.
func ChaosScenario(seed uint64, opt ChaosOptions) chaos.Scenario {
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
	p := Pipeline{Msgs: opt.Msgs, Pace: 200 * simtime.Millisecond, Prefix: "chaos-"}
	if opt.Checkpoint {
		cfg.CheckpointPolicy = CheckpointBound
		cfg.CheckpointTick = 300 * simtime.Millisecond
		p.WorkerBound = 400 * simtime.Millisecond
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
	run := p.Start(c)

	return chaos.Scenario{
		Sys:  c,
		Work: run,
		Targets: chaos.Targets{
			Worker:     run.Worker,
			CrashNodes: []NodeID{1},
			PartNodes:  []NodeID{0, 1},
			LinkNodes:  []NodeID{0, 1, 2, 3},
		},
		CheckCfg: chaos.CheckConfig{RecoveryBound: p.WorkerBound},
	}
}

// ChaosBuild returns the chaos.BuildFunc for ChaosScenario with fixed
// options — what chaos.Run calls twice per schedule (baseline + faulted).
func ChaosBuild(opt ChaosOptions) chaos.BuildFunc {
	return func(seed uint64) chaos.Scenario { return ChaosScenario(seed, opt) }
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

// ChaosCensus runs the generated schedules of seeds start..start+n-1, each
// on its ChaosSeedVariant, across GOMAXPROCS workers, and returns their
// results in seed order. It is the chaos census: `experiments -chaos` prints
// it, and TestChaosCensus checks it against testdata/census.golden.
func ChaosCensus(start uint64, n int, opt chaos.Options) []chaos.Result {
	lim := chaos.DefaultLimits()
	out := make([]chaos.Result, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			seed := start + uint64(i)
			out[i] = chaos.Run(chaos.Generate(seed, lim), ChaosBuild(ChaosSeedVariant(seed)), opt)
		}()
	}
	wg.Wait()
	return out
}

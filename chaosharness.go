package publishing

import (
	"bytes"
	"encoding/gob"
	"fmt"

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
	// Recorders, when > 1, runs that many recorders; with ShardSlots it
	// turns on the sharded recorder configuration (leader/follower replica
	// pairs per shard slot), arming the checker's replay-basis-union
	// invariant and making KindHandoffCrash faults meaningful.
	Recorders int
	// ShardSlots is the shard table size for sharded runs (needs
	// Recorders >= 2; see Config.ShardSlots).
	ShardSlots int
}

// chaosWorkerBound is the recovery-time bound the Checkpoint option sets.
const chaosWorkerBound = 400 * simtime.Millisecond

// chaosWorkload adapts the scenario's witness transcript and worker state
// to the chaos.Workload interface.
type chaosWorkload struct {
	n    int
	msgs []string
	// workerSt points at the current worker incarnation's state; recovery
	// constructs a fresh machine through the registry factory, which
	// re-points it, so State always reads the live instance.
	workerSt *chaosWorkerState
}

func (w *chaosWorkload) Done() bool { return len(w.msgs) >= w.n }

func (w *chaosWorkload) Output() []string { return append([]string(nil), w.msgs...) }

func (w *chaosWorkload) State() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(w.workerSt)
	return buf.Bytes(), err
}

// chaosWitness appends every message body to the workload transcript. It is
// never a fault target: its output escapes the simulation, so replaying it
// would duplicate external effects (see ROADMAP open items).
type chaosWitness struct{ wl *chaosWorkload }

func (m *chaosWitness) Init(*PCtx)                {}
func (m *chaosWitness) Handle(_ *PCtx, g Msg)     { m.wl.msgs = append(m.wl.msgs, string(g.Body)) }
func (m *chaosWitness) Snapshot() ([]byte, error) { return nil, nil }
func (m *chaosWitness) Restore([]byte) error      { return nil }

// chaosWorkerState is the worker's checkpointable state.
type chaosWorkerState struct {
	Witness LinkID
	HasOut  bool
	Count   int
	Sum     int
}

// chaosWorker accumulates integers and reports each step to the witness —
// the recoverable process whose exactly-once, state, and output guarantees
// the invariants check.
type chaosWorker struct{ st *chaosWorkerState }

func (m *chaosWorker) Init(ctx *PCtx) {
	if lid, err := ctx.ServiceLink("chaos-witness"); err == nil {
		m.st.Witness = lid
		m.st.HasOut = true
	}
}

func (m *chaosWorker) Handle(ctx *PCtx, g Msg) {
	m.st.Count++
	m.st.Sum += int(g.Body[0])
	if m.st.HasOut {
		_ = ctx.Send(m.st.Witness, []byte(fmt.Sprintf("step=%d sum=%d", m.st.Count, m.st.Sum)), NoLink)
	}
}

func (m *chaosWorker) Snapshot() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(m.st)
	return buf.Bytes(), err
}

func (m *chaosWorker) Restore(b []byte) error {
	return gob.NewDecoder(bytes.NewReader(b)).Decode(m.st)
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
		// The recorder pings every processing node each watch tick, so
		// watchdog traffic alone is ~2N frames per 500 ms. On the paper's
		// 10 Mb/s Ethernet (~2 ms per small frame with the interframe gap)
		// that saturates the bus near N≈128 and the scenario collapses into
		// congestion, not faults. Big-cluster smokes model a modern fast
		// LAN instead — the same shape bench_sim_test.go uses — keeping
		// ping load under ~10% so the fault schedule stays the experiment.
		cfg.LAN.BitsPerSecond = 100_000_000
		cfg.LAN.InterframeGap = 50 * simtime.Microsecond
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
	if opt.Checkpoint {
		cfg.CheckpointPolicy = CheckpointBound
		cfg.CheckpointTick = 300 * simtime.Millisecond
	}
	if opt.Recorders > 0 {
		cfg.Recorders = opt.Recorders
	}
	cfg.ShardSlots = opt.ShardSlots
	// Every chaos run carries the online invariant monitor, so the checker
	// can cross-check its streaming verdict against the post-quiescence
	// invariants (and so violations come stamped with the virtual time the
	// violating event landed, not just discovered after the fact).
	cfg.Monitor = true
	c := New(cfg)
	wl := &chaosWorkload{n: opt.Msgs}
	c.Registry().RegisterMachine("chaos-witness", func([]byte) Machine {
		return &chaosWitness{wl: wl}
	})
	c.Registry().RegisterMachine("chaos-worker", func([]byte) Machine {
		st := &chaosWorkerState{}
		wl.workerSt = st
		return &chaosWorker{st: st}
	})
	c.Registry().RegisterProgram("chaos-producer", func([]byte) Program {
		return func(ctx *PCtx) {
			link, err := ctx.ServiceLink("chaos-worker")
			if err != nil {
				return
			}
			for i := 1; i <= opt.Msgs; i++ {
				_ = ctx.Send(link, []byte{byte(i)}, NoLink)
				ctx.Compute(200 * simtime.Millisecond)
			}
		}
	})

	mustSpawn := func(node NodeID, spec ProcSpec) ProcID {
		p, err := c.Spawn(node, spec)
		if err != nil {
			panic(fmt.Sprintf("publishing: chaos scenario spawn %s: %v", spec.Name, err))
		}
		return p
	}
	wit := mustSpawn(2, ProcSpec{Name: "chaos-witness", Recoverable: true})
	c.SetService("chaos-witness", wit)
	workerSpec := ProcSpec{Name: "chaos-worker", Recoverable: true}
	if opt.Checkpoint {
		workerSpec.RecoveryTimeBound = chaosWorkerBound
	}
	worker := mustSpawn(1, workerSpec)
	c.SetService("chaos-worker", worker)
	mustSpawn(0, ProcSpec{Name: "chaos-producer", Recoverable: true})

	ck := chaos.CheckConfig{}
	if opt.Checkpoint {
		ck.RecoveryBound = chaosWorkerBound
	}
	return chaos.Scenario{
		Sys:  c,
		Work: wl,
		Targets: chaos.Targets{
			Worker:     worker,
			CrashNodes: []NodeID{1},
			PartNodes:  []NodeID{0, 1},
			LinkNodes:  []NodeID{0, 1, 2, 3},
		},
		CheckCfg: ck,
	}
}

// ChaosBuild returns the chaos.BuildFunc for ChaosScenario with fixed
// options — what chaos.Run calls twice per schedule (baseline + faulted).
func ChaosBuild(opt ChaosOptions) chaos.BuildFunc {
	return func(seed uint64) chaos.Scenario { return ChaosScenario(seed, opt) }
}

// ChaosSeedVariant derives per-seed option diversity for sweeps: a third of
// seeds run with the checkpoint-bound policy armed (exercising chunked
// checkpoint transfer and the bounded-recovery invariant), a third run the
// sharded replicated recorder trio (arming replay-basis-union and making
// handoff-crash faults bite; a sparse extra rotation overlaps sharding with
// the checkpoint seeds so the combination is covered too), media rotate
// through the sweep so every LAN simulation faces schedules, and cluster
// sizes rotate 3/4/8/16/64 so fault schedules hit the gated-station and
// dense-table paths at every width the fast paths specialize for.
func ChaosSeedVariant(seed uint64) ChaosOptions {
	opt := ChaosOptions{}
	switch seed % 3 {
	case 1:
		opt.Checkpoint = true
	case 2:
		opt.Recorders = 3
		opt.ShardSlots = 16
	}
	if seed%7 == 1 {
		opt.Recorders = 3
		opt.ShardSlots = 16
	}
	switch seed % 4 {
	case 1:
		opt.Medium = MediumEther
	case 2:
		opt.Medium = MediumAckEther
	case 3:
		opt.Medium = MediumStar
	}
	switch seed % 5 {
	case 1:
		opt.Nodes = 4
	case 2:
		opt.Nodes = 8
	case 3:
		opt.Nodes = 16
	case 4:
		opt.Nodes = 64
	}
	return opt
}

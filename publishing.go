// Package publishing is a reproduction of David L. Presotto's "PUBLISHING:
// A Reliable Broadcast Communication Mechanism" (UC Berkeley, 1983): a
// reliable-message recovery system in which a passive recorder on a
// broadcast LAN stores every message and process checkpoint, so any crashed
// deterministic process can be recovered transparently — restarted from a
// checkpoint (or its initial image), fed its published messages in their
// original order, its re-sent output suppressed — without disturbing the
// processes it was talking to.
//
// The package wires the reproduction's subsystems into a Cluster: a
// DEMOS/MP-style message kernel per node (internal/demos), a simulated
// broadcast medium (internal/lan: CSMA/CD Ethernet, Acknowledging Ethernet,
// token ring, star hub, or an idealized broadcast), a reliable transport
// (internal/transport), and the recorder with its stable store and recovery
// manager (internal/recorder, internal/stablestore). Everything runs under
// a deterministic virtual clock (internal/simtime): a Cluster with a given
// seed always produces the same execution, crash injection included.
//
// # Quick start
//
//	cfg := publishing.DefaultConfig(3)             // 3 nodes + recorder
//	c := publishing.New(cfg)
//	c.Registry().RegisterMachine("counter", newCounter)
//	pid, _ := c.Spawn(0, demos.ProcSpec{Name: "counter", Recoverable: true})
//	c.Run(5 * simtime.Second)
//	c.CrashProcess(pid)                            // fault injection
//	c.Run(5 * simtime.Second)                      // transparent recovery
//
// See examples/ for complete programs and DESIGN.md for the map from the
// paper's sections to modules.
package publishing

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"

	"publishing/internal/checkpoint"
	"publishing/internal/debugger"
	"publishing/internal/demos"
	"publishing/internal/frame"
	"publishing/internal/lan"
	"publishing/internal/metrics"
	"publishing/internal/monitor"
	"publishing/internal/recorder"
	"publishing/internal/simtime"
	"publishing/internal/stablestore"
	"publishing/internal/trace"
	"publishing/internal/transport"
)

// Re-exported identifiers so example programs and downstream users work
// against one import.
type (
	// ProcID names a process network-wide.
	ProcID = frame.ProcID
	// NodeID names a processor.
	NodeID = frame.NodeID
	// ProcSpec describes a process image.
	ProcSpec = demos.ProcSpec
	// Msg is a received message.
	Msg = demos.Msg
	// PCtx is the kernel-call interface processes receive.
	PCtx = demos.PCtx
	// Machine is a checkpointable message-handler process.
	Machine = demos.Machine
	// Program is a function-style process.
	Program = demos.Program
	// LinkID is a process's handle on a link.
	LinkID = demos.LinkID
	// Time is virtual time.
	Time = simtime.Time
)

// NoLink re-exports demos.NoLink.
const NoLink = demos.NoLink

// Conventional channel numbers, re-exported from the kernel.
const (
	ChanRequest = demos.ChanRequest
	ChanReply   = demos.ChanReply
	ChanUrgent  = demos.ChanUrgent
)

// Virtual-time units, re-exported for example programs and downstream use.
const (
	Nanosecond  = simtime.Nanosecond
	Microsecond = simtime.Microsecond
	Millisecond = simtime.Millisecond
	Second      = simtime.Second
	Minute      = simtime.Minute
)

// MediumKind selects the broadcast medium.
type MediumKind string

// Available media (Ch. 6 discusses all of them).
const (
	// MediumPerfect is an idealized broadcast (unit tests, queuing studies).
	MediumPerfect MediumKind = "perfect"
	// MediumEther is CSMA/CD; publish-before-use runs at the transport
	// level via recorder acknowledgements (§6.1).
	MediumEther MediumKind = "ether"
	// MediumAckEther is the Acknowledging Ethernet with recorder ack slots
	// (§6.1.1).
	MediumAckEther MediumKind = "ackether"
	// MediumRing is the token ring with recorder-filled ack fields (§6.1.2).
	MediumRing MediumKind = "ring"
	// MediumStar is the Z8000 star configuration with the recorder as hub
	// (§4.1, Fig 4.1a).
	MediumStar MediumKind = "star"
)

// CheckpointPolicyKind selects how checkpoints are triggered.
type CheckpointPolicyKind string

const (
	// CheckpointNone: never checkpoint; recovery replays from the initial
	// image — the thesis's own DEMOS/MP implementation subset.
	CheckpointNone CheckpointPolicyKind = "none"
	// CheckpointStorage: the §5.1 storage-balance policy.
	CheckpointStorage CheckpointPolicyKind = "storage"
	// CheckpointBound: the §3.2.3 recovery-time-bound policy, applied to
	// processes whose spec sets RecoveryTimeBound.
	CheckpointBound CheckpointPolicyKind = "bound"
)

// Config assembles a cluster.
type Config struct {
	// Nodes is the number of processing nodes (ids 0..Nodes-1). Recorders
	// take ids Nodes..Nodes+Recorders-1; spares follow.
	Nodes  int
	Spares int
	// Recorders is the number of recorders (§6.3 multiple recorders);
	// values < 1 mean one.
	Recorders int
	// ShardSlots, when > 0 with at least two recorders, runs the recorder
	// set sharded: process streams hash into this many shard slots, each
	// owned by a leader recorder and mirrored by one follower per the
	// seed-stable rendezvous map (recorder.ShardMap). Each recorder then
	// records, gates, and recovers only its own slots; the system replay
	// basis is the union of the shards. 0 is the classic §6.3 mode in which
	// every recorder records everything.
	ShardSlots int
	// Medium selects the LAN simulation.
	Medium MediumKind
	// Seed drives every random stream; same seed, same execution.
	Seed uint64
	// Publishing enables published communications. Off gives the baseline
	// DEMOS/MP the paper measures against in Fig 5.7/5.8.
	Publishing bool

	LAN       lan.Config
	Transport transport.Config
	Costs     demos.Costs

	// RecorderMode is the §5.2.2 publish processing cost model.
	RecorderMode recorder.ProcessMode
	// WatchInterval/MissThreshold tune processor-crash detection (§4.6).
	WatchInterval simtime.Time
	MissThreshold int
	// OnProcessorCrash is the §4.6 operator query; nil = recover on the
	// same processor after rebootDelay.
	OnProcessorCrash func(node NodeID) recorder.Decision
	// ReplayWindow is how many replay batches recovery keeps in flight
	// (0 = recorder default of 4; 1 = stop-and-wait).
	ReplayWindow int
	// ReplayBatchBytes bounds a replay batch's body (0 = one MTU; 1 = one
	// message per batch, the serial-replay ablation).
	ReplayBatchBytes int
	// RouteRepeats is how many routing-update broadcasts follow a migration
	// or spare-node recovery (0 = recorder default of 3; negative = none,
	// leaving delivery to home-node forwarding).
	RouteRepeats int

	// CheckpointPolicy and CheckpointTick drive automatic checkpointing.
	CheckpointPolicy CheckpointPolicyKind
	CheckpointTick   simtime.Time

	// Store locates the recorders' file backing: Path, when set, makes each
	// recorder's paged store file-backed (one page file per recorder under
	// Path); empty keeps them in memory.
	Store stablestore.Config

	// SystemProcs boots the DEMOS process-control system (process manager,
	// memory scheduler, name server) on node 0.
	SystemProcs bool

	// TraceWriter, when set, streams the simulation event trace.
	TraceWriter io.Writer
	// FlightRecorder, when > 0, bounds the trace log to the most recent
	// events (ring buffer), so long runs keep the tail without growing.
	FlightRecorder int

	// Monitor attaches the online invariant monitor (internal/monitor) to
	// the trace stream: acceptance-order monotonicity, exactly-once
	// delivery, replay-basis coverage, re-executed-output and
	// give-up/inference checks, publish→deliver / publish→stable SLO
	// histograms, and a stall detector — each violation flagged at the
	// virtual time of the violating event. Enabling the monitor turns on
	// detailed tracing (per-record replay events are part of the checked
	// stream); it does not force retention — pair with FlightRecorder to
	// bound memory on long monitored runs.
	Monitor bool
}

// rebootDelay is how long a crashed node takes to come back when the
// recovery decision is recover-on-same.
const rebootDelay = 2 * simtime.Second

// DefaultConfig returns a publishing-enabled cluster of n nodes on a
// perfect broadcast medium with media-level publish-before-use.
func DefaultConfig(n int) Config {
	return Config{
		Nodes:            n,
		Medium:           MediumPerfect,
		Seed:             1,
		Publishing:       true,
		LAN:              lan.DefaultConfig(),
		Transport:        transport.DefaultConfig(),
		Costs:            demos.DefaultCosts(),
		RecorderMode:     recorder.ModeMediaLayer,
		WatchInterval:    500 * simtime.Millisecond,
		MissThreshold:    3,
		CheckpointPolicy: CheckpointNone,
		CheckpointTick:   simtime.Second,
	}
}

// Cluster is a running simulated distributed system.
type Cluster struct {
	cfg   Config
	sched *simtime.Scheduler
	rng   *simtime.Rand
	log   *trace.Log
	mets  *metrics.Registry
	med   lan.Medium
	reg   *demos.Registry
	mon   *monitor.Monitor

	kernels map[NodeID]*demos.Kernel
	recs    []*recorder.Recorder
	stores  []*stablestore.Paged
	shards  *recorder.ShardMap
	// services mirrors servicesShared for read access; servicesShared is
	// the map instance every kernel holds a reference to.
	services       map[string]ProcID
	servicesShared map[string]frame.ProcID

	closed bool
}

// New builds a cluster from cfg.
func New(cfg Config) *Cluster {
	if cfg.Nodes <= 0 {
		panic("publishing: cluster needs at least one node")
	}
	c := &Cluster{
		cfg:      cfg,
		sched:    simtime.NewScheduler(),
		rng:      simtime.NewRand(cfg.Seed),
		reg:      demos.NewRegistry(),
		kernels:  make(map[NodeID]*demos.Kernel),
		services: make(map[string]ProcID),
	}
	c.log = trace.New(c.sched.Now)
	if cfg.TraceWriter != nil {
		c.log.SetSink(cfg.TraceWriter)
	}
	if cfg.FlightRecorder > 0 {
		c.log.SetFlightRecorder(cfg.FlightRecorder)
	}
	c.mets = metrics.NewRegistry()

	nRecs := cfg.Recorders
	if nRecs < 1 {
		nRecs = 1
	}
	if !cfg.Publishing {
		nRecs = 0
	}
	recNode := NodeID(cfg.Nodes)
	if cfg.ShardSlots > 0 && nRecs >= 2 {
		c.shards = recorder.NewShardMap(cfg.Seed, nRecs, cfg.ShardSlots)
	}
	switch cfg.Medium {
	case MediumEther:
		c.med = lan.NewEther(cfg.LAN, c.sched, c.rng.Fork(), c.log)
	case MediumAckEther:
		c.med = lan.NewAckEther(cfg.LAN, c.sched, c.rng.Fork(), c.log)
	case MediumRing:
		c.med = lan.NewRing(cfg.LAN, c.sched, c.rng.Fork(), c.log)
	case MediumStar:
		c.med = lan.NewStar(cfg.LAN, c.sched, c.rng.Fork(), c.log, recNode)
	default:
		c.med = lan.NewPerfect(cfg.LAN, c.sched, c.rng.Fork(), c.log)
	}
	// Every concrete medium embeds lan.base; the assertion keeps the Medium
	// interface free of observability plumbing.
	if um, ok := c.med.(interface{ UseMetrics(*metrics.Registry) }); ok {
		um.UseMetrics(c.mets)
	}

	tcfg := cfg.Transport
	tcfg.Metrics = c.mets
	// Pre-size every endpoint's per-destination tables for the full station
	// id space (processing nodes, recorders, spares).
	tcfg.Peers = cfg.Nodes + nRecs + cfg.Spares
	recProc := frame.NilProc
	if cfg.Publishing {
		recProc = ProcID{Node: recNode, Local: 1}
		if cfg.Medium == MediumEther {
			// Plain CSMA/CD cannot gate on the recorder; fall back to the
			// transport-level recorder-acknowledgement protocol (§6.1).
			tcfg.NeedRecorderAck = true
			// The recorder acks a frame only after its publish cost, so a
			// hold shorter than that discards every frame before its ack
			// can arrive; twice the cost leaves room for the ack's own trip.
			if tcfg.RecorderAckTimeout <= 0 {
				tcfg.RecorderAckTimeout = transport.DefaultConfig().RecorderAckTimeout
			}
			tcfg.RecorderAckTimeout = max(tcfg.RecorderAckTimeout, 2*cfg.RecorderMode.PerMessageCPU())
		}
	}

	env := demos.Env{
		Sched:        c.sched,
		Rng:          c.rng.Fork(),
		Log:          c.log,
		Registry:     c.reg,
		Costs:        cfg.Costs,
		Medium:       c.med,
		Transport:    tcfg,
		Publishing:   cfg.Publishing,
		RecorderProc: recProc,
		Services:     c.servicesView(),
		Metrics:      c.mets,
	}
	total := cfg.Nodes + cfg.Spares
	for i := 0; i < total; i++ {
		id := NodeID(i)
		if i >= cfg.Nodes {
			id = NodeID(i + nRecs) // skip the recorder ids
		}
		c.kernels[id] = demos.NewKernel(id, env)
	}
	if cfg.Monitor {
		c.attachMonitor()
	}

	if cfg.Publishing {
		watched := make([]NodeID, 0, len(c.kernels))
		for id := range c.kernels {
			watched = append(watched, id)
		}
		sortNodes(watched)
		allRecProcs := make([]frame.ProcID, nRecs)
		for i := 0; i < nRecs; i++ {
			allRecProcs[i] = ProcID{Node: NodeID(cfg.Nodes + i), Local: 1}
		}
		// The recorder's own transport never waits for recorder acks.
		rtcfg := cfg.Transport
		rtcfg.NeedRecorderAck = false
		rtcfg.Metrics = c.mets
		rtcfg.Peers = tcfg.Peers
		for i := 0; i < nRecs; i++ {
			rcfg := recorder.DefaultConfig(NodeID(cfg.Nodes+i), watched)
			rcfg.Metrics = c.mets
			rcfg.Mode = cfg.RecorderMode
			// Classic mode: rank 0 acknowledges for everyone (they all hold
			// every message anyway). Sharded mode: each stream's owners
			// acknowledge it, so every recorder emits for its own slots.
			rcfg.EmitRecorderAcks = tcfg.NeedRecorderAck && (c.shards != nil || i == 0)
			rcfg.Shards = c.shards
			if cfg.WatchInterval > 0 {
				rcfg.WatchInterval = cfg.WatchInterval
			}
			if cfg.MissThreshold > 0 {
				rcfg.MissThreshold = cfg.MissThreshold
			}
			if cfg.ReplayWindow > 0 {
				rcfg.ReplayWindow = cfg.ReplayWindow
			}
			if cfg.ReplayBatchBytes > 0 {
				rcfg.ReplayBatchBytes = cfg.ReplayBatchBytes
			}
			if cfg.RouteRepeats != 0 {
				rcfg.RouteRepeats = cfg.RouteRepeats
			}
			rcfg.OnProcessorCrash = cfg.OnProcessorCrash
			rcfg.RebootFn = func(n NodeID) {
				c.sched.After(rebootDelay, func() { c.RebootNode(n) })
			}
			rcfg.Rank = i
			rcfg.NoticeProcs = allRecProcs
			for j, p := range allRecProcs {
				if j != i {
					rcfg.Peers = append(rcfg.Peers, p)
				}
			}
			scfg := cfg.Store
			if scfg.Path != "" {
				scfg.Path = filepath.Join(cfg.Store.Path, fmt.Sprintf("rec%d", i))
			}
			store, err := stablestore.NewStore(scfg)
			if err != nil {
				panic(fmt.Sprintf("publishing: open stable store: %v", err))
			}
			rec := recorder.New(rcfg, c.sched, c.rng.Fork(), c.log, c.med, store, rtcfg)
			rec.Start()
			c.recs = append(c.recs, rec)
			c.stores = append(c.stores, store)
		}
	}

	if cfg.SystemProcs {
		c.bootSystemProcs()
	}
	c.armCheckpointTick()
	return c
}

// servicesView returns the shared well-known-service map all kernels use.
func (c *Cluster) servicesView() map[string]frame.ProcID {
	m := make(map[string]frame.ProcID)
	c.servicesShared = m
	return m
}

// sortNodes orders node ids ascending (map iteration is randomized).
func sortNodes(ns []NodeID) {
	for i := 1; i < len(ns); i++ {
		for j := i; j > 0 && ns[j] < ns[j-1]; j-- {
			ns[j], ns[j-1] = ns[j-1], ns[j]
		}
	}
}

func (c *Cluster) bootSystemProcs() {
	demos.RegisterSystemImages(c.reg)
	ns, err := c.Spawn(0, ProcSpec{Name: demos.SysNameSvc, Recoverable: true})
	if err != nil {
		panic(err)
	}
	ms, err := c.Spawn(0, ProcSpec{Name: demos.SysMemSched, Recoverable: true})
	if err != nil {
		panic(err)
	}
	c.SetService("namesvc", ns)
	c.SetService("memsched", ms)
	pm, err := c.Spawn(0, ProcSpec{Name: demos.SysProcMgr, Recoverable: true})
	if err != nil {
		panic(err)
	}
	c.SetService("procmgr", pm)
}

// attachMonitor wires the online invariant monitor into the trace stream and
// arms its stall tick. Monitoring needs the detailed event stream (per-record
// replay licenses must precede the deliveries they license), so it turns
// detailed tracing on; event retention is unaffected.
func (c *Cluster) attachMonitor() {
	nodes := make([]NodeID, 0, len(c.kernels))
	for id := range c.kernels {
		nodes = append(nodes, id)
	}
	sortNodes(nodes)
	probe := func() (int64, string) {
		var total int64
		var b strings.Builder
		for _, id := range nodes {
			v := c.mets.Gauge(int(id), "kernel", "queue_depth").Value()
			total += v
			if v > 0 {
				if b.Len() > 0 {
					b.WriteByte(' ')
				}
				fmt.Fprintf(&b, "n%d=%d", id, v)
			}
		}
		return total, b.String()
	}
	var shardOwner func(node int, proc string) bool
	if c.shards != nil {
		nNodes, shards := c.cfg.Nodes, c.shards
		shardOwner = func(node int, proc string) bool {
			rank := node - nNodes
			if rank < 0 || rank >= shards.Recorders() {
				return true // processing nodes own no shards; unconstrained
			}
			var pn, pl int
			if n, err := fmt.Sscanf(proc, "p%d.%d", &pn, &pl); err != nil || n != 2 {
				return true // not a process stream (e.g. "recorder" crash events)
			}
			p := frame.ProcID{Node: frame.NodeID(pn), Local: uint32(pl)}
			return shards.Replicates(rank, shards.ShardOf(p))
		}
	}
	c.mon = monitor.New(monitor.Config{
		QueueProbe: probe,
		Metrics:    c.mets,
		ShardOwner: shardOwner,
	}, c.sched.Now)
	c.log.SetDetailed(true)
	c.log.SetObserver(c.mon.Observe)
	// Batch observer callbacks: the monitor consumes events in bursts (one
	// ring per stall half-window at most) instead of one indirect call per
	// trace event, trimming the monitored hot path. The monitor's verdicts
	// key on Event.At, so batching shifts no violation timestamps.
	c.log.SetObserverRing(monitorObserverRing)
	// Check for stalls twice per window so a pause is caught within 1.5
	// windows of its start. The tick only reads state, so arming it cannot
	// perturb an otherwise-identical run. Each tick first drains the
	// observer ring so the stall detector sees every event up to now.
	half := c.mon.StallWindow() / 2
	var tick func()
	tick = func() {
		c.log.FlushObservers()
		c.mon.Tick()
		c.sched.After(half, tick)
	}
	c.sched.After(half, tick)
}

// monitorObserverRing is the monitor's observer batch size. Big enough to
// amortize the per-event callback, small enough that a burst of trace
// events between stall ticks cannot defer a violation's discovery far past
// the virtual instant it happened (verdict timestamps use Event.At either
// way).
const monitorObserverRing = 256

func (c *Cluster) armCheckpointTick() {
	if c.cfg.CheckpointPolicy == CheckpointNone || c.cfg.CheckpointTick <= 0 || !c.cfg.Publishing {
		return
	}
	var pol checkpoint.Policy
	switch c.cfg.CheckpointPolicy {
	case CheckpointStorage:
		pol = checkpoint.StorageBalancePolicy{}
	default:
		pol = checkpoint.BoundPolicy{Margin: 0.9}
	}
	lp := checkpoint.Fig31Params()
	// Sorted: checkpoints taken on one tick are published in this order, so
	// map order here would make same-seed runs diverge.
	nodes := c.Nodes()
	var loads []demos.RecoveryLoad // reused by every tick
	var tick func()
	tick = func() {
		for _, n := range nodes {
			k := c.kernels[n]
			if k.Crashed() {
				continue
			}
			loads = k.AppendLoads(loads[:0])
			for _, load := range loads {
				if !load.Checkpointable {
					continue
				}
				pp := checkpoint.ProcParams{
					CheckpointPages: load.StateKB * 2, // 512-byte pages
					MsgsSince:       load.MsgsSinceCk,
					BytesSince:      load.BytesSinceCk,
					ExecSince:       load.CPUSinceCk,
				}
				if pol.ShouldCheckpoint(lp, pp, load.Bound) {
					_, _ = k.CheckpointNow(load.Proc)
				}
			}
		}
		c.sched.After(c.cfg.CheckpointTick, tick)
	}
	c.sched.After(c.cfg.CheckpointTick, tick)
}

// Registry exposes the process-image registry; register every image before
// spawning or recovery will not find it.
func (c *Cluster) Registry() *demos.Registry { return c.reg }

// SetService publishes a well-known service address to every kernel.
func (c *Cluster) SetService(name string, p ProcID) {
	c.servicesShared[name] = p
	c.services[name] = p
}

// Spawn creates a process directly on a node (boot-time convenience; at
// runtime processes create each other through the process manager).
func (c *Cluster) Spawn(node NodeID, spec ProcSpec) (ProcID, error) {
	k := c.kernels[node]
	if k == nil {
		return frame.NilProc, fmt.Errorf("publishing: no node %d", node)
	}
	return k.Spawn(spec, demos.SpawnOptions{})
}

// Close tears the cluster down: every program still parked in a kernel call
// is unwound (its deferred functions run) so its coroutine is released and
// the cluster's heap can be collected. Metrics, trace, stores and recorder
// databases stay readable; Run and RunUntil panic afterwards. Idempotent.
func (c *Cluster) Close() {
	c.closed = true
	for _, k := range c.kernels {
		k.Shutdown()
	}
}

func (c *Cluster) mustBeOpen() {
	if c.closed {
		panic("publishing: Run on a closed Cluster")
	}
}

// Run advances virtual time by d.
func (c *Cluster) Run(d Time) {
	c.mustBeOpen()
	c.sched.Run(c.sched.Now() + d)
	// Deliver any tail of batched observer events so monitor verdicts are
	// complete when the caller inspects them after the run.
	c.log.FlushObservers()
}

// RunUntil advances time until pred holds or the deadline passes, checking
// every step. It reports whether pred held.
func (c *Cluster) RunUntil(pred func() bool, max Time) bool {
	c.mustBeOpen()
	deadline := c.sched.Now() + max
	for c.sched.Now() < deadline {
		if pred() {
			return true
		}
		if next := c.sched.NextAt(); next == simtime.Never || next > deadline {
			break
		}
		c.sched.Step()
	}
	return pred()
}

// Now returns the virtual clock.
func (c *Cluster) Now() Time { return c.sched.Now() }

// Scheduler exposes the event scheduler (experiments schedule load with it).
func (c *Cluster) Scheduler() *simtime.Scheduler { return c.sched }

// Kernel returns a node's kernel.
func (c *Cluster) Kernel(node NodeID) *demos.Kernel { return c.kernels[node] }

// Nodes lists processing + spare node ids.
func (c *Cluster) Nodes() []NodeID {
	out := make([]NodeID, 0, len(c.kernels))
	for id := range c.kernels {
		out = append(out, id)
	}
	sortNodes(out)
	return out
}

// Recorder returns the primary recorder (nil when publishing is off).
func (c *Cluster) Recorder() *recorder.Recorder { return c.RecorderAt(0) }

// RecorderAt returns the i-th recorder, or nil.
func (c *Cluster) RecorderAt(i int) *recorder.Recorder {
	if i < 0 || i >= len(c.recs) {
		return nil
	}
	return c.recs[i]
}

// Recorders returns how many recorders the cluster runs.
func (c *Cluster) Recorders() int { return len(c.recs) }

// ShardMap returns the sharded-recorder ownership map, or nil when the
// cluster runs the classic all-recorders-record-everything mode.
func (c *Cluster) ShardMap() *recorder.ShardMap { return c.shards }

// Medium returns the LAN.
func (c *Cluster) Medium() lan.Medium { return c.med }

// Trace returns the event log.
func (c *Cluster) Trace() *trace.Log { return c.log }

// Metrics returns the cluster's metrics registry: every subsystem's
// counters, gauges, and histograms, keyed by (node, subsystem, name).
func (c *Cluster) Metrics() *metrics.Registry { return c.mets }

// Monitor returns the online invariant monitor, or nil unless Config.Monitor
// was set. Batched observer events are flushed first, so the monitor's
// verdicts reflect everything traced up to this instant.
func (c *Cluster) Monitor() *monitor.Monitor {
	c.log.FlushObservers()
	return c.mon
}

// Store returns the primary recorder's stable store (nil when publishing
// is off).
func (c *Cluster) Store() *stablestore.Paged {
	if len(c.stores) == 0 {
		return nil
	}
	return c.stores[0]
}

// StoreAt returns recorder rank i's stable store, or nil if out of range —
// multi-recorder fingerprint tests dump every replica's database.
func (c *Cluster) StoreAt(i int) *stablestore.Paged {
	if i < 0 || i >= len(c.stores) {
		return nil
	}
	return c.stores[i]
}

// --- Fault injection --------------------------------------------------------

// CrashProcess halts one process on a simulated fault (§3.3.2).
func (c *Cluster) CrashProcess(p ProcID) {
	for _, k := range c.kernels {
		if k.ProcState(p) != demos.StateUnknown {
			k.CrashProcess(p, "injected by cluster")
			return
		}
	}
}

// CrashNode crashes a whole processor.
func (c *Cluster) CrashNode(n NodeID) {
	if k := c.kernels[n]; k != nil {
		k.CrashNode()
	}
}

// RebootNode brings a crashed processor back (empty; recovery refills it).
func (c *Cluster) RebootNode(n NodeID) {
	if k := c.kernels[n]; k != nil {
		k.Reboot()
	}
}

// CrashRecorder takes the recorder down; all guaranteed traffic suspends
// until RestartRecorder (§3.3.4).
func (c *Cluster) CrashRecorder() {
	c.CrashRecorderAt(0)
}

// RestartRecorder restarts the recorder: database rebuild from stable
// storage plus the §3.3.4 node-query protocol.
func (c *Cluster) RestartRecorder() error {
	return c.RestartRecorderAt(0)
}

// Migrate moves a quiescent machine process to another node — §7.1's
// integration of publishing with Powell & Miller process migration. The
// process resumes on the destination with its unread queue intact; the
// recorder learns the new location (future crashes recover it there) and
// broadcasts routing updates; the source node forwards stragglers.
func (c *Cluster) Migrate(p ProcID, to NodeID) error {
	dst := c.kernels[to]
	if dst == nil {
		return fmt.Errorf("publishing: migrate: no node %d", to)
	}
	var src *demos.Kernel
	for _, k := range c.kernels {
		if k.ProcState(p) != demos.StateUnknown {
			src = k
			break
		}
	}
	if src == nil {
		return fmt.Errorf("publishing: migrate: no node runs %s", p)
	}
	if src == dst {
		return nil
	}
	img, err := src.ExportProcess(p, to)
	if err != nil {
		return err
	}
	if err := dst.ImportProcess(img); err != nil {
		return fmt.Errorf("publishing: migrate: import failed: %w", err)
	}
	return nil
}

// DebugSession opens a §6.5 replay-debugging session for a process,
// re-executing it in a sandbox against its published message stream. With
// fromCheckpoint, the session starts at the latest stored checkpoint.
func (c *Cluster) DebugSession(p ProcID, fromCheckpoint bool) (*debugger.Session, error) {
	if len(c.recs) == 0 {
		return nil, fmt.Errorf("publishing: debugging requires publishing to be enabled")
	}
	return debugger.FromRecorder(c.reg, c.recs[0], p, fromCheckpoint, c.servicesShared)
}

// CrashRecorderAt takes one recorder down.
func (c *Cluster) CrashRecorderAt(i int) {
	if r := c.RecorderAt(i); r != nil {
		r.Crash()
	}
}

// RestartRecorderAt restarts one recorder (database rebuild + §3.3.4
// queries + §6.3 catch-up when peers exist).
func (c *Cluster) RestartRecorderAt(i int) error {
	if r := c.RecorderAt(i); r != nil {
		return r.Restart()
	}
	return nil
}

// ProcState reports a process's state as seen by whichever node knows it.
func (c *Cluster) ProcState(p ProcID) demos.ProcState {
	for _, k := range c.kernels {
		if st := k.ProcState(p); st != demos.StateUnknown {
			return st
		}
	}
	return demos.StateUnknown
}

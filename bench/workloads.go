package main

import (
	"encoding/binary"
	"fmt"

	"publishing"
	"publishing/internal/demos"
	"publishing/internal/frame"
	"publishing/internal/lan"
	"publishing/internal/simtime"
	"publishing/internal/workload"
)

// workloadDef names one workload and builds it. Sizes are per scale:
// "full" is what BENCHMARK.json measures, "tiny" is the smoke test's.
type workloadDef struct {
	name, why string
	build     func(o passOpts) *pass
}

// pass is one built, not yet run, workload instance.
type pass struct {
	c *publishing.Cluster
	h *harness
	// deadline bounds the virtual time of each phase; reaching it with
	// messages undelivered is a failure, not a hang.
	deadline simtime.Time
	// step runs before every event of the timed phase (crash3 injects its
	// crashes from it). Nil on the fault-free workloads.
	step func()
	// crashes is how many recoveries the workload injects.
	crashes int
	cycles  []recoveryCycle
	// cfg and faults are what the cluster was built from; the layer drives
	// shape their inputs from them.
	cfg    publishing.Config
	faults func(*lan.FaultPlan)
}

var workloads = []workloadDef{
	{"fanout256", "256 nodes, Poisson fan-out stream, fault-free: per-node timers, medium delivery and dispatch across 256 kernels dominate; coalescing and the store do little", buildFanout256},
	{"stream3", "the paper's 3-node AckEther pipeline with VAX costs and bound checkpoints: the per-message path through demos, transport, recorder publish and stablestore; Fig 5.7-comparable latencies", buildStream3},
	{"echo2-wire", "2 nodes, zero CPU costs, 16 requests outstanding (closed loop): the only traffic that reaches coalescing, piggybacked acks and the adaptive RTO; channel utilisation 1.0", buildEcho2Wire},
	{"crash3", "3-node pipeline, no checkpoints, worker crashed nine times at growing replay lengths: recorder replay batching, kernel replay application and output suppression", buildCrash3},
	{"faulty64", "64 nodes, sharded recorder trio, 1% loss/receiver-miss/tap-miss and 0.5% duplication: lan slow path, retransmission and RTO back-off, missed-arrival inference, voting taps", buildFaulty64},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// --- fanout256 / faulty64: the internal/workload Poisson stream ------------

type fanoutShape struct {
	nodes         int
	rate          float64 // arrivals per virtual second, whole cluster
	perNode       int     // arrivals per node
	recorders     int
	shardSlots    int
	missThreshold int
	faults        func(*lan.FaultPlan)
}

func buildFanout256(o passOpts) *pass {
	s := fanoutShape{nodes: 256, rate: 1024, perNode: 150}
	if o.tiny {
		s.perNode = 8
	}
	return buildFanout(o, s)
}

func buildFaulty64(o passOpts) *pass {
	s := fanoutShape{
		nodes: 64, rate: 256, perNode: 500,
		recorders: 3, shardSlots: 16,
		// As in the chaos harness: at the default 3 a 1 % loss rate draws
		// false processor-crash verdicts from the watchdog.
		missThreshold: 20,
		faults: func(p *lan.FaultPlan) {
			p.LossProb = 0.01
			p.ReceiverMissProb = 0.01
			p.TapMissProb = 0.01
			p.DupProb = 0.005
		},
	}
	if o.tiny {
		s.perNode = 24
	}
	return buildFanout(o, s)
}

func buildFanout(o passOpts, s fanoutShape) *pass {
	const fanOut, msgBytes = 2, 96
	events := workload.Msgs(workload.Config{
		Seed: o.seed, Procs: s.nodes, Rate: s.rate,
		Hotspot: 0.2, HotProcs: s.nodes / 16,
		MsgBytes: msgBytes, FanOut: fanOut,
	}, s.perNode*s.nodes)
	type arrival struct {
		at   simtime.Time
		subs []int
		idx  int // index of the arrival's first message
	}
	scheds := make([][]arrival, s.nodes)
	total := 0
	var horizon simtime.Time
	for _, ev := range events {
		scheds[ev.Pub] = append(scheds[ev.Pub], arrival{ev.At, ev.Subs, total})
		total += len(ev.Subs)
		horizon = max(horizon, ev.At)
	}
	h := newHarness(o, total)

	cfg := publishing.DefaultConfig(s.nodes)
	cfg.Seed = o.seed
	// The bench_sim_test.go LAN: the Fig 5.2 10 Mb/s Ethernet saturates long
	// before this many nodes' offered load.
	cfg.LAN.BitsPerSecond = 100_000_000
	cfg.LAN.InterframeGap = 50 * simtime.Microsecond
	cfg.Recorders, cfg.ShardSlots = s.recorders, s.shardSlots
	if s.missThreshold > 0 {
		cfg.MissThreshold = s.missThreshold
	}
	c := publishing.New(cfg)
	h.attach(c)

	sinkNames := make([]string, s.nodes)
	for i := range sinkNames {
		sinkNames[i] = fmt.Sprintf("sink%d", i)
	}
	c.Registry().RegisterMachine("sink", h.newSink)
	c.Registry().RegisterProgram("pub", func(args []byte) publishing.Program {
		sched := scheds[binary.BigEndian.Uint32(args)]
		return func(ctx *publishing.PCtx) {
			links := make([]publishing.LinkID, s.nodes)
			have := make([]bool, s.nodes)
			for _, a := range sched {
				ctx.Receive() // the arrival's tick, see below
				h.late(a.at)
				for j, sub := range a.subs {
					if !have[sub] {
						links[sub], have[sub] = must(ctx.ServiceLink(sinkNames[sub])), true
					}
					if err := ctx.Send(links[sub], h.body(a.idx+j, msgBytes), publishing.NoLink); err != nil {
						panic(err)
					}
				}
			}
		}
	})
	for i := 0; i < s.nodes; i++ {
		c.SetService(sinkNames[i], must(c.Spawn(publishing.NodeID(i), publishing.ProcSpec{Name: "sink", Recoverable: true})))
	}
	// Open loop: a publisher blocks in Receive and the harness injects a tick
	// when each arrival is due. Pacing with Compute, as bench_sim_test.go
	// does, charges the node's CPU for the whole pause, so the co-located
	// sink's Handle waits out the publisher's gap: that wait was 178 of the
	// 207 vms of deliver_p50 and made deliver_p99 the tail of the exponential
	// gap. A tick that finds its publisher still sending queues behind it;
	// that lateness is load.gen_lag_p99_vms. Tick ids sit above any sequence
	// number the publisher will send under, so the monitor sees them as
	// distinct messages.
	for i := 0; i < s.nodes; i++ {
		var args [4]byte
		binary.BigEndian.PutUint32(args[:], uint32(i))
		pub := must(c.Spawn(publishing.NodeID(i), publishing.ProcSpec{Name: "pub", Args: args[:], Recoverable: true}))
		k, sched, next := c.Kernel(publishing.NodeID(i)), scheds[i], 0
		var tick func()
		tick = func() {
			next++
			if err := k.Inject(pub, publishing.Msg{ID: frame.MsgID{Sender: pub, Seq: 1<<40 + uint64(next)}}, nil); err != nil {
				panic(err)
			}
			if next < len(sched) {
				c.Scheduler().At(sched[next].at, tick)
			}
		}
		if len(sched) > 0 {
			c.Scheduler().At(sched[0].at, tick)
		}
	}
	if s.faults != nil {
		s.faults(c.Medium().Faults())
	}
	return &pass{c: c, h: h, deadline: 2*horizon + simtime.Minute, cfg: cfg, faults: s.faults}
}

// --- stream3 / crash3: producer -> worker -> witness ------------------------

// item is one generated pipeline input.
type item struct {
	think simtime.Time
	size  int
}

// pipeline registers the three images. Item i travels producer -> worker as
// message 2i and worker -> witness as message 2i+1.
func pipeline(c *publishing.Cluster, h *harness, items []item, workerBound simtime.Time) (worker publishing.ProcID, witnessed *int) {
	reg := c.Registry()
	witnessed = new(int)
	reg.RegisterMachine("witness", func([]byte) publishing.Machine {
		return &sink{h: h, seen: newBitset(h.total), fresh: witnessed}
	})
	reg.RegisterMachine("worker", func([]byte) publishing.Machine {
		return &worker3{h: h, seen: newBitset(h.total)}
	})
	reg.RegisterProgram("producer", func([]byte) publishing.Program {
		return func(ctx *publishing.PCtx) {
			l := must(ctx.ServiceLink("worker"))
			for i, it := range items {
				ctx.Compute(it.think)
				if err := ctx.Send(l, h.body(2*i, it.size), publishing.NoLink); err != nil {
					panic(err)
				}
			}
		}
	})
	c.SetService("witness", must(c.Spawn(2, publishing.ProcSpec{Name: "witness", Recoverable: true})))
	worker = must(c.Spawn(1, publishing.ProcSpec{Name: "worker", Recoverable: true, RecoveryTimeBound: workerBound}))
	c.SetService("worker", worker)
	must(c.Spawn(0, publishing.ProcSpec{Name: "producer", Recoverable: true}))
	return worker, witnessed
}

// worker3 forwards every item to the witness at its own size. Its
// checkpointable state is the forwarding link and a count.
type worker3 struct {
	h      *harness
	seen   bitset
	out    publishing.LinkID
	hasOut bool
	n      uint32
}

func (w *worker3) Init(ctx *publishing.PCtx) {
	w.out, w.hasOut = must(ctx.ServiceLink("witness")), true
}

func (w *worker3) Handle(ctx *publishing.PCtx, m publishing.Msg) {
	idx, _ := w.h.handle(w.seen, m)
	w.n++
	if err := ctx.Send(w.out, w.h.body(idx+1, len(m.Body)), publishing.NoLink); err != nil {
		panic(err)
	}
}

func (w *worker3) Snapshot() ([]byte, error) {
	b := make([]byte, 9)
	binary.BigEndian.PutUint32(b, uint32(w.out))
	if w.hasOut {
		b[4] = 1
	}
	binary.BigEndian.PutUint32(b[5:], w.n)
	return b, nil
}

func (w *worker3) Restore(b []byte) error {
	if len(b) != 9 {
		return fmt.Errorf("bench: worker snapshot is %d bytes", len(b))
	}
	w.out = publishing.LinkID(binary.BigEndian.Uint32(b))
	w.hasOut = b[4] == 1
	w.n = binary.BigEndian.Uint32(b[5:])
	return nil
}

// thinkAround draws a think time uniformly from [mean/2, 3*mean/2).
func thinkAround(rng *simtime.Rand, mean simtime.Time) simtime.Time {
	return mean/2 + simtime.Time(rng.Intn(int(mean)))
}

func buildStream3(o passOpts) *pass {
	n := 60_000
	if o.tiny {
		n = 1_500
	}
	rng := simtime.NewRand(o.seed)
	items := make([]item, n)
	for i := range items {
		items[i].think = thinkAround(rng, 20*simtime.Millisecond)
		switch p := rng.Intn(100); {
		case p < 70:
			items[i].size = 16
		case p < 95:
			items[i].size = 128
		default:
			items[i].size = 1024
		}
	}
	h := newHarness(o, 2*n)

	// The paper's own configuration: Fig 5.2 LAN, VAX costs, the
	// Acknowledging Ethernet.
	cfg := publishing.DefaultConfig(3)
	cfg.Seed = o.seed
	cfg.Medium = publishing.MediumAckEther
	// Bound on a single process: CheckpointStorage is not same-seed
	// deterministic (armCheckpointTick ranges over a map), see README.
	cfg.CheckpointPolicy = publishing.CheckpointBound
	c := publishing.New(cfg)
	h.attach(c)
	pipeline(c, h, items, 2*simtime.Second)
	return &pass{c: c, h: h, deadline: simtime.Time(n)*100*simtime.Millisecond + simtime.Minute, cfg: cfg}
}

func buildCrash3(o passOpts) *pass {
	n, crashes := 12_000, 9
	if o.tiny {
		n, crashes = 600, 3
	}
	rng := simtime.NewRand(o.seed)
	items := make([]item, n)
	for i := range items {
		items[i] = item{think: thinkAround(rng, 20*simtime.Millisecond), size: 48}
	}
	h := newHarness(o, 2*n)

	// measure.RecoveryReplay scaled up: replay from the initial image, and
	// a watchdog slow enough that pings stay out of the recovery windows.
	cfg := publishing.DefaultConfig(3)
	cfg.Seed = o.seed
	cfg.WatchInterval = 10 * simtime.Minute
	c := publishing.New(cfg)
	h.attach(c)
	worker, witnessed := pipeline(c, h, items, 0)

	p := &pass{c: c, h: h, crashes: crashes, cfg: cfg,
		deadline: simtime.Time(n)*500*simtime.Millisecond + 10*simtime.Minute}
	// Crash the worker each time the witness count crosses another
	// (crashes+1)-th of the run, so cycle k replays k/(crashes+1) of the
	// stream.
	every := n / (crashes + 1)
	rec := c.Recorder().Stats()
	p.step = func() {
		k := len(p.cycles)
		if k > 0 && p.cycles[k-1].open() {
			if rec.RecoveriesCompleted >= uint64(k) {
				p.cycles[k-1].close(c.Now(), rec.MessagesReplayed)
			}
			return
		}
		if k < crashes && *witnessed >= (k+1)*every {
			p.cycles = append(p.cycles, openCycle(c.Now(), rec.MessagesReplayed))
			c.CrashProcess(worker)
		}
	}
	return p
}

// --- echo2-wire: closed loop, 16 clients ------------------------------------

const echoOutstanding = 16

func buildEcho2Wire(o passOpts) *pass {
	n := 100_000
	if o.tiny {
		n = 2_000
	}
	rng := simtime.NewRand(o.seed)
	sizes := make([]uint8, n) // request bodies, 32..63 bytes
	for i := range sizes {
		sizes[i] = uint8(32 + rng.Intn(32))
	}
	h := newHarness(o, 2*n)

	cfg := publishing.DefaultConfig(2)
	cfg.Seed = o.seed
	// Zero CPU costs, as BenchmarkTransportWire: the 13 ms VAX network cost
	// would space sends far beyond the 500 µs flush window and hide the wire.
	cfg.Costs = demos.ZeroCosts()
	c := publishing.New(cfg)
	h.attach(c)

	reg := c.Registry()
	reg.RegisterMachine("echo", func([]byte) publishing.Machine {
		return &echo{h: h, seen: newBitset(h.total)}
	})
	reg.RegisterMachine("driver", func([]byte) publishing.Machine {
		return &echoDriver{h: h, seen: newBitset(h.total), sizes: sizes}
	})
	c.SetService("echo", must(c.Spawn(1, publishing.ProcSpec{Name: "echo", Recoverable: true})))
	c.SetService("driver", must(c.Spawn(0, publishing.ProcSpec{Name: "driver", Recoverable: true})))
	return &pass{c: c, h: h, deadline: simtime.Time(n)*10*simtime.Millisecond + simtime.Minute, cfg: cfg}
}

// echoDriver keeps echoOutstanding requests in flight: request i is message
// 2i, its reply message 2i+1.
type echoDriver struct {
	h     *harness
	seen  bitset
	sizes []uint8
	l     publishing.LinkID
	next  int
}

func (d *echoDriver) request(ctx *publishing.PCtx) {
	if d.next == len(d.sizes) {
		return
	}
	if err := ctx.Send(d.l, d.h.body(2*d.next, int(d.sizes[d.next])), publishing.NoLink); err != nil {
		panic(err)
	}
	d.next++
}

func (d *echoDriver) Init(ctx *publishing.PCtx) {
	d.l = must(ctx.ServiceLink("echo"))
	for i := 0; i < echoOutstanding; i++ {
		d.request(ctx)
	}
}

func (d *echoDriver) Handle(ctx *publishing.PCtx, m publishing.Msg) {
	d.h.handle(d.seen, m)
	d.request(ctx)
}

func (d *echoDriver) Snapshot() ([]byte, error) { return nil, nil }
func (d *echoDriver) Restore([]byte) error      { return nil }

type echo struct {
	h    *harness
	seen bitset
	l    publishing.LinkID
	ok   bool
}

func (e *echo) Init(*publishing.PCtx) {}

func (e *echo) Handle(ctx *publishing.PCtx, m publishing.Msg) {
	idx, _ := e.h.handle(e.seen, m)
	if !e.ok {
		e.l, e.ok = must(ctx.ServiceLink("driver")), true
	}
	if err := ctx.Send(e.l, e.h.body(idx+1, 16), publishing.NoLink); err != nil {
		panic(err)
	}
}

func (e *echo) Snapshot() ([]byte, error) { return nil, nil }
func (e *echo) Restore([]byte) error      { return nil }

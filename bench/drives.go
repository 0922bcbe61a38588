package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"publishing"
	"publishing/internal/frame"
	"publishing/internal/lan"
	"publishing/internal/simtime"
	"publishing/internal/stablestore"
	"publishing/internal/transport"
)

// The drives time each layer's exported entry points alone, on inputs
// shaped like the pass that just ran (station count, frame and body sizes,
// queue depth, coalescing burst, taken from its statistics). A layer that
// calls down into others has their share subtracted, using the unit costs
// measured by the lower drives, so the ledger rows are self times:
//
//	simtime     At+Step of no-op events at the pass's queue depth
//	frame       Clone; bundle encode+decode; AppendEncode+DecodeInto
//	lan         the pass's medium, N null stations, one null tap; − one Clone and one event per frame
//	transport   two endpoints over a Perfect medium, null Deliver; − that medium alone, − simtime, − bundles
//	demos       one node, publishing off, local sends; − simtime
//	stablestore Append/Flush; checkpoint append + InvalidateSeqs; ReadKey
//	recorder    Observe(message)+Observe(ack) at a live recorder; − stablestore
//
// A row is unit cost × the pass's own count per message. Nothing here is
// fitted to the end-to-end figure; what the rows miss is printed as
// ledger.unattributed_ns_per_msg.

// shape is what the drives take from the pass.
type shape struct {
	stations int // on the medium, recorders included
	wireLen  int // mean frame length on the wire
	body     int // mean application body
	pending  int // deepest event queue
	burst    int // guaranteed sends per data frame (coalescing), at least 1
	perCkpt  int // messages invalidated per checkpoint, at least 1
	shrink   int // divides every drive's iteration count (the smoke test's scale)
}

// sinkhole keeps the compiler from discarding a drive's results.
var sinkhole any

type nullStation struct{}

func (nullStation) Receive(*frame.Frame) {}

type nullTap struct{}

func (nullTap) Observe(*frame.Frame) bool { return true }

func runDrives(p *pass, res *passResult, tiny bool, t0 time.Time) {
	L, E := res.Layer, res.E2E
	recs := max(p.cfg.Recorders, 1)
	sh := shape{
		stations: p.cfg.Nodes + recs,
		wireLen:  int(L["lan.bytes_per_msg"] / E["wire_frames_per_msg"]),
		body:     int(L["recorder.bytes_stored_per_msg"]),
		pending:  int(L["simtime.pending_max"]),
		burst:    1,
		perCkpt:  32,
		shrink:   1,
	}
	if tiny {
		sh.shrink = 20
	}
	if c := L["transport.coalesced_frac"]; c > 0 {
		sh.burst = min(int(1/(1-min(c, 0.97))+0.5), 32)
	}
	if c := L["stablestore.checkpoints_per_msg"]; c > 0 {
		sh.perCkpt = max(int(1/c), 1)
	}
	// The pass's heap is still live (Cluster has no teardown), so a collection
	// during a drive would charge marking all of it to whichever layer
	// happens to allocate most. Each drive starts from a collected heap and
	// runs with the collector off: a unit cost is execution and allocation,
	// and collection stays in the ledger's remainder.
	timed := func(name string, f func()) {
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		start := time.Now()
		f()
		res.Spans = append(res.Spans, hostSpan{"drive." + name, start.Sub(t0).Seconds(), time.Since(t0).Seconds()})
	}

	// event is the scheduler's cost at the pass's queue depth, for its own
	// ledger row; shallow is its cost at the depth the other drives run at,
	// for subtracting its share from them.
	var event, shallow, clone, bundleRec, lanFrame, appendRec float64
	timed("simtime", func() { event, shallow = driveSimtime(sh.pending, sh.shrink), driveSimtime(driveDepth, sh.shrink) })
	timed("frame", func() {
		clone, bundleRec, L["frame.codec_ns_per_frame"] = driveFrame(sh)
	})
	timed("lan", func() { lanFrame = driveLAN(p, sh, shallow) })
	L["simtime.ns_per_event"], L["frame.clone_ns"], L["frame.bundle_ns_per_rec"], L["lan.ns_per_frame"] = event, clone, bundleRec, lanFrame

	var send, call float64
	timed("transport", func() {
		send = driveTransport(p, sh, shallow, bundleRec)
	})
	timed("demos", func() { call = driveDemos(p, sh, shallow) })
	timed("stablestore", func() {
		appendRec, L["stablestore.truncate_ns_per_ckpt"], L["stablestore.readkey_ns_per_rec"] = driveStore(p, sh)
	})
	L["stablestore.append_ns_per_rec"] = appendRec
	timed("recorder", func() {
		L["recorder.observe_ns_per_frame"], L["recorder.observe_allocs_per_frame"] = driveRecorder(p, sh, appendRec)
	})

	coalesced := L["transport.coalesced_frac"] * L["transport.sends_per_msg"]
	L["transport.ns_per_msg"] = send * L["transport.sends_per_msg"]
	L["demos.ns_per_msg"] = call * L["demos.kernel_calls_per_msg"]
	L["ledger.simtime_ns_per_msg"] = event * L["simtime.events_per_msg"]
	L["ledger.frame_ns_per_msg"] = clone*E["wire_frames_per_msg"] + bundleRec*coalesced
	L["ledger.lan_ns_per_msg"] = lanFrame * E["wire_frames_per_msg"]
	L["ledger.transport_ns_per_msg"] = L["transport.ns_per_msg"]
	L["ledger.demos_ns_per_msg"] = L["demos.ns_per_msg"]
	L["ledger.recorder_ns_per_msg"] = L["recorder.observe_ns_per_frame"] * L["recorder.observed_per_msg"]
	L["ledger.stablestore_ns_per_msg"] = appendRec*L["stablestore.appends_per_msg"] +
		L["stablestore.truncate_ns_per_ckpt"]*L["stablestore.checkpoints_per_msg"]
}

// ledgerLayers are the ledger's rows, bottom of the stack first.
var ledgerLayers = []string{"simtime", "frame", "lan", "transport", "demos", "recorder", "stablestore"}

func perOp(start time.Time, ops int) float64 {
	return float64(time.Since(start).Nanoseconds()) / float64(max(ops, 1))
}

// driveDepth is about how many events the lan, transport and demos drives
// keep queued.
const driveDepth = 16

func driveSimtime(depth, shrink int) (nsPerEvent float64) {
	n := 400_000 / shrink
	s := simtime.NewScheduler()
	rng := simtime.NewRand(1)
	var delays [4096]simtime.Time
	for i := range delays {
		delays[i] = simtime.Time(1 + rng.Intn(1_000_000))
	}
	noop := func() {}
	for i := 0; i < max(depth, 1); i++ {
		s.At(delays[i%len(delays)], noop)
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		s.Step()
		s.At(s.Now()+delays[i%len(delays)], noop)
	}
	return perOp(start, n)
}

func testFrame(body int) *frame.Frame {
	from, to := frame.ProcID{Node: 0, Local: 5}, frame.ProcID{Node: 1, Local: 6}
	return &frame.Frame{
		Type: frame.Guaranteed, Src: 0, Dst: 1,
		ID: frame.MsgID{Sender: from, Seq: 1}, From: from, To: to,
		Body: make([]byte, body),
	}
}

func driveFrame(sh shape) (cloneNS, bundleNSPerRec, codecNS float64) {
	n := 60_000 / sh.shrink
	f := testFrame(max(sh.wireLen-65, 0)) // 65 = header + checksum
	start := time.Now()
	for i := 0; i < n; i++ {
		sinkhole = f.Clone()
	}
	cloneNS = perOp(start, n)

	// One bundle of `burst` records (at least two, or it is not a bundle),
	// encoded as the transport does and decoded as a receiver does.
	k := max(sh.burst, 2)
	var rec frame.BundleRec
	rec.RecOf(testFrame(sh.body))
	var buf []byte
	var recs []frame.BundleRec
	start = time.Now()
	for i := 0; i < n/k; i++ {
		buf = frame.BeginBundle(buf[:0])
		for j := 0; j < k; j++ {
			buf = frame.AppendBundleRec(buf, &rec)
		}
		buf = frame.FinishBundle(buf, 0, k)
		var err error
		if recs, err = frame.DecodeBundle(buf, recs[:0]); err != nil {
			panic(err)
		}
	}
	bundleNSPerRec = perOp(start, n/k*k)

	// AppendEncode/DecodeInto are the byte codec cmd/starhub uses over TCP;
	// no simulated workload calls them, so this cost enters no ledger row.
	var g frame.Frame
	start = time.Now()
	for i := 0; i < n; i++ {
		buf = f.AppendEncode(buf[:0])
		if err := frame.DecodeInto(&g, buf); err != nil {
			panic(err)
		}
	}
	return cloneNS, bundleNSPerRec, perOp(start, n)
}

func newMedium(kind publishing.MediumKind, cfg lan.Config, sched *simtime.Scheduler) lan.Medium {
	// A nil trace log records nothing, like the passes' disabled one.
	rng := simtime.NewRand(1)
	switch kind {
	case publishing.MediumPerfect:
		return lan.NewPerfect(cfg, sched, rng, nil)
	case publishing.MediumAckEther:
		return lan.NewAckEther(cfg, sched, rng, nil)
	}
	panic(fmt.Sprintf("bench: no lan drive for medium %q", kind))
}

// wire times a medium alone: n unicast frames sent round its stations in
// batches of driveDepth, each batch run to completion. It returns the whole
// cost per frame, the medium's own work and what it hands down, and the
// events it fired per frame.
func wire(med lan.Medium, sched *simtime.Scheduler, stations int, f *frame.Frame, n int) (nsPerFrame, eventsPerFrame float64) {
	n = max(n/driveDepth, 1) * driveDepth
	fired := sched.Fired()
	start := time.Now()
	for i := 0; i < n; i += driveDepth {
		for j := i; j < i+driveDepth; j++ {
			f.Dst = frame.NodeID((j + 1) % stations)
			med.Send(frame.NodeID(j%stations), f)
		}
		for sched.Step() {
		}
	}
	return perOp(start, n), float64(sched.Fired()-fired) / float64(n)
}

// wireFloor is wire with the medium taken out: what every medium hands down
// per frame, one Clone and one in-order event, in the same loop. Measured
// here rather than taken from the simtime and frame drives because an
// in-order event is cheaper than their random one and the difference is as
// large as a Perfect medium's whole self time.
func wireFloor(f *frame.Frame, n int) (nsPerFrame float64) {
	n = max(n/driveDepth, 1) * driveDepth
	sched := simtime.NewScheduler()
	start := time.Now()
	for i := 0; i < n; i += driveDepth {
		for j := i; j < i+driveDepth; j++ {
			g := f.Clone()
			sched.After(simtime.Time(j-i+1), func() { sinkhole = g })
		}
		for sched.Step() {
		}
	}
	return perOp(start, n)
}

// rounds is how many times a drive that subtracts one timing from another
// alternates the two. It reports the median difference, so that a slow
// moment of the host hits both sides of a subtraction or neither.
const rounds = 3

func medianOf(n int, f func() float64) float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = f()
	}
	return median(v)
}

// driveLAN runs wire on the pass's medium with its station count, one tap
// and its fault plan armed, and returns the medium's self time per frame:
// less the floor, and less the scheduler's share of any further events
// (the Acknowledging Ethernet's deferrals and ack slots).
func driveLAN(p *pass, sh shape, eventNS float64) float64 {
	n := 60_000 / sh.shrink / rounds
	sched := simtime.NewScheduler()
	med := newMedium(p.cfg.Medium, p.cfg.LAN, sched)
	for i := 0; i < sh.stations; i++ {
		med.Attach(frame.NodeID(i), nullStation{})
	}
	med.AttachTap(frame.NodeID(sh.stations-1), nullTap{})
	if p.faults != nil {
		p.faults(med.Faults())
	}
	f := testFrame(max(sh.wireLen-65, 0))
	return max(medianOf(rounds, func() float64 {
		ns, events := wire(med, sched, sh.stations, f, n)
		return ns - wireFloor(f, n) - eventNS*(events-1)
	}), 0)
}

// driveTransport pushes guaranteed frames from one endpoint to another in
// the pass's coalescing burst over a Perfect medium and returns the
// endpoints' self time per send: less what the same medium costs alone per
// frame, the scheduler's share of the timer events, and the bundle codec.
func driveTransport(p *pass, sh shape, eventNS, bundleNS float64) float64 {
	n := max(60_000/sh.shrink/rounds/sh.burst, 1) * sh.burst
	sched := simtime.NewScheduler()
	med := lan.NewPerfect(p.cfg.LAN, sched, simtime.NewRand(1), nil)
	tcfg := p.cfg.Transport
	tcfg.Metrics = nil
	accept := func(*frame.Frame) bool { return true }
	a := transport.New(0, med, sched, nil, tcfg)
	b := transport.New(1, med, sched, nil, tcfg)
	a.Deliver, b.Deliver = accept, accept
	alone := lan.NewPerfect(p.cfg.LAN, sched, simtime.NewRand(1), nil)
	alone.Attach(0, nullStation{})
	alone.Attach(1, nullStation{})
	f := testFrame(sh.body)
	seq := uint64(0)
	self := medianOf(rounds, func() float64 {
		fired, wire0, coalesced := sched.Fired(), *med.Stats(), a.Stats().FramesCoalesced
		start := time.Now()
		for i := 0; i < n; {
			for j := 0; j < sh.burst; j, i = j+1, i+1 {
				seq++
				f.ID.Seq = seq
				a.SendGuaranteed(f)
			}
			for a.InFlight() > 0 && sched.Step() {
			}
		}
		total := perOp(start, n)
		frames := float64(med.Stats().FramesSent - wire0.FramesSent)
		timers := float64(sched.Fired()-fired) - frames
		// The same medium alone, on frames as long as the ones just sent.
		wireLen := float64(med.Stats().BytesOnWire-wire0.BytesOnWire) / frames
		wireNS, _ := wire(alone, sched, 2, testFrame(max(int(wireLen)-65, 0)), int(frames))
		lower := wireNS*frames + eventNS*timers + bundleNS*float64(a.Stats().FramesCoalesced-coalesced)
		return total - lower/float64(n)
	})
	if a.InFlight() > 0 || b.Stats().Delivered != seq {
		panic(fmt.Sprintf("bench: transport drive delivered %d of %d", b.Stats().Delivered, seq))
	}
	return max(self, 0)
}

// driveDemos runs a sender and a sink on one node with publishing off (the
// intranode path: kernel calls, dispatch and the goroutine hand-off, no
// transport) and returns ns per kernel call less the scheduler's share.
func driveDemos(p *pass, sh shape, eventNS float64) float64 {
	n := 40_000 / sh.shrink
	cfg := publishing.DefaultConfig(1)
	cfg.Publishing = false
	cfg.Costs = p.cfg.Costs
	c := publishing.New(cfg)
	c.Trace().Enable(false)
	got := 0
	c.Registry().RegisterMachine("sink", func([]byte) publishing.Machine { return countSink{&got} })
	c.Registry().RegisterProgram("gen", func([]byte) publishing.Program {
		return func(ctx *publishing.PCtx) {
			l := must(ctx.ServiceLink("sink"))
			for i := 0; i < n; i++ {
				if err := ctx.Send(l, make([]byte, sh.body), publishing.NoLink); err != nil {
					panic(err)
				}
			}
		}
	})
	c.SetService("sink", must(c.Spawn(0, publishing.ProcSpec{Name: "sink"})))
	must(c.Spawn(0, publishing.ProcSpec{Name: "gen"}))
	k := c.Kernel(0).Stats()
	start := time.Now()
	if !c.RunUntil(func() bool { return got == n }, simtime.Time(n)*simtime.Second) {
		panic(fmt.Sprintf("bench: demos drive delivered %d of %d", got, n))
	}
	calls := int(k.KernelCalls)
	return max(perOp(start, calls)-eventNS*float64(c.Scheduler().Fired())/float64(calls), 0)
}

type countSink struct{ n *int }

func (s countSink) Init(*publishing.PCtx)                   {}
func (s countSink) Handle(*publishing.PCtx, publishing.Msg) { *s.n++ }
func (s countSink) Snapshot() ([]byte, error)               { return nil, nil }
func (s countSink) Restore([]byte) error                    { return nil }

// driveStore times the three things a recorder asks of its store: appends
// with the once-a-second flush, a checkpoint's append + InvalidateSeqs (a
// simulated recorder never calls Compact), and ReadKey (only a recorder
// restart reads; no workload does).
func driveStore(p *pass, sh shape) (appendNS, truncateNS, readKeyNS float64) {
	const flushEvery = 1024
	n, ckpts := 200_000/sh.shrink, 200/sh.shrink
	scfg := p.cfg.Store
	scfg.Path = ""
	st := must(stablestore.NewStore(scfg))
	keys := make([]string, min(p.cfg.Nodes, 256))
	for i := range keys {
		keys[i] = fmt.Sprintf("msg:p%d.1", i)
	}
	data := make([]byte, sh.body+48) // the recorder's gob envelope
	seq := make([]uint64, len(keys))
	start := time.Now()
	for i := 0; i < n; i++ {
		k := i % len(keys)
		seq[k]++
		if _, err := st.Append(stablestore.Record{Kind: stablestore.KindMessage, Key: keys[k], Seq: seq[k], Data: data}); err != nil {
			panic(err)
		}
		if i%flushEvery == flushEvery-1 {
			if err := st.Flush(); err != nil {
				panic(err)
			}
		}
	}
	appendNS = perOp(start, n)

	start = time.Now()
	got := must(st.ReadKey(keys[0]))
	readKeyNS = perOp(start, len(got))

	drop := make([]uint64, sh.perCkpt)
	start = time.Now()
	for i := 0; i < ckpts; i++ {
		k := i % len(keys)
		for j := range drop {
			drop[j] = uint64(i/len(keys)*sh.perCkpt + j + 1)
		}
		if _, err := st.Append(stablestore.Record{Kind: stablestore.KindCheckpoint, Key: "ck" + keys[k][3:], Seq: uint64(i + 1), Data: data[:48]}); err != nil {
			panic(err)
		}
		st.InvalidateSeqs(keys[k], drop)
	}
	return appendNS, perOp(start, ckpts), readKeyNS
}

// driveRecorder feeds message and acknowledgement frames straight to a live
// recorder's tap, as a medium would: every pair is stored, ordered and
// persisted. Returns ns and allocations per observed frame, less the
// store's share of the ns.
func driveRecorder(p *pass, sh shape, appendNS float64) (nsPerFrame, allocsPerFrame float64) {
	n := 60_000 / sh.shrink
	cfg := publishing.DefaultConfig(2)
	cfg.Store, cfg.RecorderMode = p.cfg.Store, p.cfg.RecorderMode
	cfg.Store.Path = ""
	c := publishing.New(cfg)
	c.Trace().Enable(false)
	got := 0
	c.Registry().RegisterMachine("sink", func([]byte) publishing.Machine { return countSink{&got} })
	from := must(c.Spawn(0, publishing.ProcSpec{Name: "sink", Recoverable: true}))
	to := must(c.Spawn(1, publishing.ProcSpec{Name: "sink", Recoverable: true}))
	c.Run(simtime.Second) // the creation notices reach the recorder's database
	rec := c.Recorder()
	if known, _, _, _, _ := rec.Entry(to); !known {
		panic("bench: recorder drive: destination process not registered")
	}
	f := testFrame(sh.body)
	f.From, f.To, f.ID.Sender = from, to, from
	ack := &frame.Frame{Type: frame.Ack, Src: 1, Dst: 0, From: to, To: from}
	appends := rec.Store().Stats().Appends
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < n; i++ {
		f.ID.Seq = uint64(i + 1)
		rec.Observe(f)
		ack.ID = f.ID
		rec.Observe(ack)
	}
	ns := perOp(start, 2*n)
	runtime.ReadMemStats(&m1)
	if got := rec.Stats().ArrivalsRecorded; got != uint64(n) {
		panic(fmt.Sprintf("bench: recorder drive recorded %d of %d arrivals", got, n))
	}
	appends = rec.Store().Stats().Appends - appends
	return max(ns-appendNS*float64(appends)/float64(2*n), 0), float64(m1.Mallocs-m0.Mallocs) / float64(2*n)
}

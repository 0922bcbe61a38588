package publishing_test

// One benchmark per table and figure in the paper's evaluation, plus
// performance benchmarks of the reproduction itself. The figure/table
// benches re-run the corresponding experiment every iteration and publish
// the headline quantity as a custom metric, so `go test -bench .` prints a
// compact paper-vs-measured report:
//
//	Fig 5.2  -> derived service times
//	Fig 5.3  -> mean state size
//	Fig 5.4  -> operating-point checkpoint intervals
//	Fig 5.5  -> component utilizations (mean point, 5 nodes)
//	Fig 5.7  -> per-message publishing overhead (26 ms CPU)
//	Fig 5.8  -> per-process-control blow-up (8–9×)
//	§5.2.2   -> per-message publish cost by implementation level
//	Fig 3.1  -> the 140/340 ms recovery bound example
//	abstract -> the 115-user capacity
//	§6.6.1   -> selective publishing gain

import (
	"fmt"
	"testing"

	"publishing"
	"publishing/internal/checkpoint"
	"publishing/internal/frame"
	"publishing/internal/measure"
	"publishing/internal/model"
	"publishing/internal/recorder"
	"publishing/internal/simtime"
	"publishing/internal/stablestore"
	"publishing/internal/trace"
)

func BenchmarkFig52Params(b *testing.B) {
	h := model.Fig52()
	var sink simtime.Time
	for i := 0; i < b.N; i++ {
		sink += h.InterpacketDelay + h.DiskLatency + h.PacketCPU
	}
	b.ReportMetric(h.PacketCPU.Milliseconds(), "packetCPU_ms")
	b.ReportMetric(h.InterpacketDelay.Milliseconds(), "interpacket_ms")
	_ = sink
}

func BenchmarkFig53StateSizes(b *testing.B) {
	var mean int
	for i := 0; i < b.N; i++ {
		mean = model.MeanStateKB()
	}
	b.ReportMetric(float64(mean), "meanStateKB")
}

func BenchmarkFig54OperatingPoints(b *testing.B) {
	var hi, lo simtime.Time
	for i := 0; i < b.N; i++ {
		pm, _ := model.Point("max-msg")
		ps, _ := model.Point("max-state")
		hi, lo = pm.CheckpointInterval(), ps.CheckpointInterval()
	}
	b.ReportMetric(hi.Seconds(), "ckInterval_4KB_hi_s")  // paper: ~1 s
	b.ReportMetric(lo.Seconds(), "ckInterval_64KB_lo_s") // paper: ~2 min
}

func BenchmarkFig55Utilization(b *testing.B) {
	p, _ := model.Point("mean")
	var r model.Result
	for i := 0; i < b.N; i++ {
		cfg := model.DefaultSystem(p, 5, 1)
		cfg.Measure = 30 * simtime.Second
		r = model.Simulate(cfg)
	}
	b.ReportMetric(r.NetworkUtil*100, "net_util_pct")
	b.ReportMetric(r.CPUUtil*100, "cpu_util_pct")
	b.ReportMetric(r.DiskUtil*100, "disk_util_pct")
}

func BenchmarkCapacity115Users(b *testing.B) {
	var users int
	for i := 0; i < b.N; i++ {
		users = model.AnalyticCapacity()
	}
	b.ReportMetric(float64(users), "users") // paper: 115
}

func BenchmarkFig57PerMessage(b *testing.B) {
	var rows [2]measure.PerMessage
	for i := 0; i < b.N; i++ {
		rows = measure.Fig57Table()
	}
	b.ReportMetric(rows[1].CPUMS-rows[0].CPUMS, "publish_cpu_ms_per_msg") // paper: ~26
	b.ReportMetric(rows[1].RealMS-rows[1].CPUMS, "real_minus_cpu_ms")     // paper: ~3
}

func BenchmarkFig58PerProcess(b *testing.B) {
	var rows [2]measure.PerProcess
	for i := 0; i < b.N; i++ {
		rows = measure.Fig58Table()
	}
	b.ReportMetric(rows[0].TotalCPUMS, "without_ms") // paper: 608
	b.ReportMetric(rows[1].TotalCPUMS, "with_ms")    // paper: 5135
}

func BenchmarkPublishTimeLevels(b *testing.B) {
	var levels []measure.PublishCost
	for i := 0; i < b.N; i++ {
		levels = measure.PublishTimeLevels()
	}
	b.ReportMetric(levels[0].PerMS, "naive_ms")     // paper: 57
	b.ReportMetric(levels[1].PerMS, "optimized_ms") // paper: 12
	b.ReportMetric(levels[2].PerMS, "media_ms")     // paper: 0.8
}

func BenchmarkFig31RecoveryBound(b *testing.B) {
	lp := checkpoint.Fig31Params()
	var t1, t2 simtime.Time
	for i := 0; i < b.N; i++ {
		t1 = checkpoint.Bound(lp, checkpoint.ProcParams{CheckpointPages: 4})
		t2 = checkpoint.Bound(lp, checkpoint.ProcParams{CheckpointPages: 4, ExecSince: 100 * simtime.Millisecond})
	}
	b.ReportMetric(t1.Milliseconds(), "after_ckpt_ms") // paper: 140
	b.ReportMetric(t2.Milliseconds(), "at_200ms_ms")   // paper: 340
}

func BenchmarkCheckpointIntervals(b *testing.B) {
	var iv simtime.Time
	for i := 0; i < b.N; i++ {
		iv = checkpoint.YoungInterval(10*simtime.Second, 2*simtime.Minute)
	}
	b.ReportMetric(iv.Seconds(), "young_interval_s")
}

func BenchmarkSelectivePublishing(b *testing.B) {
	p, _ := model.Point("max-msg")
	var full, trimmed float64
	for i := 0; i < b.N; i++ {
		full = model.SaturationNodes(p, false, 1.0)
		trimmed = model.SaturationNodes(p, false, 0.85)
	}
	b.ReportMetric(full, "nodes_full")
	b.ReportMetric(trimmed, "nodes_selective") // paper: "one more VAX"
}

// --- performance benchmarks of the reproduction itself ----------------------

func BenchmarkFrameEncodeDecode(b *testing.B) {
	f := &frame.Frame{
		Type: frame.Guaranteed, Src: 1, Dst: 2,
		ID:   frame.MsgID{Sender: frame.ProcID{Node: 1, Local: 7}, Seq: 42},
		From: frame.ProcID{Node: 1, Local: 7}, To: frame.ProcID{Node: 2, Local: 3},
		Body: make([]byte, 128),
	}
	// The buffer-reuse path (AppendEncode/DecodeInto) is what the wire
	// loop uses; Encode/Decode are convenience wrappers over it.
	var buf []byte
	var g frame.Frame
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = f.AppendEncode(buf[:0])
		if err := frame.DecodeInto(&g, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStableStoreAppend(b *testing.B) {
	s := stablestore.New()
	data := make([]byte, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Append(stablestore.Record{
			Kind: stablestore.KindMessage, Key: "p1.1", Seq: uint64(i), Data: data,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecorderPublish measures the tap's message+ack path — the hot
// loop of the whole system.
func BenchmarkRecorderPublish(b *testing.B) {
	cfg := publishing.DefaultConfig(2)
	c := publishing.New(cfg)
	rec := c.Recorder()
	// Drive the recorder directly; no cluster traffic. Taps get a shared
	// read-only frame, so the two frames are reused across iterations
	// exactly as a medium would reuse its transmission state.
	f := &frame.Frame{
		Type: frame.Guaranteed, Src: 0, Dst: 1,
		ID:   frame.MsgID{Sender: frame.ProcID{Node: 0, Local: 5}},
		From: frame.ProcID{Node: 0, Local: 5}, To: frame.ProcID{Node: 1, Local: 6},
		Body: make([]byte, 128),
	}
	ack := &frame.Frame{Type: frame.Ack, Src: 1, Dst: 0,
		From: frame.ProcID{Node: 1, Local: 6}, To: f.From}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.ID.Seq = uint64(i + 1)
		rec.Observe(f)
		ack.ID = f.ID
		rec.Observe(ack)
	}
}

// BenchmarkClusterThroughput runs the standard pipeline and reports
// simulated messages per wall second of host time.
func BenchmarkClusterThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := publishing.DefaultConfig(3)
		c := publishing.New(cfg)
		c.Registry().RegisterMachine("sink", func(args []byte) publishing.Machine { return benchSink{} })
		c.Registry().RegisterProgram("gen", func(args []byte) publishing.Program {
			return func(ctx *publishing.PCtx) {
				l, _ := ctx.ServiceLink("sink")
				for j := 0; j < 100; j++ {
					_ = ctx.Send(l, []byte{1}, publishing.NoLink)
				}
			}
		})
		sink, _ := c.Spawn(1, publishing.ProcSpec{Name: "sink", Recoverable: true})
		c.SetService("sink", sink)
		c.Spawn(0, publishing.ProcSpec{Name: "gen", Recoverable: true})
		c.Run(2 * simtime.Minute)
	}
}

// BenchmarkEndToEndRecovery measures a full crash->detect->replay->recovered
// cycle of a producer/worker/witness pipeline.
func BenchmarkEndToEndRecovery(b *testing.B) {
	var window simtime.Time
	for i := 0; i < b.N; i++ {
		cfg := publishing.DefaultConfig(3)
		c := publishing.New(cfg)
		var got int
		c.Registry().RegisterMachine("witness", func(args []byte) publishing.Machine {
			return countSink{n: &got}
		})
		c.Registry().RegisterMachine("worker", func(args []byte) publishing.Machine {
			return &benchWorker{}
		})
		c.Registry().RegisterProgram("producer", func(args []byte) publishing.Program {
			return func(ctx *publishing.PCtx) {
				l, _ := ctx.ServiceLink("worker")
				for j := 0; j < 12; j++ {
					_ = ctx.Send(l, []byte{byte(j + 1)}, publishing.NoLink)
					ctx.Compute(200 * simtime.Millisecond)
				}
			}
		})
		wit, _ := c.Spawn(2, publishing.ProcSpec{Name: "witness", Recoverable: true})
		c.SetService("witness", wit)
		worker, _ := c.Spawn(1, publishing.ProcSpec{Name: "worker", Recoverable: true})
		c.SetService("worker", worker)
		c.Spawn(0, publishing.ProcSpec{Name: "producer", Recoverable: true})
		c.Scheduler().At(1200*simtime.Millisecond, func() { c.CrashProcess(worker) })
		c.Run(60 * simtime.Second)
		if got != 12 {
			b.Fatalf("recovery failed: %d", got)
		}
		var crashAt, doneAt simtime.Time
		for _, e := range c.Trace().OfKind(trace.KindCrash) {
			if e.Subject == worker.String() {
				crashAt = e.At
				break
			}
		}
		for _, e := range c.Trace().OfKind(trace.KindRecoveryDone) {
			if e.Subject == worker.String() {
				doneAt = e.At
			}
		}
		window = doneAt - crashAt
	}
	b.ReportMetric(window.Milliseconds(), "recovery_virtual_ms")
}

// BenchmarkRecoveryReplay{1,64,1024,16384} measure the recovery pipeline at
// increasing published-stream lengths. The headline metric is virtual
// recovery time per replayed message: a replay that ships one frame per
// message scales with message count, a batched one with bytes. The host
// metric (the whole scenario's wall time, feed included, over the messages
// replayed) is there for the longest stream: the recovering worker's input
// queue gets as deep as the stream is long, so anything in the kernel that
// costs the queue's depth per message shows as ns/msg rising with n.
func BenchmarkRecoveryReplay1(b *testing.B)     { benchRecoveryReplay(b, 1) }
func BenchmarkRecoveryReplay64(b *testing.B)    { benchRecoveryReplay(b, 64) }
func BenchmarkRecoveryReplay1024(b *testing.B)  { benchRecoveryReplay(b, 1024) }
func BenchmarkRecoveryReplay16384(b *testing.B) { benchRecoveryReplay(b, 16384) }

func benchRecoveryReplay(b *testing.B, n int) {
	var res measure.RecoveryResult
	for i := 0; i < b.N; i++ {
		res = measure.RecoveryReplay(n, nil)
	}
	b.ReportMetric(res.Window.Milliseconds(), "recovery_virtual_ms")
	b.ReportMetric(res.PerMsgMS(), "virtual_ms_per_replayed_msg")
	b.ReportMetric(float64(res.Replayed), "replayed")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(res.Replayed), "host_ns_per_replayed_msg")
}

// benchWorker forwards a counter to the witness per message.
type benchWorker struct {
	out    publishing.LinkID
	hasOut bool
	n      byte
}

func (w *benchWorker) Init(ctx *publishing.PCtx) {
	if l, err := ctx.ServiceLink("witness"); err == nil {
		w.out, w.hasOut = l, true
	}
}
func (w *benchWorker) Handle(ctx *publishing.PCtx, m publishing.Msg) {
	w.n++
	if w.hasOut {
		_ = ctx.Send(w.out, []byte{w.n}, publishing.NoLink)
	}
}
func (w *benchWorker) Snapshot() ([]byte, error) {
	return []byte{byte(w.out), b2u(w.hasOut), w.n}, nil
}
func (w *benchWorker) Restore(b []byte) error {
	w.out, w.hasOut, w.n = publishing.LinkID(b[0]), b[1] == 1, b[2]
	return nil
}

func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}

type countSink struct{ n *int }

func (s countSink) Init(ctx *publishing.PCtx)                     {}
func (s countSink) Handle(ctx *publishing.PCtx, m publishing.Msg) { *s.n++ }
func (s countSink) Snapshot() ([]byte, error)                     { return nil, nil }
func (s countSink) Restore(b []byte) error                        { return nil }

// BenchmarkMediaComparison reports how long the same 200-message workload
// takes, in virtual time, on each medium (the cost of their publish-
// before-use disciplines).
func BenchmarkMediaComparison(b *testing.B) {
	for _, medium := range []publishing.MediumKind{publishing.MediumPerfect, publishing.MediumEther, publishing.MediumAckEther, publishing.MediumRing, publishing.MediumStar} {
		b.Run(string(medium), func(b *testing.B) {
			var elapsed simtime.Time
			for i := 0; i < b.N; i++ {
				elapsed = runWireWorkload(b, medium, publishing.DefaultConfig(2).RecorderMode, 200)
			}
			b.ReportMetric(elapsed.Seconds(), "virtual_s")
		})
	}
}

// runWireWorkload sends n 128-byte messages node 0 -> node 1 and returns
// the virtual time at which the last one was delivered.
func runWireWorkload(b *testing.B, medium publishing.MediumKind, mode recorder.ProcessMode, n int) simtime.Time {
	b.Helper()
	cfg := publishing.DefaultConfig(2)
	cfg.Medium = medium
	cfg.RecorderMode = mode
	c := publishing.New(cfg)
	defer c.Close()
	var got int
	var doneAt simtime.Time
	c.Registry().RegisterMachine("sink", func(args []byte) publishing.Machine {
		return timedSink{got: &got, doneAt: &doneAt, want: n, now: c.Now}
	})
	c.Registry().RegisterProgram("gen", func(args []byte) publishing.Program {
		return func(ctx *publishing.PCtx) {
			l, _ := ctx.ServiceLink("sink")
			for j := 0; j < n; j++ {
				_ = ctx.Send(l, make([]byte, 128), publishing.NoLink)
			}
		}
	})
	sink, _ := c.Spawn(1, publishing.ProcSpec{Name: "sink", Recoverable: true})
	c.SetService("sink", sink)
	c.Spawn(0, publishing.ProcSpec{Name: "gen", Recoverable: true})
	c.Run(30 * simtime.Minute)
	if got != n {
		b.Fatalf("workload did not finish: %d/%d", got, n)
	}
	return doneAt
}

type timedSink struct {
	got    *int
	doneAt *simtime.Time
	want   int
	now    func() simtime.Time
}

func (s timedSink) Init(ctx *publishing.PCtx) {}
func (s timedSink) Handle(ctx *publishing.PCtx, m publishing.Msg) {
	*s.got++
	if *s.got == s.want {
		*s.doneAt = s.now()
	}
}
func (s timedSink) Snapshot() ([]byte, error) { return nil, nil }
func (s timedSink) Restore(b []byte) error    { return nil }

// BenchmarkRecorderModes shows §5.2.2's cost levels as end-to-end virtual
// time on a plain Ether, where receivers wait for the recorder's ack.
func BenchmarkRecorderModes(b *testing.B) {
	for _, mode := range []recorder.ProcessMode{recorder.ModeNaive, recorder.ModeOptimized, recorder.ModeMediaLayer} {
		b.Run(mode.String(), func(b *testing.B) {
			var elapsed simtime.Time
			for i := 0; i < b.N; i++ {
				elapsed = runWireWorkload(b, publishing.MediumEther, mode, 50)
			}
			b.ReportMetric(elapsed.Seconds(), "virtual_s")
		})
	}
}

type benchSink struct{}

func (benchSink) Init(ctx *publishing.PCtx)                     {}
func (benchSink) Handle(ctx *publishing.PCtx, m publishing.Msg) {}
func (benchSink) Snapshot() ([]byte, error)                     { return nil, nil }
func (benchSink) Restore(b []byte) error                        { return nil }

// BenchmarkCheckpointPolicyAblation compares recovery cost with and without
// the §3.2.3 bound-driven checkpoint policy: virtual milliseconds from
// crash to recovery-done for the same 30-message history.
func BenchmarkCheckpointPolicyAblation(b *testing.B) {
	for _, pol := range []publishing.CheckpointPolicyKind{publishing.CheckpointNone, publishing.CheckpointBound} {
		b.Run(string(pol), func(b *testing.B) {
			var window simtime.Time
			for i := 0; i < b.N; i++ {
				window = measureRecoveryWindow(b, pol)
			}
			b.ReportMetric(window.Milliseconds(), "recovery_virtual_ms")
		})
	}
}

func measureRecoveryWindow(b *testing.B, pol publishing.CheckpointPolicyKind) simtime.Time {
	b.Helper()
	cfg := publishing.DefaultConfig(3)
	cfg.CheckpointPolicy = pol
	cfg.CheckpointTick = 200 * simtime.Millisecond
	c := publishing.New(cfg)
	defer c.Close()
	var got int
	c.Registry().RegisterMachine("witness", func(args []byte) publishing.Machine {
		return countSink{n: &got}
	})
	c.Registry().RegisterMachine("worker", func(args []byte) publishing.Machine { return &benchWorker{} })
	c.Registry().RegisterProgram("producer", func(args []byte) publishing.Program {
		return func(ctx *publishing.PCtx) {
			l, _ := ctx.ServiceLink("worker")
			for j := 0; j < 30; j++ {
				_ = ctx.Send(l, []byte{byte(j + 1)}, publishing.NoLink)
				ctx.Compute(150 * simtime.Millisecond)
			}
		}
	})
	wit, _ := c.Spawn(2, publishing.ProcSpec{Name: "witness", Recoverable: true})
	c.SetService("witness", wit)
	worker, _ := c.Spawn(1, publishing.ProcSpec{
		Name: "worker", Recoverable: true, RecoveryTimeBound: 500 * simtime.Millisecond,
	})
	c.SetService("worker", worker)
	c.Spawn(0, publishing.ProcSpec{Name: "producer", Recoverable: true})
	c.Scheduler().At(4*simtime.Second, func() { c.CrashProcess(worker) })
	c.Run(3 * simtime.Minute)
	if got != 30 {
		b.Fatalf("pipeline incomplete: %d", got)
	}
	var crashAt, doneAt simtime.Time
	for _, e := range c.Trace().OfKind(trace.KindCrash) {
		if e.Subject == worker.String() {
			crashAt = e.At
			break
		}
	}
	for _, e := range c.Trace().OfKind(trace.KindRecoveryDone) {
		if e.Subject == worker.String() {
			doneAt = e.At
		}
	}
	return doneAt - crashAt
}

// BenchmarkTransportWindow is the §4.3.3 windowing-extension ablation: the
// thesis's single-outstanding transport vs a 4-frame window, measured as
// virtual completion time of a 50-message workload behind a slow (naive,
// 57 ms/message) recorder whose acknowledgements gate delivery.
func BenchmarkTransportWindow(b *testing.B) {
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("window=%d", w), func(b *testing.B) {
			var elapsed simtime.Time
			for i := 0; i < b.N; i++ {
				cfg := publishing.DefaultConfig(2)
				cfg.Medium = publishing.MediumEther
				cfg.RecorderMode = recorder.ModeNaive
				cfg.Transport.Window = w
				cfg.Transport.RecorderAckTimeout = 500 * simtime.Millisecond
				c := publishing.New(cfg)
				var got int
				var doneAt simtime.Time
				c.Registry().RegisterMachine("sink", func(args []byte) publishing.Machine {
					return timedSink{got: &got, doneAt: &doneAt, want: 50, now: c.Now}
				})
				c.Registry().RegisterProgram("gen", func(args []byte) publishing.Program {
					return func(ctx *publishing.PCtx) {
						l, _ := ctx.ServiceLink("sink")
						for j := 0; j < 50; j++ {
							_ = ctx.Send(l, make([]byte, 128), publishing.NoLink)
						}
					}
				})
				sink, _ := c.Spawn(1, publishing.ProcSpec{Name: "sink", Recoverable: true})
				c.SetService("sink", sink)
				c.Spawn(0, publishing.ProcSpec{Name: "gen", Recoverable: true})
				c.Run(30 * simtime.Minute)
				if got != 50 {
					b.Fatalf("workload incomplete: %d", got)
				}
				elapsed = doneAt
			}
			b.ReportMetric(elapsed.Seconds(), "virtual_s")
		})
	}
}

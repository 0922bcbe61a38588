package publishing_test

// One benchmark per table and figure in the paper's evaluation. Each re-runs
// the corresponding experiment every iteration and publishes the headline
// quantity as a custom metric, so `go test -bench .` prints a compact
// paper-vs-measured report:
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
//
// plus BenchmarkRecoveryReplay16384's host cost per replayed message. The
// virtual-time results of cluster scenarios are pinned by
// TestExperimentNumbers; wall-clock results of the whole system belong to
// `go run ./bench`.

import (
	"testing"

	"publishing/internal/checkpoint"
	"publishing/internal/measure"
	"publishing/internal/model"
	"publishing/internal/simtime"
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

// BenchmarkRecoveryReplay16384 prices measure.RecoveryReplay's longest
// stream in host time: the whole scenario's wall time (feed included) over
// the messages replayed. The recovering worker's input queue gets as deep as
// the stream is long, so anything in the kernel that costs the queue's depth
// per message shows here as ns/msg rising with n. The scenario's virtual
// window is a TestExperimentNumbers row.
func BenchmarkRecoveryReplay16384(b *testing.B) {
	var res measure.RecoveryResult
	for i := 0; i < b.N; i++ {
		res = measure.RecoveryReplay(16384)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(res.Replayed), "host_ns_per_replayed_msg")
}

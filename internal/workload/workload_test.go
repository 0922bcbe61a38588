package workload

import (
	"math"
	"testing"

	"publishing/internal/queuing"
	"publishing/internal/simtime"
)

// The generator is a pure function of its seed.
func TestWorkloadDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, Procs: 8, Rate: 5000, Hotspot: 0.7, HotProcs: 2,
		FanOut: 2, CheckpointEvery: 100 * simtime.Millisecond}
	a, b := New(cfg), New(cfg)
	for i := 0; i < 20000; i++ {
		oa, ob := a.Next(), b.Next()
		if oa.At != ob.At || oa.Kind != ob.Kind || oa.Rec.Key != ob.Rec.Key ||
			oa.Rec.Seq != ob.Rec.Seq || oa.Key != ob.Key || oa.Through != ob.Through {
			t.Fatalf("op %d diverged: %+v vs %+v", i, oa, ob)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
}

// The arrival process matches the open queuing model the paper solved with
// RESQ2 (§5.1): over the same horizon, the workload's arrival count agrees
// with an internal/queuing Poisson source of the same rate, and the
// empirical mean interarrival time is 1/rate. Both checks are statistical
// with seeded streams, so the tolerances are tight but never flaky.
func TestWorkloadArrivalsMatchQueuingModel(t *testing.T) {
	const rate = 2000.0
	horizon := 30 * simtime.Second
	g := New(Config{Seed: 3, Procs: 4, Rate: rate})
	for g.Now() < horizon {
		g.Next()
	}
	got := float64(g.Stats().Arrivals)
	want := rate * horizon.Seconds()
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("workload arrivals %v, queuing-model expectation %v (>5%% off)", got, want)
	}

	// The same experiment through internal/queuing: a Poisson source of the
	// same rate into a sink. The two implementations draw from different
	// seeded streams, so equality is statistical, not exact.
	net := queuing.New(3)
	sink := net.NewSink("sink")
	src := net.NewSource("arrivals", "msg", 128, rate, sink)
	src.Start()
	net.Run(horizon)
	ref := float64(src.Generated)
	if math.Abs(got-ref)/ref > 0.05 {
		t.Fatalf("workload arrivals %v vs queuing source %v (>5%% apart)", got, ref)
	}

	// Mean interarrival = 1/rate within 5%.
	mean := horizon.Seconds() / got
	if math.Abs(mean-1/rate)/(1/rate) > 0.05 {
		t.Fatalf("mean interarrival %.6fs, want %.6fs", mean, 1/rate)
	}
}

// Hotspot skew and fan-out hit their configured proportions.
func TestWorkloadSkewAndFanOut(t *testing.T) {
	g := New(Config{Seed: 11, Procs: 16, Rate: 4000, Hotspot: 0.8, HotProcs: 2, FanOut: 3})
	for g.Stats().Arrivals < 50000 {
		g.Next()
	}
	st := g.Stats()
	hot := float64(st.HotArrivals) / float64(st.Arrivals)
	// Uniform picks land on the hot set too, so the observed hot share is
	// Hotspot + (1-Hotspot)*HotProcs/Procs = 0.8 + 0.2*2/16 = 0.825.
	if math.Abs(hot-0.825) > 0.02 {
		t.Fatalf("hot-set share %.3f, want ~0.825", hot)
	}
	if st.Advisories != 3*st.Arrivals {
		t.Fatalf("advisories %d, want %d (fan-out 3)", st.Advisories, 3*st.Arrivals)
	}
}

// Flush ops arrive once per window and checkpoints once per interval.
func TestWorkloadCadence(t *testing.T) {
	g := New(Config{Seed: 5, Procs: 4, Rate: 1000, FanOut: 1,
		FlushWindow: 250 * simtime.Millisecond, CheckpointEvery: simtime.Second})
	for g.Stats().Arrivals < 10000 {
		g.Next()
	}
	stats := g.Stats()
	elapsed := g.Now().Seconds()
	flushPerSec := float64(stats.Flushes) / elapsed
	if math.Abs(flushPerSec-4) > 0.2 {
		t.Fatalf("%.2f flushes/sec, want ~4 (250ms window)", flushPerSec)
	}
	ckPerSec := float64(stats.Checkpoints) / elapsed
	if math.Abs(ckPerSec-1) > 0.2 {
		t.Fatalf("%.2f checkpoints/sec, want ~1", ckPerSec)
	}
}

package workload

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"publishing/internal/queuing"
	"publishing/internal/simtime"
	"publishing/internal/stablestore"
)

// refGen is the store-op generator Msgs replaced, kept as its reference. It
// emits each arrival as a message-record append followed by its fan-out's
// advisory appends, interleaved with a group-commit flush op every virtual
// second, and refMsgs maps that op stream back to events through the record
// keys, as the old Msgs did. Its checkpoint and compaction ops are left out:
// no caller enabled them, and like flushes they drew no random numbers.
type refGen struct {
	cfg              Config
	rng              *simtime.Rand
	now, nextArr     simtime.Time
	nextFl           simtime.Time
	seq, advSeq      []uint64
	msgKeys, advKeys []string
	pending          []stablestore.Record
}

func newRefGen(cfg Config) *refGen {
	if cfg.Procs <= 0 {
		cfg.Procs = 1
	}
	if cfg.Rate <= 0 {
		cfg.Rate = 1000
	}
	if cfg.HotProcs <= 0 {
		cfg.HotProcs = 1
	}
	if cfg.HotProcs > cfg.Procs {
		cfg.HotProcs = cfg.Procs
	}
	g := &refGen{
		cfg:    cfg,
		rng:    simtime.NewRand(cfg.Seed),
		nextFl: simtime.Second,
		seq:    make([]uint64, cfg.Procs),
		advSeq: make([]uint64, cfg.Procs),
	}
	for p := 0; p < cfg.Procs; p++ {
		g.msgKeys = append(g.msgKeys, fmt.Sprintf("msg:%d", p))
		g.advKeys = append(g.advKeys, fmt.Sprintf("adv:%d", p))
	}
	g.nextArr = g.interarrival()
	return g
}

func (g *refGen) interarrival() simtime.Time {
	d := g.rng.Exp(simtime.Time(float64(simtime.Second) / g.cfg.Rate))
	if d <= 0 {
		d = 1
	}
	return g.now + d
}

// next returns the next op: a record to append, or flush set for a
// group-commit boundary.
func (g *refGen) next() (at simtime.Time, rec stablestore.Record, flush bool) {
	if len(g.pending) > 0 {
		rec, g.pending = g.pending[0], g.pending[1:]
		return g.now, rec, false
	}
	if g.nextFl <= g.nextArr {
		g.now = g.nextFl
		g.nextFl += simtime.Second
		return g.now, rec, true
	}
	g.now = g.nextArr
	g.nextArr = g.interarrival()
	var p int
	if g.cfg.Hotspot > 0 && g.rng.Float64() < g.cfg.Hotspot {
		p = g.rng.Intn(g.cfg.HotProcs)
	} else {
		p = g.rng.Intn(g.cfg.Procs)
	}
	g.seq[p]++
	for i := 0; i < g.cfg.FanOut; i++ {
		sub := g.rng.Intn(g.cfg.Procs)
		g.advSeq[sub]++
		g.pending = append(g.pending, stablestore.Record{
			Kind: stablestore.KindMessage, Key: g.advKeys[sub], Seq: g.advSeq[sub],
		})
	}
	return g.now, stablestore.Record{Kind: stablestore.KindMessage, Key: g.msgKeys[p], Seq: g.seq[p]}, false
}

// refMsgs is the old Msgs: the first n arrivals of the op stream, recovered
// from the record keys.
func refMsgs(cfg Config, n int) []MsgEvent {
	g := newRefGen(cfg)
	pubOf := make(map[string]int, len(g.msgKeys))
	subOf := make(map[string]int, len(g.advKeys))
	for p, k := range g.msgKeys {
		pubOf[k] = p
	}
	for p, k := range g.advKeys {
		subOf[k] = p
	}
	out := make([]MsgEvent, 0, n)
	for len(out) < n || len(g.pending) > 0 {
		at, rec, flush := g.next()
		if flush {
			continue
		}
		if p, ok := pubOf[rec.Key]; ok {
			out = append(out, MsgEvent{At: at, Pub: p})
		} else if s, ok := subOf[rec.Key]; ok && len(out) > 0 {
			m := &out[len(out)-1]
			m.Subs = append(m.Subs, s)
		}
	}
	return out
}

// Msgs emits exactly the old generator's events for every config a caller
// uses: bench's fanout256 and faulty64 streams on both benchmark seeds, the
// root package's simulator scenario at 8, 256 and 1024 nodes, plus a
// no-fan-out stream and an all-defaults one.
func TestMsgsMatchesReferenceGenerator(t *testing.T) {
	simScale := func(nodes int, rate float64) Config {
		return Config{Seed: 7, Procs: nodes, Rate: rate, Hotspot: 0.2,
			HotProcs: max(nodes/16, 1), MsgBytes: 96, FanOut: 2}
	}
	cases := []struct {
		name string
		cfg  Config
		n    int
	}{
		{"fanout256/7", Config{Seed: 7, Procs: 256, Rate: 1024, Hotspot: 0.2, HotProcs: 16, MsgBytes: 96, FanOut: 2}, 150 * 256},
		{"fanout256/11", Config{Seed: 11, Procs: 256, Rate: 1024, Hotspot: 0.2, HotProcs: 16, MsgBytes: 96, FanOut: 2}, 150 * 256},
		{"faulty64/7", Config{Seed: 7, Procs: 64, Rate: 256, Hotspot: 0.2, HotProcs: 4, MsgBytes: 96, FanOut: 2}, 500 * 64},
		{"faulty64/11", Config{Seed: 11, Procs: 64, Rate: 256, Hotspot: 0.2, HotProcs: 4, MsgBytes: 96, FanOut: 2}, 500 * 64},
		{"sim/8", simScale(8, 80), 8 * 8},
		{"sim/256", simScale(256, 2560), 8 * 256},
		{"sim/1024", simScale(1024, 2560), 8 * 1024},
		{"no-fanout", Config{Seed: 3, Procs: 4, Rate: 2000}, 1000},
		{"defaults", Config{}, 100},
	}
	for _, tc := range cases {
		got, want := Msgs(tc.cfg, tc.n), refMsgs(tc.cfg, tc.n)
		if !reflect.DeepEqual(got, want) {
			for i := range min(len(got), len(want)) {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("%s: event %d is %+v, reference %+v", tc.name, i, got[i], want[i])
				}
			}
			t.Fatalf("%s: %d events, reference %d", tc.name, len(got), len(want))
		}
	}
}

// The generator is a pure function of its seed.
func TestWorkloadDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, Procs: 8, Rate: 5000, Hotspot: 0.7, HotProcs: 2, FanOut: 2}
	if a, b := Msgs(cfg, 20000), Msgs(cfg, 20000); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different streams")
	}
	other := cfg
	other.Seed = 8
	if reflect.DeepEqual(Msgs(cfg, 100), Msgs(other, 100)) {
		t.Fatal("seeds 7 and 8 gave the same stream")
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
	evs := Msgs(Config{Seed: 3, Procs: 4, Rate: rate}, int(1.2*rate*horizon.Seconds()))
	if evs[len(evs)-1].At <= horizon {
		t.Fatal("stream ends inside the horizon; generate more arrivals")
	}
	arrivals := 0
	for _, ev := range evs {
		if ev.At <= horizon {
			arrivals++
		}
	}
	got := float64(arrivals)
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
	const procs, hotProcs = 16, 2
	evs := Msgs(Config{Seed: 11, Procs: procs, Rate: 4000, Hotspot: 0.8, HotProcs: hotProcs, FanOut: 3}, 50000)
	hot := 0
	for i, ev := range evs {
		if ev.Pub < hotProcs {
			hot++
		}
		if len(ev.Subs) != 3 {
			t.Fatalf("event %d has %d subscribers, want 3 (fan-out 3)", i, len(ev.Subs))
		}
		for _, s := range ev.Subs {
			if s < 0 || s >= procs {
				t.Fatalf("event %d: subscriber %d outside [0,%d)", i, s, procs)
			}
		}
	}
	// Uniform picks land on the hot set too, so the observed hot share is
	// Hotspot + (1-Hotspot)*HotProcs/Procs = 0.8 + 0.2*2/16 = 0.825.
	if share := float64(hot) / float64(len(evs)); math.Abs(share-0.825) > 0.02 {
		t.Fatalf("hot-set share %.3f, want ~0.825", share)
	}
}

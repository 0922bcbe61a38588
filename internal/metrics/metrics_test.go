package metrics

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"publishing/internal/simtime"
)

func TestNilRegistryAndInstrumentsAreSafe(t *testing.T) {
	var r *Registry
	g := r.Gauge(0, "s", "g")
	h := r.Histogram(0, "s", "h")
	if g != nil || h != nil {
		t.Fatal("nil registry handed out live instruments")
	}
	g.Set(9)
	g.Add(-2)
	h.Observe(123)
	if g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments kept state")
	}
	r.AddStats(0, "s", &struct{ X uint64 }{1})
	if snap := r.Snapshot(); len(snap.Samples) != 0 {
		t.Fatal("nil registry produced samples")
	}
}

func TestInstrumentIdentityAndKindMismatch(t *testing.T) {
	r := NewRegistry()
	if r.Histogram(1, "lan", "frames") != r.Histogram(1, "lan", "frames") {
		t.Fatal("same key returned different histograms")
	}
	if r.Histogram(1, "lan", "frames") == r.Histogram(2, "lan", "frames") {
		t.Fatal("different nodes shared a histogram")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge(1, "lan", "frames")
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	// bucket 0: v <= 0; bucket i: 2^(i-1) <= v < 2^i.
	for _, v := range []int64{-3, 0, 1, 2, 3, 4, 1024} {
		h.Observe(v)
	}
	want := map[int]int64{0: 2, 1: 1, 2: 2, 3: 1, 11: 1}
	for i, n := range h.buckets {
		if n != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, n, want[i])
		}
	}
	if h.Count() != 7 || h.Sum() != -3+1+2+3+4+1024 {
		t.Fatalf("count=%d sum=%d", h.Count(), h.Sum())
	}
}

func TestSnapshotSortedAndDetached(t *testing.T) {
	r := NewRegistry()
	type lanStats struct{ B uint64 }
	lan0, lan2 := &lanStats{3}, &lanStats{1}
	r.AddStats(2, "lan", lan2)
	r.AddStats(0, "lan", lan0)
	r.Gauge(1, "kernel", "depth").Set(4)
	r.Histogram(0, "recorder", "lat").Observe(100)

	snap := r.Snapshot()
	var got []string
	for _, s := range snap.Samples {
		got = append(got, s.Subsystem+"/"+s.Name)
	}
	want := []string{"kernel/depth", "lan/b", "lan/b", "recorder/lat"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	if snap.Samples[1].Node != 0 || snap.Samples[2].Node != 2 {
		t.Fatal("node tiebreak wrong")
	}
	// Later updates must not leak into the detached snapshot.
	lan0.B += 10
	r.Histogram(0, "recorder", "lat").Observe(100)
	if snap.Samples[1].Value != 3 || snap.Samples[3].Value != 1 {
		t.Fatal("snapshot not detached from registry")
	}
}

func TestCollectorReplacement(t *testing.T) {
	r := NewRegistry()
	type transportStats struct{ Sent uint64 }
	r.AddStats(3, "transport", &transportStats{1})
	// A restarted component re-registers; the old struct must not report.
	r.AddStats(3, "transport", &transportStats{42})
	snap := r.Snapshot()
	if len(snap.Samples) != 1 || snap.Samples[0].Value != 42 {
		t.Fatalf("samples = %+v", snap.Samples)
	}
}

func TestWriteTextDeterministicAndWellFormed(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.AddStats(1, "lan", &struct{ FramesSent uint64 }{10})
		r.Gauge(0, "kernel", "queue_depth").Set(3)
		h := r.Histogram(2, "transport", "ack_rtt_ns")
		h.Observe(100)
		h.Observe(100)
		h.Observe(3000)
		return r
	}
	var a, b bytes.Buffer
	if err := build().Snapshot().WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().Snapshot().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("identical registries produced different text")
	}
	out := a.String()
	for _, want := range []string{
		`pub_lan_frames_sent{node="1"} 10`,
		`pub_kernel_queue_depth{node="0"} 3`,
		`pub_transport_ack_rtt_ns_bucket{node="2",le="127"} 2`,
		`pub_transport_ack_rtt_ns_bucket{node="2",le="4095"} 3`,
		`pub_transport_ack_rtt_ns_bucket{node="2",le="+Inf"} 3`,
		`pub_transport_ack_rtt_ns_sum{node="2"} 3200`,
		`pub_transport_ack_rtt_ns_count{node="2"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("text missing %q:\n%s", want, out)
		}
	}
}

func TestHotPathDoesNotAllocate(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge(0, "s", "g")
	h := r.Histogram(0, "s", "h")
	allocs := testing.AllocsPerRun(100, func() {
		g.Set(1)
		g.Add(1)
		h.Observe(12345)
	})
	if allocs != 0 {
		t.Fatalf("hot path allocated %.0f times per run", allocs)
	}
}

// statsFixture has one field of every shape the naming rule handles.
type statsFixture struct {
	embeddedCounts
	CkChunksSent uint64
	PublishCPU   simtime.Time
	BusyTime     simtime.Time
	HTTPRetries  int32
	Faults       uint64 `metric:"-"`
	Gen2Drops    uint8
}

type embeddedCounts struct {
	MessagesPending uint64
	Hidden          uint64 `metric:"-"`
}

func TestStatsNamingRule(t *testing.T) {
	st := &statsFixture{CkChunksSent: 1, PublishCPU: 2, BusyTime: 3, HTTPRetries: -4, Faults: 5, Gen2Drops: 6}
	st.MessagesPending, st.Hidden = 7, 8
	r := NewRegistry()
	r.AddStats(4, "recorder", st)
	got := map[string]int64{}
	for _, smp := range r.Snapshot().Samples {
		if smp.Node != 4 || smp.Subsystem != "recorder" || smp.Kind != "counter" {
			t.Fatalf("sample %+v", smp)
		}
		got[smp.Name] = smp.Value
	}
	want := map[string]int64{
		"messages_pending": 7, // an embedded struct's field is the struct's own
		"ck_chunks_sent":   1,
		"publish_cpu_ns":   2, // an acronym is one word; a simtime.Time gains _ns
		"busy_time_ns":     3,
		"http_retries":     -4,
		"gen2_drops":       6,
	}
	if len(got) != len(want) {
		t.Fatalf("samples %v, want %v", got, want)
	}
	for name, v := range want {
		if g, ok := got[name]; !ok || g != v {
			t.Fatalf("samples %v, want %v", got, want)
		}
	}
}

// Independent registries on parallel goroutines, as the golden table's and
// the census's clusters run, share one cache of each Stats type's counter
// names and each carve their own instruments from blocks: every registry's
// snapshot text is the same, and instruments past a block's end stay
// apart. Run under -race (make race).
func TestRegistriesShareFieldNamesAcrossGoroutines(t *testing.T) {
	const instruments = 3*entryBlockLen + 1
	text := func() string {
		r := NewRegistry()
		st := &statsFixture{CkChunksSent: 1, PublishCPU: 2}
		r.AddStats(0, "recorder", st)
		for i := range instruments {
			r.Gauge(i, "kernel", "queue_depth").Set(int64(i))
			r.Histogram(i, "transport", "ack_rtt_ns").Observe(int64(i))
		}
		for i := range instruments {
			if g := r.Gauge(i, "kernel", "queue_depth").Value(); g != int64(i) {
				t.Errorf("gauge %d reads %d", i, g)
			}
			if h := r.Histogram(i, "transport", "ack_rtt_ns"); h.Count() != 1 || h.Sum() != int64(i) {
				t.Errorf("histogram %d holds %d observations summing to %d", i, h.Count(), h.Sum())
			}
		}
		var b bytes.Buffer
		if err := r.Snapshot().WriteText(&b); err != nil {
			t.Error(err)
		}
		return b.String()
	}
	const workers = 4
	got := make([]string, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = text()
		}()
	}
	wg.Wait()
	for w := range got {
		if got[w] != got[0] {
			t.Fatalf("registry %d's snapshot differs from registry 0's", w)
		}
	}
}

func TestStatsFieldThatIsNotACounterPanics(t *testing.T) {
	for _, stats := range []any{
		&struct {
			Sent uint64
			Name string
		}{},
		&struct{ Ratio float64 }{},
		struct{ Sent uint64 }{}, // not a pointer: nothing would be read live
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddStats(%T) did not panic", stats)
				}
			}()
			NewRegistry().AddStats(0, "s", stats)
		}()
	}
}

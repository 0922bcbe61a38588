package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"publishing"
	"publishing/internal/simtime"
)

// A pass is one cluster in one process: a set-up phase (generate the
// inputs, build the cluster, run until the first tenth of the messages is
// delivered: heap grown, pools and dense tables filled, service links
// resolved), a timed phase (the other nine tenths, to "all delivered"),
// and an untimed drain after which outputs are checked. Cluster has no
// teardown, so a process never runs two.

// warmFraction of the messages are delivered before the clock starts.
const warmFraction = 10

// drain is how long the cluster runs on after the last delivery before the
// checks: long enough for a late duplicate or a give-up to show.
const drain = 2 * simtime.Second

// passResult is what one pass reports to the parent process.
type passResult struct {
	Workload    string
	Attempted   int      // messages due in the timed phase
	Failed      int      // of those, not delivered exactly once; plus failed checks
	Failures    []string `json:",omitempty"`
	Fingerprint string
	Msgs        int // first-time deliveries in the timed phase
	Cycles      int // crash→caught-up cycles completed

	// E2E holds every end-to-end metric and Layer every per-layer metric
	// this pass can produce: counts and virtual times from any pass, host
	// ns, stages and monitor numbers from the traced pass only.
	E2E   map[string]float64
	Layer map[string]float64
	// Spans are host-time spans of the benchmark's own calls, in seconds
	// since the pass started.
	Spans []hostSpan
}

type hostSpan struct {
	Name       string
	Start, End float64
}

// recoveryCycle is one crash→caught-up cycle as the benchmark saw it.
type recoveryCycle struct {
	crashAt, doneAt   simtime.Time
	wallStart         time.Time
	wall              time.Duration
	replayed0, replay uint64
}

func openCycle(now simtime.Time, replayed uint64) recoveryCycle {
	return recoveryCycle{crashAt: now, wallStart: time.Now(), replayed0: replayed}
}

func (r *recoveryCycle) open() bool { return r.doneAt == 0 }

func (r *recoveryCycle) close(now simtime.Time, replayed uint64) {
	r.doneAt, r.wall, r.replay = now, time.Since(r.wallStart), replayed-r.replayed0
}

// counters is the cluster's exported statistics at one instant: every
// counter of the metrics registry summed over nodes, plus the clock.
type counters struct {
	sum   map[string]int64 // "subsystem.name"
	now   simtime.Time
	fired uint64
}

func readCounters(c *publishing.Cluster) counters {
	k := counters{sum: map[string]int64{}, now: c.Now(), fired: c.Scheduler().Fired()}
	for _, s := range c.Metrics().Snapshot().Samples {
		if s.Kind == "counter" {
			k.sum[s.Subsystem+"."+s.Name] += s.Value
		}
	}
	return k
}

// fingerprint hashes everything a simulator-only change must leave alone:
// the final virtual time, the events fired, and every lan, transport,
// kernel, recorder and store statistic of every node.
func fingerprint(c *publishing.Cluster) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "now=%d fired=%d\n", c.Now(), c.Scheduler().Fired())
	if err := c.Metrics().Snapshot().WriteText(&b); err != nil {
		panic(err) // bytes.Buffer does not fail
	}
	return fmt.Sprintf("%x", sha256.Sum256(b.Bytes()))[:16]
}

type passOpts struct {
	seed   uint64
	tiny   bool
	traced bool
	outDir string // where the traced pass writes its span file; "" = nowhere
}

func runPass(def *workloadDef, o passOpts) passResult {
	res := passResult{Workload: def.name}
	t0 := time.Now()
	span := func(name string, from, to time.Time) {
		res.Spans = append(res.Spans, hostSpan{name, from.Sub(t0).Seconds(), to.Sub(t0).Seconds()})
	}
	fail := func(n int, format string, args ...any) {
		res.Failed += n
		res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
	}

	p := def.build(o)
	c, h := p.c, p.h
	built := time.Now()
	span("setup.generate", t0, h.generated)
	span("setup.build", h.generated, built)

	if !c.RunUntil(func() bool { return h.delivered >= h.total/warmFraction }, p.deadline) {
		fail(1, "set-up: %d of %d warm-up messages delivered by the deadline", h.delivered, h.total/warmFraction)
	}
	// Start every timed phase from a collected heap, so where the first GC
	// cycle falls does not depend on how set-up happened to allocate.
	runtime.GC()
	warmed := time.Now()
	span("setup.warm", built, warmed)
	res.Attempted = h.total - h.delivered

	before := readCounters(c)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	sched := c.Scheduler()
	pendingMax := 0
	h.timed = true
	start := time.Now()
	done := c.RunUntil(func() bool {
		if n := sched.Pending(); n > pendingMax {
			pendingMax = n
		}
		if p.step != nil {
			p.step()
		}
		return h.delivered >= h.total
	}, p.deadline)
	wall := time.Since(start)
	runtime.ReadMemStats(&ms1)
	h.timed = false
	after := readCounters(c)
	span("run.timed", start, start.Add(wall))

	c.Run(drain)
	end := readCounters(c)
	res.Fingerprint = fingerprint(c)

	// --- checks ---------------------------------------------------------------
	if !done {
		fail(h.total-h.delivered, "%d of %d messages not delivered by the virtual deadline", h.total-h.delivered, h.total)
	}
	if h.dups > 0 {
		fail(h.dups, "%d duplicate deliveries to one incarnation", h.dups)
	}
	if n := int(end.sum["transport.gave_up"]); n > 0 {
		fail(n, "%d transport give-ups", n)
	}
	// Virtual and host durations of the completed crash cycles.
	var rv, rw []int64
	var replayed float64
	for _, r := range p.cycles {
		if !r.open() {
			rv = append(rv, int64(r.doneAt-r.crashAt))
			rw = append(rw, r.wall.Nanoseconds())
			replayed += float64(r.replay)
		}
	}
	res.Cycles = len(rv)
	if res.Cycles != p.crashes {
		fail(1, "%d of %d crash cycles completed", res.Cycles, p.crashes)
	}
	if got := int(end.sum["recorder.recoveries_started"]); got != p.crashes {
		fail(1, "recorder started %d recoveries, the workload injected %d crashes", got, p.crashes)
	}
	if o.traced && !h.mon.Passed() {
		fail(len(h.mon.Violations()), "monitor verdict FAIL: %v", h.mon.Violations()[0])
	}

	// --- metrics ---------------------------------------------------------------
	msgs := float64(len(h.lat))
	res.Msgs = len(h.lat)
	if res.Msgs == 0 {
		fail(1, "no message delivered in the timed phase")
		msgs = 1
	}
	d := func(key string) float64 { return float64(after.sum[key] - before.sum[key]) }
	vns := float64(after.now - before.now)
	lat := sortedCopy(h.lat)
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }

	runtime.GC()
	var ms2 runtime.MemStats
	runtime.ReadMemStats(&ms2)

	res.E2E = map[string]float64{
		"setup_s":             warmed.Sub(t0).Seconds(),
		"msgs_per_s":          msgs / wall.Seconds(),
		"allocs_per_msg":      float64(ms1.Mallocs-ms0.Mallocs) / msgs,
		"alloc_bytes_per_msg": float64(ms1.TotalAlloc-ms0.TotalAlloc) / msgs,
		"retained_heap_mb":    float64(ms2.HeapAlloc) / 1e6,
		"deliver_p50_vms":     ms(percentile(lat, 0.50)),
		"deliver_p99_vms":     ms(percentile(lat, 0.99)),
		"vmsgs_per_vs":        msgs / (vns / 1e9),
		"wire_frames_per_msg": d("lan.frames_sent") / msgs,
	}

	frames := max(d("lan.frames_sent"), 1)
	gsent := max(d("transport.guaranteed_sent"), 1)
	ackFrames := d("transport.acks_delayed_flush")
	if p.cfg.Transport.AckDelay <= 0 {
		ackFrames = d("transport.acks_sent") // thesis regime: every ack is a frame
	}
	cycles := float64(max(res.Cycles, 1))
	res.Layer = map[string]float64{
		"simtime.events_per_msg":               float64(after.fired-before.fired) / msgs,
		"simtime.pending_max":                  float64(pendingMax),
		"lan.bytes_per_msg":                    d("lan.bytes_on_wire") / msgs,
		"lan.busy_us_per_msg":                  d("lan.busy_time_ns") / 1e3 / msgs,
		"lan.util":                             d("lan.busy_time_ns") / vns,
		"lan.collisions_per_frame":             d("lan.collisions") / frames,
		"lan.lost_frac":                        d("lan.frames_lost") / frames,
		"lan.tap_misses_per_msg":               d("lan.tap_misses") / msgs,
		"lan.recorder_blocks_per_msg":          d("lan.recorder_blocks") / msgs,
		"transport.coalesced_frac":             d("transport.frames_coalesced") / gsent,
		"transport.piggyback_frac":             d("transport.acks_piggybacked") / max(d("transport.acks_sent"), 1),
		"transport.ack_frames_per_msg":         ackFrames / msgs,
		"transport.retransmits_per_msg":        d("transport.retransmits") / msgs,
		"transport.dups_suppressed_per_msg":    d("transport.dups_suppressed") / msgs,
		"transport.gave_up":                    float64(end.sum["transport.gave_up"]),
		"transport.sends_per_msg":              gsent / msgs,
		"demos.kernel_calls_per_msg":           d("kernel.kernel_calls") / msgs,
		"demos.suppressed_per_recovery":        d("kernel.suppressed") / cycles,
		"demos.replay_dups_dropped":            d("kernel.replay_dups_dropped"),
		"recorder.observed_per_msg":            (d("recorder.messages_seen") + d("recorder.acks_seen")) / msgs,
		"recorder.bytes_stored_per_msg":        d("recorder.bytes_stored") / msgs,
		"recorder.acks_sent_per_msg":           d("recorder.recorder_acks_sent") / msgs,
		"recorder.publish_cpu_vms_per_msg":     d("recorder.publish_cpu_ns") / 1e6 / msgs,
		"recorder.missed_arrivals_per_msg":     d("recorder.missed_arrivals") / msgs,
		"recorder.follower_promotions":         d("recorder.follower_promotions"),
		"recorder.replayed_per_recovery":       d("recorder.messages_replayed") / cycles,
		"recorder.replay_batches_per_recovery": d("recorder.replay_batches") / cycles,
		"stablestore.appends_per_msg":          d("store.appends") / msgs,
		"stablestore.page_writes_per_msg":      d("store.page_writes") / msgs,
		"stablestore.checkpoints_per_msg":      d("recorder.checkpoints_stored") / msgs,
		"stablestore.bytes_live_mb":            float64(after.sum["store.bytes_live"]) / 1e6,
		"load.gen_lag_p99_vms":                 ms(percentile(sortedCopy(h.lag), 0.99)),
		"recovery.cycles":                      float64(res.Cycles),
	}
	var recovering int64
	for _, v := range rv {
		recovering += v
	}
	rv, rw = sortedCopy(rv), sortedCopy(rw)
	res.Layer["recovery.p50_vms"] = ms(percentile(rv, 0.5))
	res.Layer["recovery.max_vms"] = ms(percentile(rv, 1))
	res.Layer["recovery.vms_per_replayed_msg"] = ms(recovering) / max(replayed, 1)
	res.Layer["recovery.wall_ms"] = ms(percentile(rw, 0.5))

	if o.traced {
		tracedMetrics(p, &res, o, t0)
	}
	runtime.KeepAlive(p)
	return res
}

package publishing

import (
	"bytes"
	"encoding/json"
	"testing"

	"publishing/internal/simtime"
)

// chromeSpan is the subset of a trace-event entry the assertions need.
type chromeSpan struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Pid  int               `json:"pid"`
	ID   string            `json:"id"`
	Args map[string]string `json:"args"`
}

// The tentpole acceptance test: a crash-and-recover run exports a valid
// Chrome trace whose replay spans reference the span ids of the original
// published messages — the causal thread from pre-crash traffic to recovery.
func TestCrashRecoverChromeTimeline(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Medium = MediumEther
	c, run := buildScenario(t, cfg, 12)
	c.Trace().SetDetailed(true)
	c.Scheduler().At(1200*simtime.Millisecond, func() { c.CrashProcess(run.Worker) })
	c.Run(60 * simtime.Second)
	expectSteps(t, run)

	var buf bytes.Buffer
	if err := c.Trace().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []chromeSpan `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}

	published := map[string]bool{}
	opened := map[string]bool{}
	var replays []chromeSpan
	for _, e := range file.TraceEvents {
		if e.Pid < 0 {
			t.Fatalf("negative pid in %+v", e)
		}
		if e.Cat != "msg" {
			continue
		}
		switch {
		case e.Ph == "b":
			opened[e.ID] = true
		case e.Args["kind"] == "publish":
			published[e.ID] = true
		case e.Args["kind"] == "replay":
			replays = append(replays, e)
		}
	}
	if len(published) == 0 {
		t.Fatal("no publish spans in the timeline")
	}
	if len(replays) == 0 {
		t.Fatal("no replay spans in the timeline despite a recovery")
	}
	for _, e := range replays {
		if !published[e.ID] {
			t.Fatalf("replay span %q has no matching publish span", e.ID)
		}
		if !opened[e.ID] {
			t.Fatalf("replay span %q has no send open", e.ID)
		}
	}
}

// The standard crash-and-recover scenario: crashMsgs messages through the
// pipeline on plain Ethernet, the worker crashed at 1.2 s, crashRunFor of
// virtual time in all.
const (
	crashMsgs   = 12
	crashRunFor = 60 * simtime.Second
)

// crashScenario builds the crash-and-recover scenario and schedules its
// crash, without running it.
func crashScenario(t *testing.T, seed uint64) (*Cluster, *PipelineRun) {
	t.Helper()
	cfg := DefaultConfig(3)
	cfg.Medium = MediumEther
	cfg.Seed = seed
	c, run := buildScenario(t, cfg, crashMsgs)
	c.Scheduler().At(1200*simtime.Millisecond, func() { c.CrashProcess(run.Worker) })
	return c, run
}

// crashRun runs the crash-and-recover scenario to its end.
func crashRun(t *testing.T, seed uint64) *Cluster {
	t.Helper()
	c, run := crashScenario(t, seed)
	c.Run(crashRunFor)
	expectSteps(t, run)
	return c
}

// The metrics dump is a pure function of the seed: two identical runs
// produce byte-identical text, and a different seed shows the dump is not
// just constant.
func TestMetricsDeterministicAcrossSameSeedRuns(t *testing.T) {
	a := crashRun(t, 1).Fingerprint().Metrics
	if b := crashRun(t, 1).Fingerprint().Metrics; a != b {
		t.Fatal("same-seed runs produced different metrics text")
	}
	if a == crashRun(t, 99).Fingerprint().Metrics {
		t.Fatal("different seeds produced identical metrics text (suspicious)")
	}
	// The dump must actually cover every wired subsystem.
	for _, want := range []string{
		"pub_lan_frames_sent", "pub_transport_retransmits",
		"pub_recorder_arrivals_recorded", "pub_recorder_publish_latency_ns_count",
		"pub_store_appends", "pub_kernel_queue_depth", "pub_kernel_msgs_sent",
	} {
		if !bytes.Contains([]byte(a), []byte(want)) {
			t.Fatalf("metrics text missing %s", want)
		}
	}
}

// Trace().SetFlightRecorder bounds trace growth while the exported tail
// stays coherent.
func TestFlightRecorderBoundsTrace(t *testing.T) {
	c := New(DefaultConfig(3))
	t.Cleanup(c.Close)
	c.Trace().SetFlightRecorder(64)
	run := Pipeline{Msgs: 10, Pace: 200 * simtime.Millisecond}.Start(c)
	c.Run(30 * simtime.Second)
	expectSteps(t, run)
	ev := c.Trace().Events()
	if len(ev) > 64 {
		t.Fatalf("flight recorder kept %d events, want <= 64", len(ev))
	}
	if c.Trace().Dropped() == 0 {
		t.Fatal("a full run should overflow a 64-event ring")
	}
	for i := 1; i < len(ev); i++ {
		if ev[i].At < ev[i-1].At {
			t.Fatal("ring export out of order")
		}
	}
	var buf bytes.Buffer
	if err := c.Trace().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("wrapped ring exported invalid JSON")
	}
}

// Queue-depth gauges must return to zero once every process has drained —
// the invariant that makes the gauge trustworthy across crash and recovery.
func TestQueueDepthGaugeReturnsToZero(t *testing.T) {
	cfg := DefaultConfig(3)
	c, run := buildScenario(t, cfg, 10)
	c.Scheduler().At(1200*simtime.Millisecond, func() { c.CrashProcess(run.Worker) })
	c.Run(60 * simtime.Second)
	expectSteps(t, run)
	for _, s := range c.Metrics().Snapshot().Samples {
		if s.Name == "queue_depth" && s.Value != 0 {
			t.Fatalf("node %d queue_depth = %d after quiescence", s.Node, s.Value)
		}
	}
}

package monitor

import (
	"fmt"
	"strings"
	"testing"

	"publishing/internal/metrics"
	"publishing/internal/simtime"
	"publishing/internal/trace"
)

// newTest returns a monitor fed by a settable fake clock.
func newTest(cfg Config) (*Monitor, *simtime.Time) {
	now := new(simtime.Time)
	return New(cfg, func() simtime.Time { return *now }), now
}

func ev(at simtime.Time, kind trace.Kind, node int, msg, subject, detail string) trace.Event {
	return trace.Event{At: at, Kind: kind, Node: node, Msg: msg, Subject: subject, Detail: detail}
}

// resend is the transport's retransmission of msg, its attempt'th
// transmission: a send event whose Seq is the attempt number.
func resend(at simtime.Time, msg, subject string, attempt uint64) trace.Event {
	e := ev(at, trace.KindSend, 0, msg, subject, fmt.Sprintf("retransmit #%d", attempt))
	e.Seq = attempt
	return e
}

func wantViolations(t *testing.T, m *Monitor, invs ...string) {
	t.Helper()
	got := m.Violations()
	if len(got) != len(invs) {
		t.Fatalf("got %d violations, want %d:\n%s", len(got), len(invs), m.Report())
	}
	for i, inv := range invs {
		if got[i].Invariant != inv {
			t.Fatalf("violation %d is %s, want %s: %s", i, got[i].Invariant, inv, got[i])
		}
	}
}

func TestExactlyOnceDuplicateFlaggedAtDeliveryTime(t *testing.T) {
	m, _ := newTest(Config{})
	m.Observe(ev(100, trace.KindSend, 0, "p0.1#1", "p1.1", "guaranteed"))
	m.Observe(ev(200, trace.KindDeliver, 1, "p0.1#1", "p1.1", "queued"))
	wantViolations(t, m)
	m.Observe(ev(350, trace.KindDeliver, 1, "p0.1#1", "p1.1", "queued"))
	wantViolations(t, m, InvExactlyOnce)
	if v := m.Violations()[0]; v.At != 350 {
		t.Fatalf("violation stamped t=%v, want the duplicate delivery's t=350", v.At)
	}
	// A third copy must not be flagged again: one violation per message.
	m.Observe(ev(400, trace.KindDeliver, 1, "p0.1#1", "p1.1", "queued"))
	wantViolations(t, m, InvExactlyOnce)
}

func TestReplayLicensesExtraDelivery(t *testing.T) {
	m, _ := newTest(Config{})
	m.Observe(ev(100, trace.KindSend, 0, "p0.1#1", "p1.1", "guaranteed"))
	m.Observe(ev(200, trace.KindDeliver, 1, "p0.1#1", "p1.1", "queued"))
	m.Observe(ev(300, trace.KindPublish, 3, "p0.1#1", "p1.1", "published"))
	// Recovery replays the message: the license precedes the re-delivery, so
	// the second delivery is legitimate.
	m.Observe(ev(900, trace.KindReplay, 1, "p0.1#1", "p1.1", "replayed"))
	m.Observe(ev(950, trace.KindDeliver, 1, "p0.1#1", "p1.1", "queued"))
	wantViolations(t, m)
	// A second delivery of the same replayed copy is again a duplicate.
	m.Observe(ev(980, trace.KindDeliver, 1, "p0.1#1", "p1.1", "queued"))
	wantViolations(t, m, InvExactlyOnce)
}

// The exactly-once rule across incarnations: a copy the recorder never
// published dies with the incarnation that received it, so the sender's
// retransmission may reach the next one. A published or checkpointed copy
// does not die, and neither does a copy on a node that stayed up.
func TestExactlyOnceAcrossIncarnations(t *testing.T) {
	const id, proc = "p0.1#9", "p1.1"
	deliver := func(at simtime.Time) trace.Event { return ev(at, trace.KindDeliver, 1, id, proc, "queued") }
	crashProc := ev(2000, trace.KindCrash, 1, "", proc, "process crash: chaos")
	crashNode := ev(2000, trace.KindCrash, 1, "", "node", "processor crash")
	for _, tc := range []struct {
		name   string
		events []trace.Event
		want   []string
	}{
		{"same incarnation, twice", []trace.Event{
			deliver(100), deliver(200),
		}, []string{InvExactlyOnce}},
		{"published, crash, direct copy with no replay", []trace.Event{
			deliver(100), ev(150, trace.KindPublish, 3, id, proc, "published"), crashNode, deliver(3000),
		}, []string{InvExactlyOnce}},
		{"published before delivery, crash, direct copy", []trace.Event{
			ev(50, trace.KindPublish, 3, id, proc, "published"), deliver(100), crashProc, deliver(3000),
		}, []string{InvExactlyOnce}},
		{"checkpoint, crash, copy", []trace.Event{
			deliver(100), ev(150, trace.KindCheckpoint, 1, "", proc, "checkpoint 1 KB"), crashProc, deliver(3000),
		}, []string{InvExactlyOnce}},
		{"checkpoint, copy, recorder stores the checkpoint, crash, copy", []trace.Event{
			ev(50, trace.KindCheckpoint, 1, "", proc, "checkpoint 1 KB"), deliver(100),
			ev(150, trace.KindCheckpoint, 3, "", proc, "stored checkpoint"), crashNode, deliver(3000),
		}, nil},
		{"unpublished, process crash, copy", []trace.Event{
			deliver(100), crashProc, deliver(3000),
		}, nil},
		{"unpublished, node crash, copy", []trace.Event{
			deliver(100), crashNode, deliver(3000),
		}, nil},
		{"unpublished, another node crashes, copy", []trace.Event{
			deliver(100), ev(2000, trace.KindCrash, 2, "", "node", "processor crash"), deliver(3000),
		}, []string{InvExactlyOnce}},
		{"unpublished, crash, copy, copy", []trace.Event{
			deliver(100), crashProc, deliver(3000), deliver(3100),
		}, []string{InvExactlyOnce}},
		{"unpublished, crash, published late, replayed", []trace.Event{
			deliver(100), crashProc, ev(2200, trace.KindPublish, 3, id, proc, "published"),
			ev(2500, trace.KindReplay, 1, id, proc, "replayed"), deliver(2600),
		}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, _ := newTest(Config{})
			for _, e := range tc.events {
				m.Observe(e)
			}
			wantViolations(t, m, tc.want...)
		})
	}
}

// Explain's verdict is the monitor's rule, fed with every event, including
// the crash that carries no message id.
func TestExplainVerdictIsIncarnationAware(t *testing.T) {
	events := []trace.Event{
		ev(100, trace.KindSend, 0, "p0.1#9", "p1.1", "guaranteed"),
		ev(200, trace.KindDeliver, 1, "p0.1#9", "p1.1", "queued"),
		ev(2000, trace.KindCrash, 1, "", "node", "processor crash"),
		resend(3000, "p0.1#9", "p1.1", 37),
		ev(3100, trace.KindDeliver, 1, "p0.1#9", "p1.1", "queued"),
	}
	var b strings.Builder
	if got := Explain(&b, events, "p0.1#9"); len(got) != 4 {
		t.Fatalf("Explain returned %d events, want the message's 4", len(got))
	}
	if !strings.Contains(b.String(), "verdict: delivered 2 times within 2 licenses") {
		t.Fatalf("unpublished copy lost in a crash explained as:\n%s", b.String())
	}
	b.Reset()
	Explain(&b, append(events, ev(3200, trace.KindDeliver, 1, "p0.1#9", "p1.1", "queued")), "p0.1#9")
	if !strings.Contains(b.String(), "verdict: DUPLICATE") {
		t.Fatalf("third delivery explained as:\n%s", b.String())
	}
}

func TestRetransmitDoesNotCountAsFreshSend(t *testing.T) {
	m, _ := newTest(Config{})
	m.Observe(ev(100, trace.KindSend, 0, "p0.1#1", "p1.1", "guaranteed"))
	m.Observe(resend(150, "p0.1#1", "p1.1", 2))
	m.Observe(ev(160, trace.KindRecoveryStart, 3, "", "p0.1", "recovering"))
	m.Observe(resend(200, "p0.1#1", "p1.1", 3))
	m.Observe(ev(300, trace.KindDeliver, 1, "p0.1#1", "p1.1", "queued"))
	m.Observe(ev(350, trace.KindDeliver, 1, "p0.1#1", "p1.1", "queued"))
	// The duplicate is a transport failure (exactly-once), not re-executed
	// output: no fresh send followed the sender's recovery.
	wantViolations(t, m, InvExactlyOnce)
}

// A retransmission is known by its attempt number, not its wording: a send
// with Seq > 0 whatever its Detail says is no fresh send, and Explain
// counts it as a retransmit.
func TestRetransmissionIsItsAttemptNumber(t *testing.T) {
	events := []trace.Event{
		ev(100, trace.KindSend, 0, "p0.1#1", "p1.1", "guaranteed"),
		ev(160, trace.KindRecoveryStart, 3, "", "p0.1", "recovering"),
		resend(200, "p0.1#1", "p1.1", 2),
		ev(300, trace.KindDeliver, 1, "p0.1#1", "p1.1", "queued"),
		ev(350, trace.KindDeliver, 1, "p0.1#1", "p1.1", "queued"),
	}
	events[2].Detail = "second copy"
	m, _ := newTest(Config{})
	for _, e := range events {
		m.Observe(e)
	}
	wantViolations(t, m, InvExactlyOnce)
	var b strings.Builder
	Explain(&b, events, "p0.1#1")
	if !strings.Contains(b.String(), "sends=1 retransmits=1 ") {
		t.Fatalf("a renamed retransmission explained as:\n%s", b.String())
	}
}

func TestReexecOutputAttribution(t *testing.T) {
	m, _ := newTest(Config{})
	m.Observe(ev(100, trace.KindSend, 0, "p0.1#1", "p1.1", "guaranteed"))
	m.Observe(ev(200, trace.KindDeliver, 1, "p0.1#1", "p1.1", "queued"))
	// The sender's node dies and is re-executed; the suppression window
	// fails and the same message id goes out fresh again.
	m.Observe(ev(5000, trace.KindRecoveryStart, 3, "", "p0.1", "recovering"))
	m.Observe(ev(6000, trace.KindSend, 0, "p0.1#1", "p1.1", "guaranteed"))
	m.Observe(ev(6100, trace.KindDeliver, 1, "p0.1#1", "p1.1", "queued"))
	wantViolations(t, m, InvReexecOutput)
}

func TestAcceptanceOrderMonotonic(t *testing.T) {
	m, _ := newTest(Config{})
	pub := func(at simtime.Time, seq uint64) {
		e := ev(at, trace.KindPublish, 3, "p0.1#1", "p1.1", "published")
		e.Seq = seq
		m.Observe(e)
	}
	pub(100, 1)
	pub(200, 2)
	pub(300, 5) // gaps are fine; only regressions violate
	wantViolations(t, m)
	pub(400, 3)
	wantViolations(t, m, InvAcceptanceOrder)
	// A recorder crash resets that node's watermarks: the rebuilt database
	// restarts streams, so a low seq after the crash is legitimate.
	m.Observe(ev(500, trace.KindCrash, 3, "", "recorder", "recorder crash"))
	pub(600, 1)
	wantViolations(t, m, InvAcceptanceOrder)
}

func TestReplayBasisCoverage(t *testing.T) {
	m, _ := newTest(Config{})
	m.Observe(ev(100, trace.KindPublish, 3, "p0.1#1", "p1.1", "published"))
	m.Observe(ev(900, trace.KindReplay, 1, "p0.1#1", "p1.1", "replayed"))
	wantViolations(t, m)
	// Replaying a message never observed published for that stream is a
	// corrupt replay basis; flagged once per (stream, message).
	m.Observe(ev(950, trace.KindReplay, 1, "p0.1#2", "p1.1", "replayed"))
	m.Observe(ev(960, trace.KindReplay, 1, "p0.1#2", "p1.1", "replayed"))
	wantViolations(t, m, InvReplayBasis)
}

// A kernel drops a late direct copy of a message its process took already,
// and logs a drop: the copy is not delivered, so it licenses no extra
// delivery, and it is not a replay, so it needs no replay basis. Counted as
// a replay, it licensed one duplicate and, for a message its stream never
// published, reported a corrupt replay basis.
func TestDropIsNotAReplay(t *testing.T) {
	m, _ := newTest(Config{})
	const dropped = "late direct copy of accepted message dropped"
	m.Observe(ev(100, trace.KindSend, 0, "p0.1#1", "p1.1", "guaranteed"))
	m.Observe(ev(200, trace.KindDeliver, 1, "p0.1#1", "p1.1", "queued"))
	m.Observe(ev(300, trace.KindPublish, 3, "p0.1#1", "p1.1", "published"))
	m.Observe(ev(900, trace.KindReplay, 1, "p0.1#1", "p1.1", "replayed"))
	m.Observe(ev(950, trace.KindDeliver, 1, "p0.1#1", "p1.1", "queued"))
	m.Observe(ev(980, trace.KindDrop, 1, "p0.1#1", "p1.1", dropped))
	m.Observe(ev(985, trace.KindDrop, 1, "p0.1#2", "p1.1", dropped))
	wantViolations(t, m)
	if _, replays, _ := m.Licenses(); replays != 1 {
		t.Fatalf("%d replays counted, want 1: a drop counted as a replay", replays)
	}
	m.Observe(ev(990, trace.KindDeliver, 1, "p0.1#1", "p1.1", "queued"))
	wantViolations(t, m, InvExactlyOnce)
}

func TestGiveupInferenceEitherOrder(t *testing.T) {
	inferred := "published (#4 in stream, inferred from later ack)"
	// Give-up first, inference second.
	m, _ := newTest(Config{})
	m.Observe(ev(100, trace.KindSend, 0, "p0.1#1", "p1.1", "guaranteed"))
	m.Observe(ev(5000, trace.KindGiveUp, 0, "p0.1#1", "p1.1", "gave up after 600 attempts"))
	m.Observe(ev(6000, trace.KindPublish, 3, "p0.1#1", "p1.1", inferred))
	wantViolations(t, m, InvGiveupInference)

	// Inference first, give-up second.
	m2, _ := newTest(Config{})
	m2.Observe(ev(100, trace.KindSend, 0, "p0.1#1", "p1.1", "guaranteed"))
	m2.Observe(ev(4000, trace.KindPublish, 3, "p0.1#1", "p1.1", inferred))
	m2.Observe(ev(5000, trace.KindGiveUp, 0, "p0.1#1", "p1.1", "gave up after 600 attempts"))
	wantViolations(t, m2, InvGiveupInference)

	// A delivery anywhere clears the premise: the message was not lost.
	m3, _ := newTest(Config{})
	m3.Observe(ev(100, trace.KindSend, 0, "p0.1#1", "p1.1", "guaranteed"))
	m3.Observe(ev(200, trace.KindDeliver, 1, "p0.1#1", "p1.1", "queued"))
	m3.Observe(ev(4000, trace.KindPublish, 3, "p0.1#1", "p1.1", inferred))
	m3.Observe(ev(5000, trace.KindGiveUp, 0, "p0.1#1", "p1.1", "gave up after 600 attempts"))
	wantViolations(t, m3)
}

func TestStallDetector(t *testing.T) {
	queued := int64(0)
	m, now := newTest(Config{
		QueueProbe: func() (int64, string) { return queued, "n1=2" },
	})
	*now = simtime.Second
	m.Observe(ev(*now, trace.KindDeliver, 1, "p0.1#1", "p1.1", "queued"))
	m.Tick() // records the progress baseline

	// Progress pauses but queues are empty and nothing is in flight (the
	// delivery cleared p0.1#1? no — deliver does not clear inflight; only a
	// send puts it there): quiet idleness is not a stall.
	*now += 20 * simtime.Second
	m.Tick()
	if len(m.Stalls()) != 0 {
		t.Fatalf("idle system reported a stall: %v", m.Stalls())
	}

	// Now messages are stuck in a nonempty queue past the window.
	queued = 2
	*now += 20 * simtime.Second
	m.Tick()
	if len(m.Stalls()) != 1 {
		t.Fatalf("got %d stalls, want 1", len(m.Stalls()))
	}
	if s := m.Stalls()[0]; !strings.Contains(s.Detail, "queued=2") || !strings.Contains(s.Detail, "n1=2") {
		t.Fatalf("stall diagnostic missing queue depths: %s", s)
	}
	// The same episode must not re-fire every tick.
	*now += 20 * simtime.Second
	m.Tick()
	if len(m.Stalls()) != 1 {
		t.Fatalf("stall episode re-fired: %v", m.Stalls())
	}
	// Fresh progress arms a new episode.
	m.Observe(ev(*now, trace.KindDeliver, 1, "p0.1#2", "p1.1", "queued"))
	m.Tick()
	*now += 20 * simtime.Second
	m.Tick()
	if len(m.Stalls()) != 2 {
		t.Fatalf("got %d stalls after a second pause, want 2", len(m.Stalls()))
	}
	// Stalls are diagnostics: the run still passes.
	if !m.Passed() {
		t.Fatal("stalls must not fail the monitor verdict")
	}
}

func TestSLOHistogramsAndReport(t *testing.T) {
	reg := metrics.NewRegistry()
	m, _ := newTest(Config{Metrics: reg})
	pub := func(at simtime.Time, seq uint64) {
		e := ev(at, trace.KindPublish, 3, "p0.1#1", "p1.1", "published")
		e.Seq = seq
		m.Observe(e)
	}
	m.Observe(ev(1000, trace.KindSend, 0, "p0.1#1", "p1.1", "guaranteed"))
	m.Observe(ev(3000, trace.KindDeliver, 1, "p0.1#1", "p1.1", "queued"))
	pub(5000, 1)
	// Only the first delivery and first publish observe latency.
	m.Observe(ev(9000, trace.KindReplay, 1, "p0.1#1", "p1.1", "replayed"))
	m.Observe(ev(9100, trace.KindDeliver, 1, "p0.1#1", "p1.1", "queued"))
	pub(9200, 2)

	if n := reg.Histogram(-1, "monitor", "deliver_latency_ns").Count(); n != 1 {
		t.Fatalf("deliver_latency_ns count = %d, want 1", n)
	}
	if n := reg.Histogram(-1, "monitor", "stable_latency_ns").Count(); n != 1 {
		t.Fatalf("stable_latency_ns count = %d, want 1", n)
	}
	rep := m.Report()
	for _, want := range []string{"publish→deliver", "publish→stable", "monitor verdict: PASS", "violations=0"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestNilMonitorIsSafe(t *testing.T) {
	var m *Monitor
	if !m.Passed() || m.Violations() != nil || m.Stalls() != nil {
		t.Fatal("nil monitor accessors must be inert")
	}
	if got := m.Report(); !strings.Contains(got, "disabled") {
		t.Fatalf("nil monitor report = %q", got)
	}
}

package transport

import (
	"fmt"
	"testing"

	"publishing/internal/frame"
	"publishing/internal/lan"
	"publishing/internal/simtime"
	"publishing/internal/trace"
)

// With AckDelay set and no reverse traffic at all, the delayed-ack timer
// must fall back to one standalone cumulative Ack frame covering every
// pending record — the sender's flights may not hang on the missing
// piggyback opportunity.
func TestDelayedAckFlushNoReverseTraffic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AckDelay = 5 * simtime.Millisecond
	cfg.Window = 4
	e := newEnv(t, 2, cfg, "perfect")
	for seq := uint64(1); seq <= 3; seq++ {
		e.eps[0].SendGuaranteed(gmsg(0, 1, seq, "fwd"))
	}
	// All three arrive within ~5 ms (1.6 ms interframe gap each) and queue
	// their ack records behind the receiver's delay timer.
	e.sched.Run(5 * simtime.Millisecond)
	if len(e.got[1]) != 3 {
		t.Fatalf("delivered %d frames before flush, want 3", len(e.got[1]))
	}
	if e.eps[0].InFlight() == 0 {
		t.Fatal("sender already acked before the delayed-ack flush")
	}
	e.sched.RunAll(1_000_000)
	if e.eps[0].InFlight() != 0 {
		t.Fatal("sender still waiting after flush")
	}
	rs := e.eps[1].Stats()
	if rs.AcksDelayedFlush != 1 {
		t.Fatalf("AcksDelayedFlush = %d, want 1 standalone frame for the batch", rs.AcksDelayedFlush)
	}
	if rs.AcksPiggybacked != 0 {
		t.Fatalf("AcksPiggybacked = %d with no reverse traffic", rs.AcksPiggybacked)
	}
}

// A reverse-direction data frame consumes the pending ack records when it is
// first transmitted; if that carrier is lost, its retransmission no longer
// carries the records — but it does carry the cumulative mark, which must
// complete the superseded flights on arrival.
func TestCumulativeAckCoversSupersededRecords(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AckDelay = 50 * simtime.Millisecond
	cfg.Window = 4
	e := newEnv(t, 2, cfg, "perfect")
	e.eps[0].SendGuaranteed(gmsg(0, 1, 1, "a"))
	e.eps[0].SendGuaranteed(gmsg(0, 1, 2, "b"))
	e.sched.Run(5 * simtime.Millisecond)
	if len(e.got[1]) != 2 {
		t.Fatalf("forward frames delivered = %d, want 2", len(e.got[1]))
	}

	// Node 0 goes deaf; the reverse frame (carrying both piggybacked ack
	// records) and the delayed-ack fallback flush are both lost.
	e.med.Faults().SetDown(0, true)
	e.eps[1].SendGuaranteed(gmsg(1, 0, 1, "rev"))
	e.sched.Run(100 * simtime.Millisecond)
	if e.eps[0].InFlight() != 2 {
		t.Fatalf("sender flights = %d while down, want 2 still outstanding", e.eps[0].InFlight())
	}
	if e.eps[1].Stats().AcksPiggybacked != 2 {
		t.Fatalf("AcksPiggybacked = %d, want 2 (records consumed by the lost carrier)", e.eps[1].Stats().AcksPiggybacked)
	}

	// Back up: the reverse frame's retransmission has no records left to
	// carry, only the cumulative mark — which must complete both flights.
	e.med.Faults().SetDown(0, false)
	e.sched.RunAll(1_000_000)
	if e.eps[0].InFlight() != 0 {
		t.Fatal("cumulative mark on the retransmitted carrier did not complete the superseded flights")
	}
	if len(e.got[0]) != 1 {
		t.Fatalf("reverse delivery = %d, want 1", len(e.got[0]))
	}
}

// Thesis window discipline with coalescing: a full Bundle in flight holds
// the single transmission-unit slot, so a frame for a different destination
// stays queued until the whole batch acknowledges.
func TestWindowFullBehindCoalescedBatch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Window = 1
	cfg.FlushDelay = simtime.Millisecond
	e := newEnv(t, 3, cfg, "perfect")
	e.med.Faults().SetDown(1, true)
	for seq := uint64(1); seq <= 3; seq++ {
		e.eps[0].SendGuaranteed(gmsg(0, 1, seq, "x"))
	}
	e.eps[0].SendGuaranteed(gmsg(0, 2, 1, "other"))
	e.sched.Run(200 * simtime.Millisecond)
	if got := e.eps[0].Stats().FramesCoalesced; got != 3 {
		t.Fatalf("FramesCoalesced = %d, want 3", got)
	}
	if len(e.got[2]) != 0 {
		t.Fatal("frame for node 2 jumped the window while the batch was unacked")
	}
	if e.eps[0].InFlight() != 4 {
		t.Fatalf("InFlight = %d, want 3 batch members + 1 queued", e.eps[0].InFlight())
	}
	e.med.Faults().SetDown(1, false)
	e.sched.RunAll(1_000_000)
	if len(e.got[1]) != 3 {
		t.Fatalf("batch deliveries = %d, want 3", len(e.got[1]))
	}
	for i, f := range e.got[1] {
		if f.ID.Seq != uint64(i+1) {
			t.Fatalf("batch order broken at %d: %v", i, f.ID)
		}
	}
	if len(e.got[2]) != 1 {
		t.Fatalf("node-2 delivery = %d after the slot freed, want 1", len(e.got[2]))
	}
}

// The measured RTO learns a round trip longer than RetransmitInterval. The
// workload alternates small and large messages on a slow link where a full
// bundle takes longer than the initial 50 ms to acknowledge. Only the first
// unit's members, sent before any round trip has been measured, may time out
// spuriously; the persisted backoff (RFC 6298 §5.5 — Karn's rule means
// retransmitted flights never yield samples) and then the first sample stop
// it from repeating.
func TestMeasuredRTOStopsSpuriousRetransmits(t *testing.T) {
	large := string(make([]byte, 600)) // ~48 ms at 100 kb/s
	lcfg := lan.DefaultConfig()
	lcfg.BitsPerSecond = 100_000
	lcfg.InterframeGap = 5 * simtime.Millisecond
	sched := simtime.NewScheduler()
	log := trace.New(sched.Now)
	med := lan.NewPerfect(lcfg, sched, simtime.NewRand(7), log)
	tx := New(0, med, sched, log, DefaultConfig())
	rx := New(1, med, sched, log, DefaultConfig())
	var got int
	rx.Deliver = func(f *frame.Frame) bool { got++; return true }
	atFirstAck := ^uint64(0)
	tx.OnAck = func(frame.MsgID) {
		if atFirstAck == ^uint64(0) {
			atFirstAck = tx.Stats().Retransmits
		}
	}
	for seq := uint64(1); seq <= 20; seq++ {
		body := "small"
		if seq%2 == 0 {
			body = large
		}
		tx.SendGuaranteed(gmsg(0, 1, seq, body))
	}
	sched.RunAll(10_000_000)
	if g := tx.Stats().GaveUp; g != 0 {
		t.Fatalf("gave up on %d frames", g)
	}
	if got != 20 {
		t.Fatalf("delivered %d, want 20", got)
	}
	// The first unit's three members time out at 50 ms, and the first of
	// them once more at the backed-off 100 ms, before its 172 ms round trip
	// completes. (The deleted fixed-interval arm retransmitted 55 times.)
	retr := tx.Stats().Retransmits
	if retr > 4 {
		t.Fatalf("retransmits = %d, want at most 4", retr)
	}
	if retr != atFirstAck {
		t.Fatalf("retransmits grew from %d to %d after the first round-trip sample", atFirstAck, retr)
	}
}

// There is one regime: New fills every unset Window or duration from
// DefaultConfig, so no Config value selects a different send, ack or
// retransmit path. Each variant must put exactly the frames on a lossy wire
// that DefaultConfig does, at the same instants.
func TestUnsetConfigRunsTheDefaultRegime(t *testing.T) {
	wireTrace := func(cfg Config) []string {
		e := newEnv(t, 2, cfg, "perfect")
		e.med.Faults().LossProb = 0.2
		var out []string
		e.med.AttachTap(9, tapFunc(func(f *frame.Frame) bool {
			out = append(out, fmt.Sprintf("%v %v %d>%d %v x%d low%d cum%v/%d acks%v body%d",
				e.sched.Now(), f.Type, f.Src, f.Dst, f.ID, f.XSeq, f.XLow,
				f.AckCumSet, f.AckCum, f.AckRecs, len(f.Body)))
			return true
		}))
		for i := uint64(1); i <= 50; i++ {
			e.eps[0].SendGuaranteed(gmsg(0, 1, i, "ping"))
			if i%5 == 0 {
				e.eps[1].SendGuaranteed(gmsg(1, 0, i/5, "pong"))
				e.sched.Run(simtime.Millisecond)
			}
		}
		e.sched.RunAll(10_000_000)
		if len(e.got[1]) != 50 || len(e.got[0]) != 10 {
			t.Fatalf("delivered %d forward, %d reverse; want 50 and 10", len(e.got[1]), len(e.got[0]))
		}
		if e.eps[0].Stats().Retransmits == 0 {
			t.Fatal("the lossy exchange never retransmitted")
		}
		return out
	}
	want := wireTrace(DefaultConfig())
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"zero", Config{}},
		{"negative delays", Config{FlushDelay: -1, AckDelay: -1, RetransmitInterval: -1, Window: -1}},
	} {
		got := wireTrace(tc.cfg)
		if len(got) != len(want) {
			t.Fatalf("%s: %d frames on the wire, DefaultConfig puts %d", tc.name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: frame %d differs:\n got %s\nwant %s", tc.name, i, got[i], want[i])
			}
		}
	}
}

// A header-only Ack frame — one id in the header, no cumulative mark and no
// records, which this endpoint no longer sends — still completes the flight
// it names: recorders and peers may be fed exactly that.
func TestHeaderOnlyAckCompletesFlight(t *testing.T) {
	e := newEnv(t, 2, DefaultConfig(), "perfect")
	e.med.Faults().SetDown(1, true) // node 1 never acknowledges by itself
	var acked []frame.MsgID
	e.eps[0].OnAck = func(id frame.MsgID) { acked = append(acked, id) }
	m := gmsg(0, 1, 1, "x")
	e.eps[0].SendGuaranteed(m)
	e.eps[0].SendGuaranteed(gmsg(0, 1, 2, "y"))
	e.sched.Run(5 * simtime.Millisecond)
	e.eps[0].Receive(&frame.Frame{Type: frame.Ack, Src: 1, Dst: 0, ID: m.ID, From: m.To, To: m.From})
	if len(acked) != 1 || acked[0] != m.ID {
		t.Fatalf("OnAck saw %v, want exactly %v", acked, m.ID)
	}
	if ids := e.eps[0].InFlightIDs(); len(ids) != 1 || ids[0].Seq != 2 {
		t.Fatalf("in flight after the ack: %v, want only seq 2", ids)
	}
	if got := e.eps[0].Stats().AcksReceived; got != 1 {
		t.Fatalf("AcksReceived = %d, want 1", got)
	}
}

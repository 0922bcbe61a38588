package transport

import (
	"testing"

	"publishing/internal/frame"
	"publishing/internal/lan"
	"publishing/internal/simtime"
	"publishing/internal/trace"
)

type env struct {
	sched *simtime.Scheduler
	rng   *simtime.Rand
	log   *trace.Log
	med   lan.Medium
	eps   map[frame.NodeID]*Endpoint
	got   map[frame.NodeID][]*frame.Frame
}

func newEnv(t *testing.T, n int, cfg Config, medium string) *env {
	t.Helper()
	e := &env{
		sched: simtime.NewScheduler(),
		rng:   simtime.NewRand(7),
		eps:   make(map[frame.NodeID]*Endpoint),
		got:   make(map[frame.NodeID][]*frame.Frame),
	}
	e.log = trace.New(e.sched.Now)
	switch medium {
	case "perfect":
		e.med = lan.NewPerfect(lan.DefaultConfig(), e.sched, e.rng, e.log)
	case "ether":
		e.med = lan.NewEther(lan.DefaultConfig(), e.sched, e.rng, e.log)
	default:
		t.Fatalf("unknown medium %q", medium)
	}
	for i := 0; i < n; i++ {
		id := frame.NodeID(i)
		ep := New(id, e.med, e.sched, e.log, cfg)
		ep.Deliver = func(f *frame.Frame) bool { e.got[id] = append(e.got[id], keep(f)); return true }
		e.eps[id] = ep
	}
	return e
}

// keep copies the header of a frame a listener was handed: the frame is
// valid only during Receive, Observe or Deliver, and its sender reuses it.
func keep(f *frame.Frame) *frame.Frame {
	g := *f
	return &g
}

func gmsg(src, dst frame.NodeID, seq uint64, body string) *frame.Frame {
	p := frame.ProcID{Node: src, Local: 1}
	return &frame.Frame{
		Type: frame.Guaranteed,
		Dst:  dst,
		ID:   frame.MsgID{Sender: p, Seq: seq},
		From: p,
		To:   frame.ProcID{Node: dst, Local: 1},
		Body: []byte(body),
	}
}

func TestGuaranteedDelivery(t *testing.T) {
	e := newEnv(t, 2, DefaultConfig(), "perfect")
	e.eps[0].SendGuaranteed(gmsg(0, 1, 1, "hi"))
	e.sched.RunAll(10000)
	if len(e.got[1]) != 1 || string(e.got[1][0].Body) != "hi" {
		t.Fatalf("delivery failed: %v", e.got[1])
	}
	if e.eps[0].InFlight() != 0 {
		t.Fatal("frame still in flight after ack")
	}
	if e.eps[0].Stats().AcksReceived != 1 {
		t.Fatal("ack not received")
	}
}

func TestRetransmissionRecoversLoss(t *testing.T) {
	e := newEnv(t, 2, DefaultConfig(), "perfect")
	// Drop everything for a while, then heal: retransmission must deliver.
	e.med.Faults().LossProb = 1.0
	e.eps[0].SendGuaranteed(gmsg(0, 1, 1, "persistent"))
	e.sched.Run(120 * simtime.Millisecond)
	if len(e.got[1]) != 0 {
		t.Fatal("delivered during blackout")
	}
	e.med.Faults().LossProb = 0
	e.sched.RunAll(1_000_000)
	if len(e.got[1]) != 1 {
		t.Fatalf("retransmission did not deliver: %d", len(e.got[1]))
	}
	if e.eps[0].Stats().Retransmits == 0 {
		t.Fatal("no retransmits counted")
	}
}

// corruptFirst marks the first guaranteed frame sent on the medium corrupt,
// and nothing after it, the way maybeCorrupt marks a frame inside Send.
type corruptFirst struct {
	lan.Medium
	done bool
}

func (m *corruptFirst) Send(src frame.NodeID, f *frame.Frame) {
	if !m.done && f.Type == frame.Guaranteed {
		m.done = true
		f.Corrupt = true
	}
	m.Medium.Send(src, f)
}

// A message's first transmission is the flight's own frame, so the medium's
// corrupt mark lands on the frame the sender keeps. The retransmission must
// not inherit it: it is delivered, exactly once.
func TestCorruptFirstTransmissionIsResentClean(t *testing.T) {
	sched := simtime.NewScheduler()
	log := trace.New(sched.Now)
	med := &corruptFirst{Medium: lan.NewPerfect(lan.DefaultConfig(), sched, simtime.NewRand(7), log)}
	cfg := DefaultConfig()
	cfg.MaxRetries = 5
	tx := New(0, med, sched, log, cfg)
	rx := New(1, med, sched, log, cfg)
	var got []frame.MsgID
	rx.Deliver = func(f *frame.Frame) bool { got = append(got, f.ID); return true }
	m := gmsg(0, 1, 1, "x")
	tx.SendGuaranteed(m)
	sched.RunAll(1_000_000)
	if !med.done {
		t.Fatal("the medium corrupted nothing")
	}
	if len(got) != 1 || got[0] != m.ID {
		t.Fatalf("delivered %v; want %v exactly once", got, m.ID)
	}
	if s := tx.Stats(); s.Retransmits != 1 || s.GaveUp != 0 {
		t.Fatalf("%d retransmits, %d given up; want one retransmission delivered", s.Retransmits, s.GaveUp)
	}
}

// Acknowledgement records piggybacked on a message's first transmission
// ride the flight's own frame. Its retransmission must not repeat them: the
// recorder infers arrival order from the acks it overhears (§4.4.1), so each
// record reaches a tap once.
func TestRetransmissionDoesNotRepeatPiggybackedAcks(t *testing.T) {
	e := newEnv(t, 2, DefaultConfig(), "perfect")
	req := gmsg(1, 0, 1, "request")
	heard := 0 // how often the tap hears req's ack record
	e.med.AttachTap(9, tapFunc(func(f *frame.Frame) bool {
		for _, r := range f.AckRecs {
			if r.ID == req.ID {
				heard++
			}
		}
		return true
	}))
	// Node 0 answers from inside the delivery, so the reply's first
	// transmission carries the request's ack. Node 1 refuses the reply's
	// first offer, so the reply is retransmitted.
	e.eps[0].Deliver = func(f *frame.Frame) bool {
		e.eps[0].SendGuaranteed(gmsg(0, 1, 1, "reply"))
		return true
	}
	refused := false
	e.eps[1].Deliver = func(f *frame.Frame) bool {
		if !refused {
			refused = true
			return false
		}
		e.got[1] = append(e.got[1], keep(f))
		return true
	}
	e.eps[1].SendGuaranteed(req)
	e.sched.RunAll(1_000_000)
	if s := e.eps[0].Stats(); s.Retransmits == 0 || s.AcksPiggybacked != 1 {
		t.Fatalf("%d retransmits, %d acks piggybacked; want the reply retransmitted after carrying one", s.Retransmits, s.AcksPiggybacked)
	}
	if len(e.got[1]) != 1 {
		t.Fatalf("the reply was delivered %d times; want once", len(e.got[1]))
	}
	if heard != 1 {
		t.Fatalf("the tap heard the request's ack %d times; want once", heard)
	}
}

func TestDuplicateSuppression(t *testing.T) {
	e := newEnv(t, 2, DefaultConfig(), "perfect")
	// Lose only acks: receiver gets the frame repeatedly, must deliver once.
	f := gmsg(0, 1, 1, "once")
	e.eps[0].SendGuaranteed(f)
	// Manually resend the identical frame a few times (simulating lost acks
	// from the sender's point of view).
	raw := f.Clone()
	raw.Src = 0
	raw.Type = frame.Guaranteed
	for i := 0; i < 3; i++ {
		e.med.Send(0, raw)
	}
	e.sched.RunAll(100000)
	if len(e.got[1]) != 1 {
		t.Fatalf("delivered %d times, want exactly once", len(e.got[1]))
	}
	if e.eps[1].Stats().DupsSuppressed != 3 {
		t.Fatalf("dups suppressed = %d, want 3", e.eps[1].Stats().DupsSuppressed)
	}
	// Every duplicate must be re-acked (the lost-ack case).
	if e.eps[1].Stats().AcksSent != 4 {
		t.Fatalf("acks sent = %d, want 4", e.eps[1].Stats().AcksSent)
	}
}

// The thesis discipline per transmission unit (§4.3.3): however many units a
// burst needs, only one of them may be unacknowledged at a time. So a data
// frame carrying messages never sent before goes out only once every message
// sent before it has been acknowledged.
func TestOrderingSingleOutstanding(t *testing.T) {
	e := newEnv(t, 2, DefaultConfig(), "perfect")
	dataFrames := 0
	sent, acked := make(map[frame.MsgID]bool), make(map[frame.MsgID]bool)
	e.eps[0].OnAck = func(id frame.MsgID) { acked[id] = true }
	e.med.AttachTap(9, tapFunc(func(f *frame.Frame) bool {
		ids := guaranteedIDs(f)
		if f.Src != 0 || len(ids) == 0 || sent[ids[0]] {
			return true // not node 0's data, or a retransmission
		}
		dataFrames++
		for id := range sent {
			if !acked[id] {
				t.Fatalf("a new unit went out with %v still unacknowledged", id)
			}
		}
		for _, id := range ids {
			sent[id] = true
		}
		return true
	}))
	body := string(make([]byte, 300)) // four records fill a unit
	for i := uint64(1); i <= 20; i++ {
		e.eps[0].SendGuaranteed(gmsg(0, 1, i, body))
	}
	if got, queued := len(e.eps[0].InFlightIDs()), e.eps[0].InFlight(); got >= queued {
		t.Fatalf("admitted %d of %d: the burst did not outgrow one unit", got, queued)
	}
	e.sched.RunAll(100000)
	if dataFrames < 5 {
		t.Fatalf("burst crossed the wire in %d data frames, want several units", dataFrames)
	}
	if len(e.got[1]) != 20 {
		t.Fatalf("delivered %d, want 20", len(e.got[1]))
	}
	for i, f := range e.got[1] {
		if f.ID.Seq != uint64(i+1) {
			t.Fatalf("out of order: position %d has seq %d", i, f.ID.Seq)
		}
	}
}

// Under 30 % loss, the one-unit window still delivers every message once, in
// the order sent.
func TestOrderingUnderLossWithWindow(t *testing.T) {
	e := newEnv(t, 2, DefaultConfig(), "perfect")
	e.med.Faults().LossProb = 0.3
	for i := uint64(1); i <= 30; i++ {
		e.eps[0].SendGuaranteed(gmsg(0, 1, i, ""))
	}
	e.sched.RunAll(10_000_000)
	if len(e.got[1]) != 30 {
		t.Fatalf("delivered %d, want 30", len(e.got[1]))
	}
	for i, f := range e.got[1] {
		if f.ID.Seq != uint64(i+1) {
			t.Fatalf("out of order at %d: seq %d", i, f.ID.Seq)
		}
	}
}

// guaranteedIDs lists the guaranteed messages a data frame carries.
func guaranteedIDs(f *frame.Frame) []frame.MsgID {
	switch f.Type {
	case frame.Guaranteed:
		return []frame.MsgID{f.ID}
	case frame.Bundle:
		var ids []frame.MsgID
		for i := range f.Recs {
			if r := &f.Recs[i]; r.Type == frame.Guaranteed {
				ids = append(ids, r.ID)
			}
		}
		return ids
	}
	return nil
}

// A receiver that reboots mid-stream must resynchronize via the sender's
// low-water mark rather than stall waiting for sequences acknowledged
// before the crash.
func TestReceiverRebootResyncs(t *testing.T) {
	e := newEnv(t, 2, DefaultConfig(), "perfect")
	for i := uint64(1); i <= 5; i++ {
		e.eps[0].SendGuaranteed(gmsg(0, 1, i, ""))
	}
	e.sched.RunAll(1_000_000)
	if len(e.got[1]) != 5 {
		t.Fatalf("pre-crash delivered %d", len(e.got[1]))
	}
	e.eps[1].Reset() // receiver reboots, losing all stream state
	for i := uint64(6); i <= 10; i++ {
		e.eps[0].SendGuaranteed(gmsg(0, 1, i, ""))
	}
	e.sched.RunAll(1_000_000)
	if len(e.got[1]) != 10 {
		t.Fatalf("post-reboot delivered %d, want 10", len(e.got[1]))
	}
	for i, f := range e.got[1] {
		if f.ID.Seq != uint64(i+1) {
			t.Fatalf("post-reboot order broken at %d: seq %d", i, f.ID.Seq)
		}
	}
}

// A sender that reboots while its receiver still owes acks restarts its
// sequence space. The receiver's stream restarts for the new epoch, and the
// acks queued under the old one still leave, once each: the recorder infers
// arrival order from them (§4.4.1). Order holds, and nothing is delivered
// twice.
func TestSenderRebootResyncs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AckDelay = 20 * simtime.Millisecond // the new epoch arrives first
	e := newEnv(t, 2, cfg, "perfect")
	heard := make(map[frame.MsgID]int) // ack records node 1 sent, by id
	e.med.AttachTap(9, tapFunc(func(f *frame.Frame) bool {
		if f.Src == 1 {
			for _, r := range f.AckRecs {
				heard[r.ID]++
			}
		}
		return true
	}))
	var ids []frame.MsgID
	send := func(from, to uint64) {
		for i := from; i <= to; i++ {
			m := gmsg(0, 1, i, "")
			ids = append(ids, m.ID)
			e.eps[0].SendGuaranteed(m)
		}
	}
	send(1, 3)
	for len(e.got[1]) < 3 && e.sched.Step() {
	}
	if s := e.eps[1].Stats(); len(e.got[1]) != 3 || s.AcksDelayedFlush != 0 || s.AcksPiggybacked != 0 {
		t.Fatalf("delivered %d, acks flushed %d, piggybacked %d; want 3 delivered with their acks still owed",
			len(e.got[1]), s.AcksDelayedFlush, s.AcksPiggybacked)
	}
	e.eps[0].Reset() // sender reboots: its next frame is sequence 0 again
	send(4, 6)
	for len(e.got[1]) < 6 && e.sched.Step() {
	}
	if s := e.eps[1].Stats(); len(e.got[1]) != 6 || s.AcksDelayedFlush != 0 {
		t.Fatalf("delivered %d, acks flushed %d; want the new epoch delivered with the old acks still owed",
			len(e.got[1]), s.AcksDelayedFlush)
	}
	e.sched.RunAll(1_000_000)
	if len(e.got[1]) != 6 {
		t.Fatalf("delivered %d, want 6", len(e.got[1]))
	}
	for i, f := range e.got[1] {
		if f.ID != ids[i] {
			t.Fatalf("delivery %d is %v; want %v", i, f.ID, ids[i])
		}
	}
	for _, id := range ids {
		if heard[id] != 1 {
			t.Errorf("the tap heard the ack for %v %d times; want once", id, heard[id])
		}
	}
	if n := e.eps[0].InFlight(); n != 0 {
		t.Fatalf("%d frames still in flight after the new epoch was acked", n)
	}
}

func TestRecorderAckGating(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RecorderAckHold = 40 * simtime.Millisecond
	e := newEnv(t, 3, cfg, "ether")
	// Node 2 plays recorder: its tap echoes RecorderAck frames.
	rec := e.eps[2]
	e.med.AttachTap(2, tapFunc(func(f *frame.Frame) bool {
		if f.Type == frame.Guaranteed {
			rec.SendRaw(&frame.Frame{Type: frame.RecorderAck, Dst: frame.Broadcast, ID: f.ID})
		}
		return true
	}))
	e.eps[0].SendGuaranteed(gmsg(0, 1, 1, "published"))
	e.sched.RunAll(100000)
	if len(e.got[1]) != 1 {
		t.Fatalf("delivered %d, want 1", len(e.got[1]))
	}
	if e.eps[1].Stats().RecorderHeld != 1 {
		t.Fatal("frame was not held for recorder ack")
	}
}

func TestRecorderAckTimeoutDiscards(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RecorderAckHold = 40 * simtime.Millisecond
	cfg.MaxRetries = 3
	e := newEnv(t, 2, cfg, "ether")
	// No recorder at all: frames are held, expire, and are never delivered.
	e.eps[0].SendGuaranteed(gmsg(0, 1, 1, "unpublished"))
	e.sched.RunAll(10_000_000)
	if len(e.got[1]) != 0 {
		t.Fatal("unpublished frame delivered")
	}
	if e.eps[1].Stats().RecorderExpired == 0 {
		t.Fatal("held frame did not expire")
	}
	if e.eps[0].Stats().GaveUp != 1 {
		t.Fatal("sender did not give up")
	}
}

func TestUnguaranteedBestEffort(t *testing.T) {
	e := newEnv(t, 2, DefaultConfig(), "perfect")
	e.eps[0].SendUnguaranteed(&frame.Frame{Dst: 1, Body: []byte("stat")})
	e.sched.RunAll(10000)
	if len(e.got[1]) != 1 {
		t.Fatal("unguaranteed frame not delivered on clean wire")
	}
	// Lost unguaranteed frames are never retransmitted.
	e.med.Faults().LossProb = 1.0
	e.eps[0].SendUnguaranteed(&frame.Frame{Dst: 1, Body: []byte("gone")})
	e.sched.RunAll(10000)
	if len(e.got[1]) != 1 {
		t.Fatal("lost unguaranteed frame reappeared")
	}
	if e.eps[0].Stats().Retransmits != 0 {
		t.Fatal("unguaranteed frame was retransmitted")
	}
}

// Reset loses what a processor crash loses: queued and unacknowledged
// frames, the measured timeout and the stream sequence toward each
// destination, and the acknowledgements the node still owed.
func TestResetDropsState(t *testing.T) {
	cfg := DefaultConfig()
	e := newEnv(t, 3, cfg, "perfect")
	e.med.Faults().LossProb = 1.0
	e.eps[0].SendGuaranteed(gmsg(0, 1, 1, "doomed"))
	e.sched.Run(60 * simtime.Millisecond)
	if e.eps[0].InFlight() == 0 {
		t.Fatal("expected frame in flight")
	}
	e.eps[0].Reset()
	if e.eps[0].InFlight() != 0 {
		t.Fatal("Reset did not clear in-flight state")
	}
	e.med.Faults().LossProb = 0
	e.sched.RunAll(10_000_000)
	if len(e.got[1]) != 0 {
		t.Fatal("crashed node's frame delivered after reset")
	}

	// Node 0 measures its round trip to node 1, so its timeout falls below
	// RetransmitInterval; then node 1 refuses everything, and the tap times
	// each message's transmissions.
	type sent struct {
		at   simtime.Time
		xseq uint64
	}
	sends := make(map[frame.MsgID][]sent)
	acksFrom1 := 0
	e.med.AttachTap(9, tapFunc(func(f *frame.Frame) bool {
		switch {
		case f.Src == 0 && f.Type == frame.Guaranteed:
			sends[f.ID] = append(sends[f.ID], sent{e.sched.Now(), f.XSeq})
		case f.Src == 1 && (f.Type == frame.Ack || len(f.AckRecs) > 0):
			acksFrom1++
		}
		return true
	}))
	e.eps[0].SendGuaranteed(gmsg(0, 1, 2, "measured"))
	e.sched.RunAll(1_000_000)
	refuse := true
	e.eps[1].Deliver = func(f *frame.Frame) bool {
		if !refuse {
			e.got[1] = append(e.got[1], keep(f))
		}
		return !refuse
	}
	retransmitGap := func(m *frame.Frame) (first sent, gap simtime.Time) {
		t.Helper()
		e.eps[0].SendGuaranteed(m)
		for len(sends[m.ID]) < 2 && e.sched.Step() {
		}
		s := sends[m.ID]
		if len(s) < 2 {
			t.Fatalf("%s was not retransmitted", m.Body)
		}
		return s[0], s[1].at - s[0].at
	}
	if _, gap := retransmitGap(gmsg(0, 1, 3, "before")); gap >= cfg.RetransmitInterval {
		t.Fatalf("the timeout before Reset is %v; want the measured one, below %v", gap, cfg.RetransmitInterval)
	}
	e.eps[0].Reset()
	first, gap := retransmitGap(gmsg(0, 1, 4, "after"))
	if gap != cfg.RetransmitInterval {
		t.Errorf("the timeout after Reset is %v; want RetransmitInterval, %v", gap, cfg.RetransmitInterval)
	}
	if xseqEpoch(first.xseq) != 2 || xseqSeq(first.xseq) != 0 {
		t.Errorf("the first frame after Reset has epoch %d, sequence %d; want epoch 2, sequence 0",
			xseqEpoch(first.xseq), xseqSeq(first.xseq))
	}
	refuse = false
	e.sched.RunAll(10_000_000)
	if len(e.got[1]) != 2 || e.got[1][0].ID.Seq != 2 || e.got[1][1].ID.Seq != 4 {
		t.Fatalf("node 1 accepted %d messages; want seq 2 and the one sent after Reset", len(e.got[1]))
	}

	// Node 1 accepts a frame from node 2 and resets before its delayed ack
	// leaves: the armed timer flushes nothing.
	e.eps[2].SendGuaranteed(gmsg(2, 1, 1, "owed"))
	for len(e.got[1]) < 3 && e.sched.Step() {
	}
	before := acksFrom1
	e.eps[1].Reset()
	e.sched.Run(e.sched.Now() + 10*cfg.AckDelay)
	if acksFrom1 != before {
		t.Fatalf("node 1 sent %d acks after its Reset; want none", acksFrom1-before)
	}
}

func TestSendGuaranteedValidation(t *testing.T) {
	e := newEnv(t, 1, DefaultConfig(), "perfect")
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("nil id", func() { e.eps[0].SendGuaranteed(&frame.Frame{Dst: 0}) })
	mustPanic("broadcast", func() {
		e.eps[0].SendGuaranteed(gmsg(0, frame.Broadcast, 1, ""))
	})
}

// Under publish-before-use (a recorder-ack hold), a copy of a frame the stream
// has delivered already is re-acked at once, not held for a recorder ack
// that the first copy used up. The look at the stream leaves it as it was.
func TestHeldPathReacksDeliveredCopy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RecorderAckHold = 40 * simtime.Millisecond
	e := newEnv(t, 2, cfg, "perfect")
	rec := New(9, e.med, e.sched, e.log, cfg)
	f := gmsg(0, 1, 1, "once")
	e.eps[0].SendGuaranteed(f)
	e.sched.Run(simtime.Millisecond)
	rec.SendRaw(&frame.Frame{Type: frame.RecorderAck, Dst: frame.Broadcast, ID: f.ID})
	e.sched.Run(10 * simtime.Millisecond)
	if len(e.got[1]) != 1 {
		t.Fatalf("delivered %d times before the duplicate, want 1", len(e.got[1]))
	}
	st := *e.eps[1].rx.get(0)
	dup := keep(e.got[1][0])
	dup.Src, dup.Type = 0, frame.Guaranteed
	e.med.Send(0, dup)
	e.sched.Run(e.sched.Now() + 10*simtime.Millisecond)
	s := e.eps[1].Stats()
	if s.RecorderHeld != 1 || len(e.eps[1].held) != 0 {
		t.Fatalf("%d frames held, %d holding; want the duplicate not held", s.RecorderHeld, len(e.eps[1].held))
	}
	if s.DupsSuppressed != 1 || s.AcksSent != 2 {
		t.Fatalf("%d duplicates suppressed, %d acks sent; want the duplicate re-acked", s.DupsSuppressed, s.AcksSent)
	}
	if got := *e.eps[1].rx.get(0); got.epoch != st.epoch || got.expected != st.expected || !got.synced {
		t.Fatalf("the look moved the stream: %+v, was %+v", got, st)
	}
	e.sched.RunAll(100000)
	if len(e.got[1]) != 1 {
		t.Fatalf("delivered %d times, want exactly once", len(e.got[1]))
	}
}

// A sender that reboots starts a new epoch of its stream. A copy from the
// old epoch heard after that — still on the medium, or duplicated by it — is
// stale: it is dropped, and it does not restart the stream, which would
// deliver the old message again and lose the new epoch's place.
func TestStaleEpochCopyDoesNotRestartStream(t *testing.T) {
	e := newEnv(t, 2, DefaultConfig(), "perfect")
	old := gmsg(0, 1, 1, "before reboot")
	e.eps[0].SendGuaranteed(old)
	e.sched.RunAll(100000)
	stale := keep(e.got[1][0])
	stale.Src, stale.Type = 0, frame.Guaranteed
	e.eps[0].Reset()
	e.eps[0].SendGuaranteed(gmsg(0, 1, 2, "after reboot"))
	e.sched.RunAll(100000)
	if len(e.got[1]) != 2 {
		t.Fatalf("delivered %d, want both epochs' messages", len(e.got[1]))
	}
	st := *e.eps[1].rx.get(0)
	e.med.Send(0, stale)
	e.sched.RunAll(100000)
	if len(e.got[1]) != 2 {
		t.Fatalf("the stale copy was delivered: %d deliveries", len(e.got[1]))
	}
	if got := *e.eps[1].rx.get(0); got.epoch != st.epoch || got.expected != st.expected {
		t.Fatalf("the stale copy restarted the stream: epoch %d expected %d, was %d %d", got.epoch, got.expected, st.epoch, st.expected)
	}
	// The new epoch goes on where it was.
	e.eps[0].SendGuaranteed(gmsg(0, 1, 3, "next"))
	e.sched.RunAll(100000)
	if len(e.got[1]) != 3 || e.got[1][2].ID.Seq != 3 {
		t.Fatalf("the new epoch stalled: %d deliveries", len(e.got[1]))
	}
}

func TestAcksCarryProcessAttribution(t *testing.T) {
	e := newEnv(t, 2, DefaultConfig(), "perfect")
	var acks []*frame.Frame
	e.med.AttachTap(9, tapFunc(func(f *frame.Frame) bool {
		if f.Type == frame.Ack {
			acks = append(acks, keep(f))
		}
		return true
	}))
	m := gmsg(0, 1, 1, "x")
	e.eps[0].SendGuaranteed(m)
	e.sched.RunAll(10000)
	if len(acks) != 1 {
		t.Fatalf("tap heard %d acks, want 1", len(acks))
	}
	if acks[0].From != m.To || acks[0].To != m.From {
		t.Fatalf("ack attribution wrong: %+v", acks[0])
	}
	if acks[0].ID != m.ID {
		t.Fatal("ack id mismatch")
	}
}

type tapFunc func(f *frame.Frame) bool

func (t tapFunc) Observe(f *frame.Frame) bool { return t(f) }

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
		ep.Deliver = func(f *frame.Frame) bool { e.got[id] = append(e.got[id], f); return true }
		e.eps[id] = ep
	}
	return e
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

// unitsInFlight counts the distinct transmission units that own an
// unacknowledged flight.
func unitsInFlight(ep *Endpoint) int {
	units := make(map[*txUnit]bool)
	for _, fl := range ep.inflight {
		units[fl.unit] = true
	}
	return len(units)
}

// Window == 1 is the thesis discipline per transmission unit: however many
// units a burst needs, only one of them may be unacknowledged at a time.
func TestOrderingSingleOutstanding(t *testing.T) {
	e := newEnv(t, 2, DefaultConfig(), "perfect")
	dataFrames := 0
	check := func() {
		if got := unitsInFlight(e.eps[0]); got > 1 {
			t.Fatalf("%d units unacknowledged at once, want at most 1", got)
		}
	}
	e.med.AttachTap(9, tapFunc(func(f *frame.Frame) bool {
		if f.Type == frame.Guaranteed || f.Type == frame.Bundle {
			dataFrames++
		}
		check()
		return true
	}))
	body := string(make([]byte, 300)) // four records fill a unit
	for i := uint64(1); i <= 20; i++ {
		e.eps[0].SendGuaranteed(gmsg(0, 1, i, body))
		check()
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

func TestOrderingUnderLossWithWindow(t *testing.T) {
	for _, window := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Window = window
		e := newEnv(t, 2, cfg, "perfect")
		e.med.Faults().LossProb = 0.3
		for i := uint64(1); i <= 30; i++ {
			e.eps[0].SendGuaranteed(gmsg(0, 1, i, ""))
		}
		e.sched.RunAll(10_000_000)
		if len(e.got[1]) != 30 {
			t.Fatalf("window=%d delivered %d, want 30", window, len(e.got[1]))
		}
		for i, f := range e.got[1] {
			if f.ID.Seq != uint64(i+1) {
				t.Fatalf("window=%d out of order at %d: seq %d", window, i, f.ID.Seq)
			}
		}
	}
}

// guaranteedIDs lists the guaranteed messages a data frame carries.
func guaranteedIDs(t *testing.T, f *frame.Frame) []frame.MsgID {
	t.Helper()
	switch f.Type {
	case frame.Guaranteed:
		return []frame.MsgID{f.ID}
	case frame.Bundle:
		recs, err := frame.DecodeBundle(f.Body, nil)
		if err != nil {
			t.Fatalf("bundle on the wire does not decode: %v", err)
		}
		var ids []frame.MsgID
		for i := range recs {
			if g := recs[i].Expand(f); g.Type == frame.Guaranteed {
				ids = append(ids, g.ID)
			}
		}
		return ids
	}
	return nil
}

// Windowing pays off when acknowledgements are slow — here a recorder that
// takes 5 ms to store each message before acking (publish-before-use on a
// plain Ether). The bodies are sized so the burst needs several transmission
// units: Window=1 serializes their stalls; window=4 pipelines them.
func TestWindowedModeIsFasterWithSlowRecorder(t *testing.T) {
	elapsed := func(window int) simtime.Time {
		cfg := DefaultConfig()
		cfg.Window = window
		cfg.NeedRecorderAck = true
		cfg.RecorderAckTimeout = 200 * simtime.Millisecond
		e := newEnv(t, 2, cfg, "ether")
		rec := New(9, e.med, e.sched, e.log, cfg)
		e.med.AttachTap(9, tapFunc(func(f *frame.Frame) bool {
			for _, id := range guaranteedIDs(t, f) {
				e.sched.After(5*simtime.Millisecond, func() {
					rec.SendRaw(&frame.Frame{Type: frame.RecorderAck, Dst: frame.Broadcast, ID: id})
				})
			}
			return true
		}))
		var done simtime.Time
		last := uint64(20)
		e.eps[1].Deliver = func(f *frame.Frame) bool {
			if f.ID.Seq == last {
				done = e.sched.Now()
			}
			return true
		}
		body := string(make([]byte, 300)) // four records fill a unit
		for i := uint64(1); i <= last; i++ {
			e.eps[0].SendGuaranteed(gmsg(0, 1, i, body))
		}
		e.sched.RunAll(1_000_000)
		if done == 0 {
			t.Fatalf("window=%d: last message never delivered", window)
		}
		return done
	}
	w4, w1 := elapsed(4), elapsed(1)
	if w4 >= w1 {
		t.Fatalf("window=4 (%v) not faster than window=1 (%v)", w4, w1)
	}
}

// A receiver that reboots mid-stream must resynchronize via the sender's
// low-water mark rather than stall waiting for sequences acknowledged
// before the crash.
func TestReceiverRebootResyncs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Window = 4
	e := newEnv(t, 2, cfg, "perfect")
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

func TestRecorderAckGating(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NeedRecorderAck = true
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
	cfg.NeedRecorderAck = true
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

func TestResetDropsState(t *testing.T) {
	e := newEnv(t, 2, DefaultConfig(), "perfect")
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

func TestDupCacheEviction(t *testing.T) {
	c := newDupCache(4)
	mk := func(i uint64) frame.MsgID {
		return frame.MsgID{Sender: frame.ProcID{Node: 1, Local: 1}, Seq: i}
	}
	for i := uint64(1); i <= 4; i++ {
		c.add(mk(i))
	}
	for i := uint64(1); i <= 4; i++ {
		if !c.contains(mk(i)) {
			t.Fatalf("id %d evicted too early", i)
		}
	}
	c.add(mk(5))
	if c.contains(mk(1)) {
		t.Fatal("oldest id not evicted")
	}
	if !c.contains(mk(5)) {
		t.Fatal("new id missing")
	}
	// Re-adding an existing id must not evict anything.
	c.add(mk(5))
	if !c.contains(mk(2)) {
		t.Fatal("re-add evicted a live id")
	}
}

func TestAcksCarryProcessAttribution(t *testing.T) {
	e := newEnv(t, 2, DefaultConfig(), "perfect")
	var acks []*frame.Frame
	e.med.AttachTap(9, tapFunc(func(f *frame.Frame) bool {
		if f.Type == frame.Ack {
			acks = append(acks, f)
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

func TestStatsString(t *testing.T) {
	var s Stats
	if s.String() == "" {
		t.Fatal("empty stats string")
	}
}

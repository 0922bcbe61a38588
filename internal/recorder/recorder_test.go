package recorder

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"testing/quick"

	"publishing/internal/demos"
	"publishing/internal/frame"
	"publishing/internal/lan"
	"publishing/internal/recorder/tap"
	"publishing/internal/simtime"
	"publishing/internal/stablestore"
	"publishing/internal/trace"
	"publishing/internal/transport"
)

func mid(local uint32, seq uint64) frame.MsgID {
	return frame.MsgID{Sender: frame.ProcID{Node: 9, Local: local}, Seq: seq}
}

// ckImage is a checkpoint image as a kernel ships one: an opaque machine
// part (tag), an empty link table (next id 0, no links), then the marks
// demos.CheckpointMarks reads.
func ckImage(tag string, marks ...frame.MsgID) []byte {
	var m frame.Marks
	for _, id := range marks {
		m.Note(id)
	}
	return frame.AppendBody(append(binary.AppendUvarint(nil, uint64(len(tag))), tag...), &m, func(c *frame.Coder, m *frame.Marks) {
		var next, links uint8
		frame.Uint(c, &next)
		frame.Uint(c, &links)
		frame.Slice(c, m)
		for i := range *m {
			c.MsgID(&(*m)[i])
		}
	})
}

func sm(local uint32, seq uint64) frame.BundleRec {
	return frame.BundleRec{ID: mid(local, seq), Body: []byte{byte(seq)}}
}

func TestReconstructNoAdvisories(t *testing.T) {
	arr := []frame.BundleRec{sm(1, 1), sm(1, 2), sm(1, 3)}
	out := logOf(arr).reconstructAll(nil)
	if len(out) != 3 || out[0].ID != arr[0].ID || out[2].ID != arr[2].ID {
		t.Fatalf("identity reconstruction broken: %v", out)
	}
	// The input must not be aliased.
	out[0] = sm(1, 99)
	if arr[0].ID == out[0].ID {
		t.Fatal("reconstruct aliases its input")
	}
}

func TestReconstructSingleOutOfOrderRead(t *testing.T) {
	// Arrivals: A B C. The process read B while A was at the head.
	arr := []frame.BundleRec{sm(1, 1), sm(1, 2), sm(1, 3)}
	adv := []tap.Advisory{{ReadID: mid(1, 2), HeadID: mid(1, 1)}}
	out := logOf(arr).reconstructAll(adv)
	want := []uint64{2, 1, 3}
	for i, w := range want {
		if out[i].ID.Seq != w {
			t.Fatalf("order = %v, want %v", ids(out), want)
		}
	}
}

func TestReconstructInterleavedReads(t *testing.T) {
	// Arrivals: A B C D E. Reads: A (in order), then D (head B), then B, C, E.
	arr := []frame.BundleRec{sm(1, 1), sm(1, 2), sm(1, 3), sm(1, 4), sm(1, 5)}
	adv := []tap.Advisory{{ReadID: mid(1, 4), HeadID: mid(1, 2)}}
	out := logOf(arr).reconstructAll(adv)
	want := []uint64{1, 4, 2, 3, 5}
	for i, w := range want {
		if out[i].ID.Seq != w {
			t.Fatalf("order = %v, want %v", ids(out), want)
		}
	}
}

func TestReconstructConsecutiveSameHead(t *testing.T) {
	// Reads: C (head A), then B (head A), then A.
	arr := []frame.BundleRec{sm(1, 1), sm(1, 2), sm(1, 3)}
	adv := []tap.Advisory{
		{ReadID: mid(1, 3), HeadID: mid(1, 1)},
		{ReadID: mid(1, 2), HeadID: mid(1, 1)},
	}
	out := logOf(arr).reconstructAll(adv)
	want := []uint64{3, 2, 1}
	for i, w := range want {
		if out[i].ID.Seq != w {
			t.Fatalf("order = %v, want %v", ids(out), want)
		}
	}
}

// Property: reconstruction is a permutation — every arrival appears exactly
// once no matter what (possibly bogus) advisories are applied.
func TestReconstructIsPermutation(t *testing.T) {
	if err := quick.Check(func(n uint8, advPairs []uint8) bool {
		size := int(n%10) + 1
		arr := make([]frame.BundleRec, size)
		for i := range arr {
			arr[i] = sm(1, uint64(i+1))
		}
		var advs []tap.Advisory
		for i := 0; i+1 < len(advPairs) && i < 8; i += 2 {
			advs = append(advs, tap.Advisory{
				ReadID: mid(1, uint64(advPairs[i]%uint8(size))+1),
				HeadID: mid(1, uint64(advPairs[i+1]%uint8(size))+1),
			})
		}
		out := logOf(arr).reconstructAll(advs)
		if len(out) != size {
			return false
		}
		seen := make(map[uint64]bool)
		for _, m := range out {
			if seen[m.ID.Seq] {
				return false
			}
			seen[m.ID.Seq] = true
		}
		return true
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func ids(ms []frame.BundleRec) []uint64 {
	out := make([]uint64, len(ms))
	for i, m := range ms {
		out[i] = m.ID.Seq
	}
	return out
}

// newBench builds a recorder on a quiet medium for direct-observation tests.
func newBench(t *testing.T) (*Recorder, *simtime.Scheduler, *stablestore.Paged) {
	t.Helper()
	store := stablestore.New()
	r, sched := newBenchOn(t, store)
	return r, sched, store
}

// newBenchOn is newBench over a store of the caller's choosing.
func newBenchOn(tb testing.TB, store *stablestore.Paged) (*Recorder, *simtime.Scheduler) {
	tb.Helper()
	sched := simtime.NewScheduler()
	log := trace.New(sched.Now)
	rng := simtime.NewRand(3)
	med := lan.NewPerfect(lan.DefaultConfig(), sched, rng, log)
	cfg := DefaultConfig(5, []frame.NodeID{0, 1})
	return New(cfg, sched, rng, log, med, store, transport.DefaultConfig()), sched
}

func procA() frame.ProcID { return frame.ProcID{Node: 0, Local: 7} }
func procB() frame.ProcID { return frame.ProcID{Node: 1, Local: 3} }

// observe a guaranteed message and its ack, as the tap would.
func publish(r *Recorder, from, to frame.ProcID, seq uint64, body string) {
	publishFrame(r, &frame.Frame{
		Type: frame.Guaranteed, Src: from.Node, Dst: to.Node,
		ID: frame.MsgID{Sender: from, Seq: seq}, From: from, To: to,
		Body: []byte(body),
	})
}

// publishFrame shows the tap a guaranteed frame and then its ack.
func publishFrame(r *Recorder, f *frame.Frame) {
	if !r.Observe(f) {
		panic("tap rejected")
	}
	r.Observe(&frame.Frame{Type: frame.Ack, Src: f.Dst, Dst: f.Src, ID: f.ID, From: f.To, To: f.From})
}

func register(r *Recorder, p frame.ProcID, name string) {
	r.handleNotice(&demos.Notice{Kind: demos.NoticeCreated, Proc: p, Spec: demos.ProcSpec{Name: name, Recoverable: true}})
}

func TestObserveBuildsStreams(t *testing.T) {
	r, _, _ := newBench(t)
	register(r, procA(), "a")
	register(r, procB(), "b")
	for i := uint64(1); i <= 4; i++ {
		publish(r, procA(), procB(), i, fmt.Sprintf("m%d", i))
	}
	known, recovering, dead, lastSent, queued := r.Entry(procB())
	if !known || recovering || dead || queued != 4 {
		t.Fatalf("entry B: known=%v rec=%v dead=%v queued=%d", known, recovering, dead, queued)
	}
	if lastSent != 0 {
		t.Fatalf("B sent nothing but lastSent=%d", lastSent)
	}
	_, _, _, lastSentA, _ := r.Entry(procA())
	if lastSentA != 4 {
		t.Fatalf("A's lastSent = %d, want 4", lastSentA)
	}
	if got := len(r.StreamSummary(procB())); got != 4 {
		t.Fatalf("stream = %d", got)
	}
}

func TestDuplicateAcksAndRetransmitsIgnored(t *testing.T) {
	r, _, _ := newBench(t)
	register(r, procB(), "b")
	f := &frame.Frame{
		Type: frame.Guaranteed, Src: 0, Dst: 1,
		ID: frame.MsgID{Sender: procA(), Seq: 1}, From: procA(), To: procB(),
		Body: []byte("x"),
	}
	ack := &frame.Frame{Type: frame.Ack, Src: 1, Dst: 0, ID: f.ID, From: procB(), To: procA()}
	r.Observe(f)
	r.Observe(f) // retransmission
	r.Observe(ack)
	r.Observe(ack) // duplicate ack
	r.Observe(f)   // late retransmission after arrival
	r.Observe(ack)
	if _, _, _, _, queued := r.Entry(procB()); queued != 1 {
		t.Fatalf("stream has %d entries, want 1", queued)
	}
}

// The transport no longer sends a header-only Ack (one id, no records, no
// cumulative mark), but the tap still credits one: tools and benchmarks feed
// the recorder exactly that.
func TestHeaderOnlyAckIsCredited(t *testing.T) {
	r, _, _ := newBench(t)
	register(r, procB(), "b")
	f := &frame.Frame{
		Type: frame.Guaranteed, Src: 0, Dst: 1,
		ID: frame.MsgID{Sender: procA(), Seq: 1}, From: procA(), To: procB(),
		Body: []byte("x"),
	}
	r.Observe(f)
	if got := r.Stats().ArrivalsRecorded; got != 0 {
		t.Fatalf("arrival recorded before any ack: %d", got)
	}
	r.Observe(&frame.Frame{Type: frame.Ack, Src: 1, Dst: 0, ID: f.ID, From: procB(), To: procA()})
	if got := r.Stats().ArrivalsRecorded; got != 1 {
		t.Fatalf("ArrivalsRecorded = %d after the header-only ack, want 1", got)
	}
	if sum := r.StreamSummary(procB()); len(sum) != 1 || sum[0] != f.ID {
		t.Fatalf("stream = %v, want [%v]", sum, f.ID)
	}
}

// A stream holds no message body. The tap's pending node keeps the body it
// heard — for a bundle member, the body its record shares with the sender,
// not a copy — until the acknowledgement writes the message into a page, and
// the stream reads the body back from there.
func TestStreamReadsBodiesFromTheStore(t *testing.T) {
	r, _, _ := newBench(t)
	register(r, procB(), "b")
	msg := func(seq uint64, body string) *frame.Frame {
		return &frame.Frame{Type: frame.Guaranteed, Src: 0, Dst: 1,
			ID: frame.MsgID{Sender: procA(), Seq: seq}, From: procA(), To: procB(), Body: []byte(body)}
	}
	single := msg(1, "single")
	publishFrame(r, single)

	member := msg(2, "member")
	bundle := &frame.Frame{Type: frame.Bundle, Src: 0, Dst: 1, Recs: make([]frame.BundleRec, 1)}
	bundle.Recs[0].RecOf(member)
	if !r.Observe(bundle) {
		t.Fatal("tap rejected the bundle")
	}
	if q := r.core.Of(procB()).Queue(); len(q) != 1 || string(q[0].Body) != "member" || &q[0].Body[0] != &member.Body[0] {
		t.Fatal("the pending bundle member does not alias the body its sender shared")
	}
	r.Observe(&frame.Frame{Type: frame.Ack, Src: 1, Dst: 0, ID: member.ID, From: procB(), To: procA()})

	// Scribble over both wire bodies: the stream must not be reading them.
	copy(single.Body, "XXXXXX")
	copy(member.Body, "XXXXXX")
	got := r.StreamMessages(procB())
	if len(got) != 2 || string(got[0].Body) != "single" || string(got[1].Body) != "member" {
		t.Fatalf("stream reads back %+v", got)
	}
	if &got[0].Body[0] == &single.Body[0] || &got[1].Body[0] == &member.Body[0] {
		t.Fatal("a stream body aliases the wire")
	}
}

// Traffic that beats the creation notice is buffered and merged (the
// pre-registration race).
func TestPreRegistrationBuffering(t *testing.T) {
	r, _, _ := newBench(t)
	publish(r, procA(), procB(), 1, "early")
	publish(r, procA(), procB(), 2, "early2")
	if known, _, _, _, _ := r.Entry(procB()); known {
		t.Fatal("entry exists before registration")
	}
	register(r, procB(), "b")
	if _, _, _, _, queued := r.Entry(procB()); queued != 2 {
		t.Fatalf("pre-registration arrivals lost: queued=%d", queued)
	}
	// Sender's lastSent was buffered too.
	register(r, procA(), "a")
	if _, _, _, ls, _ := r.Entry(procA()); ls != 2 {
		t.Fatalf("pre-registration lastSent lost: %d", ls)
	}
}

// The pre-registration buffer holds the last-sent of at most tap.MaxPreSenders
// unregistered senders. The cap bounds new senders only: a sender it already
// holds keeps raising its last-sent, and registers with the highest one, the
// §4.5 suppression threshold.
func TestPreRegistrationCapBoundsNewSendersOnly(t *testing.T) {
	r, _, _ := newBench(t)
	send := func(from frame.ProcID, seq uint64) {
		r.Observe(&frame.Frame{Type: frame.Guaranteed, Src: from.Node, Dst: procB().Node,
			ID: frame.MsgID{Sender: from, Seq: seq}, From: from, To: procB()})
	}
	send(procA(), 1)
	for i := 1; i < tap.MaxPreSenders; i++ {
		send(frame.ProcID{Node: 2, Local: uint32(i)}, 1)
	}
	send(procA(), 5) // the buffer is full; A is already in it
	late := frame.ProcID{Node: 3, Local: 1}
	send(late, 9) // a new sender past the cap is not held
	register(r, procA(), "a")
	register(r, late, "late")
	if _, _, _, ls, _ := r.Entry(procA()); ls != 5 {
		t.Errorf("A registered with lastSent %d, want 5", ls)
	}
	if _, _, _, ls, _ := r.Entry(late); ls != 0 {
		t.Errorf("a sender past the cap registered with lastSent %d, want 0", ls)
	}
}

// An ack for a process whose creation notice is still on its way proves,
// as it does for a registered one, that the sender's earlier messages
// arrived: the tap-missed earlier one is buffered ahead of it, and the
// merge records both in sequence order, below no watermark.
func TestPreRegistrationInfersMissedAck(t *testing.T) {
	r, _, _ := newBench(t)
	msg := func(seq uint64) *frame.Frame {
		return &frame.Frame{Type: frame.Guaranteed, Src: 0, Dst: 1,
			ID: frame.MsgID{Sender: procA(), Seq: seq}, From: procA(), To: procB(), Body: []byte{byte(seq)}}
	}
	r.Observe(msg(1)) // its ack is missed at the tap
	publishFrame(r, msg(2))
	register(r, procB(), "b")
	publishFrame(r, msg(3))
	sum := r.StreamSummary(procB())
	if len(sum) != 3 || sum[0].Seq != 1 || sum[1].Seq != 2 || sum[2].Seq != 3 {
		t.Fatalf("stream = %v, want #1 #2 #3", sum)
	}
	if st := r.Stats(); st.MissedArrivals != 1 || st.BelowWatermark != 0 {
		t.Fatalf("MissedArrivals = %d, BelowWatermark = %d; want 1, 0", st.MissedArrivals, st.BelowWatermark)
	}
}

func TestCheckpointTrimsStream(t *testing.T) {
	r, _, _ := newBench(t)
	register(r, procB(), "b")
	for i := uint64(1); i <= 6; i++ {
		publish(r, procA(), procB(), i, "m")
	}
	// B read 4 messages, then checkpointed with 5 and 6 still queued.
	r.handleNotice(&demos.Notice{
		Kind: demos.NoticeCheckpoint, Proc: procB(),
		Checkpoint: ckImage("blob", frame.MsgID{Sender: procA(), Seq: 6}), SendSeq: 10, ReadCount: 4, StateKB: 2,
		Queued: []frame.MsgID{{Sender: procA(), Seq: 5}, {Sender: procA(), Seq: 6}},
	})
	if _, _, _, _, queued := r.Entry(procB()); queued != 2 {
		t.Fatalf("stream after checkpoint = %d, want 2", queued)
	}
	sum := r.StreamSummary(procB())
	if sum[0].Seq != 5 || sum[1].Seq != 6 {
		t.Fatalf("wrong suffix retained: %v", sum)
	}
}

func TestRebuildFromStore(t *testing.T) {
	r, _, _ := newBench(t)
	register(r, procA(), "a")
	register(r, procB(), "b")
	for i := uint64(1); i <= 5; i++ {
		publish(r, procA(), procB(), i, fmt.Sprintf("m%d", i))
	}
	r.handleNotice(&demos.Notice{Kind: demos.NoticeReadOrder, Proc: procB(),
		ReadID: mid(0, 0), HeadID: mid(0, 0)}) // harmless bogus advisory
	ck := ckImage("ck", frame.MsgID{Sender: procA(), Seq: 5})
	r.handleNotice(&demos.Notice{
		Kind: demos.NoticeCheckpoint, Proc: procB(),
		Checkpoint: ck, SendSeq: 3, ReadCount: 2, StateKB: 1,
		Queued: []frame.MsgID{
			{Sender: procA(), Seq: 3}, {Sender: procA(), Seq: 4}, {Sender: procA(), Seq: 5},
		},
	})
	publish(r, procA(), procB(), 6, "m6")
	before := r.StreamSummary(procB())

	// Crash and rebuild purely from stable storage.
	r.Crash()
	if err := r.rebuild(); err != nil {
		t.Fatal(err)
	}
	after := r.StreamSummary(procB())
	if fmt.Sprint(before) != fmt.Sprint(after) {
		t.Fatalf("rebuild mismatch:\nbefore %v\nafter  %v", before, after)
	}
	known, _, _, lastSent, _ := r.Entry(procA())
	if !known || lastSent != 6 {
		t.Fatalf("A after rebuild: known=%v lastSent=%d", known, lastSent)
	}
	e := r.db[procB()]
	if !bytes.Equal(e.Checkpoint, ck) || e.CkReadCount != 2 || e.CkSendSeq != 3 || !e.CkMarks.Covers(frame.MsgID{Sender: procA(), Seq: 5}) {
		t.Fatalf("checkpoint not rebuilt: %+v", e)
	}
}

func TestDestroyedProcessForgotten(t *testing.T) {
	r, _, _ := newBench(t)
	register(r, procB(), "b")
	publish(r, procA(), procB(), 1, "m")
	r.handleNotice(&demos.Notice{Kind: demos.NoticeDestroyed, Proc: procB()})
	_, _, dead, _, queued := r.Entry(procB())
	if !dead || queued != 0 {
		t.Fatalf("dead=%v queued=%d", dead, queued)
	}
	// Survives rebuild.
	r.Crash()
	if err := r.rebuild(); err != nil {
		t.Fatal(err)
	}
	if _, _, dead, _, _ := r.Entry(procB()); !dead {
		t.Fatal("death forgotten across rebuild")
	}
}

func TestRestartNumberPersistence(t *testing.T) {
	r, sched, store := newBench(t)
	_ = sched
	r.Crash()
	if err := r.Restart(); err != nil {
		t.Fatal(err)
	}
	if r.RestartNumber() != 1 {
		t.Fatalf("restart number = %d", r.RestartNumber())
	}
	r.Crash()
	if err := r.Restart(); err != nil {
		t.Fatal(err)
	}
	if r.RestartNumber() != 2 {
		t.Fatalf("restart number = %d", r.RestartNumber())
	}
	// A brand-new recorder over the same store resumes the counter (§3.4:
	// the counter lives in stable storage).
	log := trace.New(sched.Now)
	rng := simtime.NewRand(4)
	med := lan.NewPerfect(lan.DefaultConfig(), sched, rng, log)
	r2 := New(DefaultConfig(6, nil), sched, rng, log, med, store, transport.DefaultConfig())
	if r2.RestartNumber() != 2 {
		t.Fatalf("restart number not persisted: %d", r2.RestartNumber())
	}
}

// A restarted recorder learns from a node's §3.3.4 query response that its
// processes were lost, and starts their recoveries in sortedProcs order:
// the start order fixes the wire traffic and trace, so map order would make
// same-seed runs diverge.
func TestQueryResponseStartsRecoveriesInProcessOrder(t *testing.T) {
	for run := 0; run < 4; run++ {
		r, _, _ := newBench(t)
		var want []string
		for local := uint32(1); local <= 9; local++ {
			p := frame.ProcID{Node: 1, Local: local}
			register(r, p, fmt.Sprintf("w%d", local))
			want = append(want, p.String())
		}
		r.Crash()
		if err := r.Restart(); err != nil {
			t.Fatal(err)
		}
		// Node 1 rebooted while the recorder was down: it reports none of them.
		r.handleQueryResponse(&frame.Frame{Body: demos.EncodeQuery(&demos.QueryResponse{
			RestartNumber: r.RestartNumber(), Node: 1})})
		var got []string
		for _, e := range r.log.OfKind(trace.KindRecoveryStart) {
			got = append(got, e.Subject)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("recoveries started in order %v, want %v", got, want)
		}
	}
}

func TestProcessModeCosts(t *testing.T) {
	if ModeNaive.PerMessageCPU() != 57*simtime.Millisecond {
		t.Fatal("naive")
	}
	if ModeOptimized.PerMessageCPU() != 12*simtime.Millisecond {
		t.Fatal("optimized")
	}
	if ModeMediaLayer.PerMessageCPU() != 800*simtime.Microsecond {
		t.Fatal("media layer")
	}
	for _, m := range []ProcessMode{ModeNaive, ModeOptimized, ModeMediaLayer} {
		if m.String() == "" {
			t.Fatal("mode name")
		}
	}
}

func TestCrashedTapRefuses(t *testing.T) {
	r, _, _ := newBench(t)
	r.Crash()
	f := &frame.Frame{Type: frame.Guaranteed, ID: frame.MsgID{Sender: procA(), Seq: 1}, From: procA(), To: procB()}
	if r.Observe(f) {
		t.Fatal("crashed recorder stored a frame")
	}
}

// A recorder's periodic tick re-arms the handler Start made for it, so a
// period allocates nothing: the scheduler recycles the fired event's node
// for the next one. A tick armed before a crash fires once more, runs
// nothing and is not armed again.
func TestTickRearmAllocatesNothing(t *testing.T) {
	r, sched, _ := newBench(t)
	runs := 0
	r.armTick(simtime.Second, func(*Recorder) { runs++ })
	allocs := testing.AllocsPerRun(100, func() { sched.Run(sched.Now() + simtime.Second) })
	if allocs != 0 {
		t.Errorf("a tick period allocates %.1f times", allocs)
	}
	if runs != 101 {
		t.Fatalf("the tick ran %d times in 101 periods", runs)
	}
	r.epoch++
	sched.Run(sched.Now() + simtime.Second)
	if runs != 101 || sched.Pending() != 0 {
		t.Fatalf("a stale tick ran (%d runs) or re-armed (%d pending)", runs, sched.Pending())
	}
}

// Kernels send a recorder its notices on the request channel, and it reads
// every one addressed to a sibling off the wire. What a kernel sends back on
// a sibling's reply channels — a query response, a control reply — is no
// notice, though gob would decode one as a notice of kind 0.
func TestSiblingRepliesAreNotNotices(t *testing.T) {
	sched := simtime.NewScheduler()
	log := trace.New(sched.Now)
	rng := simtime.NewRand(3)
	med := lan.NewPerfect(lan.DefaultConfig(), sched, rng, log)
	cfg := DefaultConfig(5, []frame.NodeID{0, 1})
	sibling := frame.ProcID{Node: 6, Local: 1}
	cfg.Recorders = append(cfg.Recorders, sibling)
	cfg.Shards = NewShardMap(0, 2, 1)
	r := New(cfg, sched, rng, log, med, stablestore.New(), transport.DefaultConfig())
	kernel := frame.ProcID{Node: 1, Local: 0}
	seq := uint64(0)
	send := func(channel uint16, body []byte) {
		seq++
		r.Observe(&frame.Frame{Type: frame.Guaranteed, Src: 1, Dst: sibling.Node,
			ID: frame.MsgID{Sender: kernel, Seq: seq}, From: kernel, To: sibling, Channel: channel, Body: body})
	}
	send(chanQueryResp, demos.EncodeQuery(&demos.QueryResponse{RestartNumber: 1, Node: 1,
		Procs: []demos.ProcReport{{Proc: procB(), State: demos.StateFunctioning}}}))
	send(chanCtlReply, demos.EncodeReply(&demos.CtlReply{OK: true, Proc: procB()}))
	if got := r.stats.Notices; got != 0 {
		t.Fatalf("a query response and a control reply to a sibling counted %d notices, want 0", got)
	}
	send(demos.ChanRequest, demos.EncodeNotice(&demos.Notice{Kind: demos.NoticeCreated, Proc: procB(),
		Spec: demos.ProcSpec{Name: "b", Recoverable: true}}))
	if got := r.stats.Notices; got != 1 {
		t.Fatalf("a notice to a sibling counted %d notices, want 1", got)
	}
}

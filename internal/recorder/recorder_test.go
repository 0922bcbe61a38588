package recorder

import (
	"fmt"
	"testing"
	"testing/quick"

	"publishing/internal/demos"
	"publishing/internal/frame"
	"publishing/internal/lan"
	"publishing/internal/simtime"
	"publishing/internal/stablestore"
	"publishing/internal/trace"
	"publishing/internal/transport"
)

func mid(local uint32, seq uint64) frame.MsgID {
	return frame.MsgID{Sender: frame.ProcID{Node: 9, Local: local}, Seq: seq}
}

func sm(local uint32, seq uint64) storedMsg {
	return storedMsg{ID: mid(local, seq), Body: []byte{byte(seq)}}
}

func TestReconstructNoAdvisories(t *testing.T) {
	arr := []storedMsg{sm(1, 1), sm(1, 2), sm(1, 3)}
	out := reconstruct(logOf(arr), nil)
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
	arr := []storedMsg{sm(1, 1), sm(1, 2), sm(1, 3)}
	adv := []advisory{{ReadID: mid(1, 2), HeadID: mid(1, 1)}}
	out := reconstruct(logOf(arr), adv)
	want := []uint64{2, 1, 3}
	for i, w := range want {
		if out[i].ID.Seq != w {
			t.Fatalf("order = %v, want %v", ids(out), want)
		}
	}
}

func TestReconstructInterleavedReads(t *testing.T) {
	// Arrivals: A B C D E. Reads: A (in order), then D (head B), then B, C, E.
	arr := []storedMsg{sm(1, 1), sm(1, 2), sm(1, 3), sm(1, 4), sm(1, 5)}
	adv := []advisory{{ReadID: mid(1, 4), HeadID: mid(1, 2)}}
	out := reconstruct(logOf(arr), adv)
	want := []uint64{1, 4, 2, 3, 5}
	for i, w := range want {
		if out[i].ID.Seq != w {
			t.Fatalf("order = %v, want %v", ids(out), want)
		}
	}
}

func TestReconstructConsecutiveSameHead(t *testing.T) {
	// Reads: C (head A), then B (head A), then A.
	arr := []storedMsg{sm(1, 1), sm(1, 2), sm(1, 3)}
	adv := []advisory{
		{ReadID: mid(1, 3), HeadID: mid(1, 1)},
		{ReadID: mid(1, 2), HeadID: mid(1, 1)},
	}
	out := reconstruct(logOf(arr), adv)
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
		arr := make([]storedMsg, size)
		for i := range arr {
			arr[i] = sm(1, uint64(i+1))
		}
		var advs []advisory
		for i := 0; i+1 < len(advPairs) && i < 8; i += 2 {
			advs = append(advs, advisory{
				ReadID: mid(1, uint64(advPairs[i]%uint8(size))+1),
				HeadID: mid(1, uint64(advPairs[i+1]%uint8(size))+1),
			})
		}
		out := reconstruct(logOf(arr), advs)
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

func ids(ms []storedMsg) []uint64 {
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

func TestCheckpointTrimsStream(t *testing.T) {
	r, _, store := newBench(t)
	register(r, procB(), "b")
	for i := uint64(1); i <= 6; i++ {
		publish(r, procA(), procB(), i, "m")
	}
	// B read 4 messages, then checkpointed with 5 and 6 still queued.
	r.handleNotice(&demos.Notice{
		Kind: demos.NoticeCheckpoint, Proc: procB(),
		Checkpoint: []byte("blob"), SendSeq: 10, ReadCount: 4, StateKB: 2,
		Queued: []frame.MsgID{{Sender: procA(), Seq: 5}, {Sender: procA(), Seq: 6}},
	})
	if _, _, _, _, queued := r.Entry(procB()); queued != 2 {
		t.Fatalf("stream after checkpoint = %d, want 2", queued)
	}
	sum := r.StreamSummary(procB())
	if sum[0].Seq != 5 || sum[1].Seq != 6 {
		t.Fatalf("wrong suffix retained: %v", sum)
	}
	// Compaction reclaims the trimmed records.
	dropped, err := store.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if dropped < 4 {
		t.Fatalf("compaction dropped %d, want >=4", dropped)
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
	r.handleNotice(&demos.Notice{
		Kind: demos.NoticeCheckpoint, Proc: procB(),
		Checkpoint: []byte("ck"), SendSeq: 3, ReadCount: 2, StateKB: 1,
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
	if string(e.Checkpoint) != "ck" || e.CkReadCount != 2 || e.CkSendSeq != 3 {
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

func TestParseProcID(t *testing.T) {
	p := frame.ProcID{Node: 3, Local: 44}
	got, ok := parseProcID(p.String()[1:] /* strip 'p' is wrong */)
	if ok && got == p {
		t.Fatal("parse should fail without prefix")
	}
	got, ok = parseProcID(p.String())
	if !ok || got != p {
		t.Fatalf("parseProcID(%q) = %v, %v", p.String(), got, ok)
	}
	if _, ok := parseProcID("zork"); ok {
		t.Fatal("garbage parsed")
	}
}

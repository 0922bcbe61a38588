package recorder

import (
	"slices"
	"testing"
	"time"

	"publishing/internal/demos"
	"publishing/internal/frame"
	"publishing/internal/trace"
)

// What the recorder holds in memory for a checkpointed stream depends on the
// checkpoint interval and the number of senders, not on how many messages
// the stream has carried (§4.5: "a list of ids of messages received by the
// process since the last checkpoint"). Counted in elements — watermark and
// checkpoint mark entries, pending messages, log records, advisories — a run
// ten times as long ends holding exactly as much.
func TestRecorderStateFlatInMessageCount(t *testing.T) {
	const interval = 45 // 1,000 and 10,000 both end 10 messages past a checkpoint
	senders := []frame.ProcID{procA(), {Node: 0, Local: 8}, {Node: 0, Local: 9}}
	elements := func(n int) int {
		r, _, _ := newBench(t)
		register(r, procB(), "b")
		var last frame.MsgID
		var taken frame.Marks
		for i := 1; i <= n; i++ {
			from := senders[i%len(senders)]
			id := frame.MsgID{Sender: from, Seq: uint64(i)}
			publish(r, from, procB(), id.Seq, "m")
			taken.Note(id)
			if i%10 == 0 { // the process reads this one ahead of the one before
				r.handleNotice(&demos.Notice{Kind: demos.NoticeReadOrder, Proc: procB(), ReadID: id, HeadID: last})
			}
			if i%interval == 0 { // everything so far is read
				r.handleNotice(&demos.Notice{Kind: demos.NoticeCheckpoint, Proc: procB(), Checkpoint: ckImage("ck", taken...), ReadCount: uint64(i)})
			}
			last = id
		}
		e := r.db[procB()]
		held := len(e.Recorded) + len(e.CkMarks) + e.Arrivals.Len() + len(e.Advisories) + len(r.core.Of(procB()).Queue())
		if held <= 2*len(senders) || held > 2*len(senders)+interval+interval/10+1 {
			t.Fatalf("%d messages: %d elements held, want a checkpoint interval's worth", n, held)
		}
		return held
	}
	if short, long := elements(1000), elements(10000); short != long {
		t.Fatalf("recorder state grew with the run: %d elements after 1,000 messages, %d after 10,000", short, long)
	}
}

// An acknowledgement costs the same whatever is pending towards other
// processes: it consults its own destination's queue only. The old pending
// map was scanned whole on every acknowledgement (a ratio of 24 here); the
// bound is TestQueueHeadPopIndependentOfDepth's.
func TestAckCostIndependentOfUnrelatedPending(t *testing.T) {
	if raceEnabled {
		t.Skip("timing under the race detector says nothing about the index")
	}
	const acks = 2000
	timeAcks := func(unrelated int) time.Duration {
		best := time.Duration(1<<63 - 1)
		for try := 0; try < 3; try++ {
			r, _, _ := newBench(t)
			register(r, procB(), "b")
			for i := 0; i < unrelated; i++ {
				to := frame.ProcID{Node: 1, Local: uint32(100 + i%8)}
				r.Observe(&frame.Frame{Type: frame.Guaranteed, Src: 0, Dst: 1,
					ID: frame.MsgID{Sender: procA(), Seq: uint64(i + 1)}, From: procA(), To: to})
			}
			from := frame.ProcID{Node: 0, Local: 9}
			start := time.Now()
			for i := 0; i < acks; i++ {
				publish(r, from, procB(), uint64(i+1), "m")
			}
			best = min(best, time.Since(start))
			if got := r.Stats().ArrivalsRecorded; got != acks {
				t.Fatalf("%d arrivals recorded, want %d", got, acks)
			}
		}
		return best
	}
	few, many := timeAcks(16), timeAcks(4096)
	ratio := float64(many) / float64(few)
	t.Logf("%d publishes: %v with 4,096 unrelated pending, %v with 16 (ratio %.1f)", acks, many, few, ratio)
	if ratio >= 20 {
		t.Fatal("acknowledgement cost grows with messages pending towards other processes (want ratio < 20)")
	}
}

// Messages acknowledged before their destination's creation notice are
// merged at registration through the same path as any arrival: each shows up
// as a publish event carrying its acceptance-order position, so the online
// monitor and -explain see a new process's first messages.
func TestPreRegistrationArrivalsArePublishEvents(t *testing.T) {
	r, _, _ := newBench(t)
	publish(r, procA(), procB(), 1, "early")
	publish(r, procA(), procB(), 2, "early2")
	if n := r.log.Count(trace.KindPublish); n != 0 {
		t.Fatalf("%d publish events before registration", n)
	}
	register(r, procB(), "b")
	publish(r, procA(), procB(), 3, "on time")
	events := r.log.OfKind(trace.KindPublish)
	if len(events) != 3 {
		t.Fatalf("%d publish events, want 3: %v", len(events), events)
	}
	for i, ev := range events {
		id := frame.MsgID{Sender: procA(), Seq: uint64(i + 1)}
		if ev.Msg != id.String() || ev.Subject != procB().String() || ev.Seq != uint64(i) {
			t.Fatalf("publish event %d is (msg %s, stream %s, seq %d), want (%s, %s, %d)",
				i, ev.Msg, ev.Subject, ev.Seq, id, procB(), i)
		}
	}
}

// A handoff blob carries one watermark per sender, however long the stream
// has run, and adopting it merges the marks by maximum: local arrivals the
// partner's marks cover are in its basis already (or trimmed from it), the
// others follow the adopted messages, and a late copy of anything at or
// below a mark — the partner's or ours — stays out.
func TestHandoffAdoptMergesWatermarks(t *testing.T) {
	r, _, _ := newBench(t)
	register(r, procB(), "b")
	a, c, d := procA(), frame.ProcID{Node: 0, Local: 9}, frame.ProcID{Node: 0, Local: 11}
	for seq := uint64(1); seq <= 3; seq++ {
		publish(r, a, procB(), seq, "local")
	}
	publish(r, c, procB(), 9, "only here")

	r.installHandoffProc(&handoffProc{
		Proc: procB(), Node: 1, Ck: ckImage("ck", frame.MsgID{Sender: a, Seq: 6}), CkReadCount: 6, Cov: 7,
		Msgs:     []storedMsg{{ID: frame.MsgID{Sender: a, Seq: 7}, From: a, Body: []byte("theirs")}},
		Recorded: []frame.MsgID{{Sender: a, Seq: 7}, {Sender: d, Seq: 4}},
	})
	if got := r.Stats().HandoffProcsAdopted; got != 1 {
		t.Fatalf("blob not adopted (%d)", got)
	}
	want := []frame.MsgID{{Sender: a, Seq: 7}, {Sender: c, Seq: 9}}
	if got := r.StreamSummary(procB()); len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("stream after adoption = %v, want %v", got, want)
	}
	e := r.db[procB()]
	if want := (frame.Marks{{Sender: a, Seq: 7}, {Sender: c, Seq: 9}, {Sender: d, Seq: 4}}); !slices.Equal(e.Recorded, want) {
		t.Fatalf("watermarks after adoption = %v", e.Recorded)
	}
	hear := func(from frame.ProcID, seq uint64) bool {
		before := r.Stats().MessagesPending
		r.Observe(&frame.Frame{Type: frame.Guaranteed, Src: from.Node, Dst: 1,
			ID: frame.MsgID{Sender: from, Seq: seq}, From: from, To: procB()})
		return r.Stats().MessagesPending > before
	}
	if hear(a, 5) || hear(d, 2) || hear(c, 9) {
		t.Fatal("a retransmission at or below a merged watermark went pending")
	}
	if !hear(a, 8) || !hear(d, 5) {
		t.Fatal("a message above the merged watermarks was refused")
	}
	// The adopted basis survives a restart of the adopter.
	r.Crash()
	if err := r.rebuild(); err != nil {
		t.Fatal(err)
	}
	if got := r.StreamSummary(procB()); len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("stream after rebuild = %v, want %v", got, want)
	}
}

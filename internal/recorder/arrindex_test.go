package recorder

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"publishing/internal/demos"
	"publishing/internal/frame"
	"publishing/internal/simtime"
	"publishing/internal/stablestore"
)

// The stream's index, read back through its Refs, matches a model that keeps
// a copy of every message, across every operation that writes or moves
// records: arrivals (bodies of many sizes, some passing links), checkpoint
// trims whose queue reorders the stream (RetainedOrder), Compact, a rebuild
// from the store, and handoff adoption.
func TestArrivalIndexMatchesCopiesModel(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		arrivalIndexModel(t, seed)
	}
}

func arrivalIndexModel(t *testing.T, seed uint64) {
	rng := simtime.NewRand(seed)
	r, _, store := newBench(t)
	b := procB()
	register(r, b, "b")
	senders := []frame.ProcID{procA(), {Node: 0, Local: 9}, {Node: 0, Local: 11}}
	next := make(map[frame.ProcID]uint64)
	var model []storedMsg // b's stream in replay order, every message a copy
	var readCount uint64

	msgOf := func(from frame.ProcID, step int) storedMsg {
		next[from]++
		sm := storedMsg{ID: frame.MsgID{Sender: from, Seq: next[from]}, From: from,
			Channel: uint16(rng.Intn(chanPeer)), Code: uint32(rng.Intn(1 << 20))}
		if n := rng.Intn(900); n > 0 {
			sm.Body = make([]byte, n)
			for i := range sm.Body {
				sm.Body[i] = byte(rng.Intn(256))
			}
		}
		if rng.Intn(3) == 0 {
			sm.Link = &frame.Link{To: from, Channel: 2, Code: uint32(step), DeliverToKernel: rng.Intn(2) == 0}
		}
		return sm
	}
	// marksOver are the acceptance marks of having taken msgs.
	marksOver := func(msgs []storedMsg) []frame.MsgID {
		var m frame.Marks
		for _, sm := range msgs {
			m.Note(sm.ID)
		}
		return m
	}
	check := func(step int, op string) {
		t.Helper()
		e := r.db[b]
		got := reconstruct(store, e.keys.msg, e.Arrivals, e.Advisories)
		if len(got) != len(model) {
			t.Fatalf("seed %d step %d (%s): stream holds %d messages, model %d", seed, step, op, len(got), len(model))
		}
		for i := range model {
			g, w := got[i], model[i]
			if g.ID != w.ID || g.From != w.From || g.Channel != w.Channel || g.Code != w.Code ||
				!bytes.Equal(g.Body, w.Body) || (g.Body == nil) != (w.Body == nil) || !reflect.DeepEqual(g.Link, w.Link) {
				t.Fatalf("seed %d step %d (%s): message %d reads back %+v, model %+v", seed, step, op, i, g, w)
			}
		}
	}

	for step := 0; step < 150; step++ {
		var op string
		switch k := rng.Intn(20); {
		case k < 12:
			op = "arrival"
			sm := msgOf(senders[rng.Intn(len(senders))], step)
			var link *frame.Link
			if sm.Link != nil {
				l := *sm.Link
				link = &l
			}
			publishFrame(r, &frame.Frame{Type: frame.Guaranteed, Src: sm.From.Node, Dst: b.Node,
				ID: sm.ID, From: sm.From, To: b, Channel: sm.Channel, Code: sm.Code,
				Body: bytes.Clone(sm.Body), PassedLink: link})
			model = append(model, sm)
		case k < 15:
			// The process has read the first n messages; the rest are queued,
			// in an order of their own.
			op = "checkpoint"
			n := rng.Intn(len(model) + 1)
			queued := append([]storedMsg(nil), model[n:]...)
			for i := len(queued) - 1; i > 0; i-- {
				j := rng.Intn(i + 1)
				queued[i], queued[j] = queued[j], queued[i]
			}
			ids := make([]frame.MsgID, len(queued))
			for i := range queued {
				ids[i] = queued[i].ID
			}
			readCount += uint64(n)
			r.handleNotice(&demos.Notice{Kind: demos.NoticeCheckpoint, Proc: b,
				Checkpoint: ckImage("ck", marksOver(model)...), SendSeq: 1, ReadCount: readCount, StateKB: 1,
				Queued: ids})
			model = queued
		case k < 17:
			op = "compact"
			if _, err := store.Compact(); err != nil {
				t.Fatal(err)
			}
		case k < 18:
			op = "rebuild"
			r.Crash()
			if err := r.Restart(); err != nil {
				t.Fatal(err)
			}
		default:
			// A partner whose checkpoint took the first j messages and who
			// holds the next ones up to m, plus messages this recorder never
			// heard.
			op = "handoff"
			j := rng.Intn(len(model) + 1)
			m := j + rng.Intn(len(model)-j+1)
			msgs := append([]storedMsg(nil), model[j:m]...)
			for n := rng.Intn(3); n > 0; n-- {
				msgs = append(msgs, msgOf(senders[rng.Intn(len(senders))], step))
			}
			e := r.db[b]
			readCount = max(readCount, e.CkReadCount) + uint64(j)
			ck := ckImage("handoff", marksOver(model[:j])...)
			r.installHandoffProc(&handoffProc{Proc: b, Node: b.Node, Ck: ck, CkReadCount: readCount,
				Cov: e.CkReadCount + uint64(e.Arrivals.len()) + 1, Msgs: msgs})
			// The adopted messages, then every local one neither the
			// partner's messages nor its checkpoint covers.
			var theirs, ckMarks frame.Marks
			for _, sm := range msgs {
				theirs.Note(sm.ID)
			}
			for _, id := range marksOver(model[:j]) {
				ckMarks.Note(id)
			}
			adopted := msgs
			for _, sm := range model {
				if !theirs.Covers(sm.ID) && !ckMarks.Covers(sm.ID) {
					adopted = append(adopted, sm)
				}
			}
			model = adopted
		}
		check(step, op)
	}
}

// A record that Compact moves within its page is still read by a replay
// that follows the stream's ref to it: Lookup scans the page.
func TestReplayReadsRecordsCompactionMoved(t *testing.T) {
	r, _, store := newBench(t)
	register(r, procB(), "b")
	for seq := uint64(1); seq <= 6; seq++ {
		publish(r, procA(), procB(), seq, string(rune('a'+seq-1))+"-body")
	}
	// B read 1-4 and checkpointed with 5 and 6 queued: records 1-4 are
	// invalidated on the page 5 and 6 share with them.
	r.handleNotice(&demos.Notice{Kind: demos.NoticeCheckpoint, Proc: procB(),
		Checkpoint: ckImage("ck", frame.MsgID{Sender: procA(), Seq: 6}), SendSeq: 1, ReadCount: 4, StateKB: 1,
		Queued: []frame.MsgID{{Sender: procA(), Seq: 5}, {Sender: procA(), Seq: 6}}})
	e := r.db[procB()]
	if n, err := store.Compact(); err != nil || n < 4 {
		t.Fatalf("Compact dropped %d records (%v), want at least 4", n, err)
	}
	// Where the records are now: both moved.
	at := make(map[uint64]stablestore.Ref)
	if err := store.Scan(func(rec stablestore.Record, ref stablestore.Ref) error {
		if rec.Key == "msg:"+procB().String() {
			at[rec.Seq] = ref
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < e.Arrivals.len(); i++ {
		if a := e.Arrivals.at(i); at[a.ArrSeq] == a.Ref || at[a.ArrSeq].Page != a.Ref.Page {
			t.Fatalf("arrival %v: stream ref %+v, record now at %+v; want moved within its page", a.ID, a.Ref, at[a.ArrSeq])
		}
	}
	it := newReplayIter(store, e.keys.msg, e.Arrivals, e.Advisories)
	for _, want := range []string{"e-body", "f-body"} {
		sm, ok := it.next()
		if !ok || string(sm.Body) != want {
			t.Fatalf("replay read %q (%v), want %q", sm.Body, ok, want)
		}
	}
	if _, more := it.next(); more {
		t.Fatal("replay read past the retained messages")
	}
}

// A checkpoint that lands while a replay runs, followed by a Compact, does
// not take the records the replay has yet to read: the store hears of the
// checkpoint's invalidations when the replay ends — or, if the recorder
// crashes first, from the rebuild — and Compact drops them from then on.
func TestCompactMidReplayKeepsTheReplaysRecords(t *testing.T) {
	for _, crash := range []bool{false, true} {
		t.Run(fmt.Sprintf("recorder-crash=%v", crash), func(t *testing.T) {
			compactMidReplay(t, crash)
		})
	}
}

func compactMidReplay(t *testing.T, crash bool) {
	r, _, store := newBench(t)
	r.log.Enable(false)
	r.cfg.ReplayBatchBytes, r.cfg.ReplayWindow = 1, 1 // one message a batch, one batch out
	b := procB()
	register(r, b, "b")
	const n = 6
	var all []frame.MsgID
	for seq := uint64(1); seq <= n; seq++ {
		publish(r, procA(), b, seq, fmt.Sprintf("body %d", seq))
		all = append(all, frame.MsgID{Sender: procA(), Seq: seq})
	}
	rp := &recoveryProc{proc: b, target: b.Node, gen: 1}
	r.recovering[b] = rp
	r.startReplay(r.db[b], rp, rp.gen)
	bs := r.replaying[b]
	// The first batch is out and the second message staged. B checkpoints
	// having read all six, and the store is compacted.
	r.handleNotice(&demos.Notice{Kind: demos.NoticeCheckpoint, Proc: b,
		Checkpoint: ckImage("ck", all...), SendSeq: 1, ReadCount: n, StateKB: 1})
	if got := r.db[b].Arrivals.len(); got != 0 {
		t.Fatalf("the checkpoint left %d arrivals, want 0", got)
	}
	if dropped, err := store.Compact(); err != nil || dropped != 0 {
		t.Fatalf("Compact mid-replay dropped %d records (%v), want 0", dropped, err)
	}
	if crash {
		r.Crash()
		if err := r.Restart(); err != nil {
			t.Fatal(err)
		}
	} else {
		var staged []string
		for !bs.doneSent {
			if bs.haveStaged {
				staged = append(staged, string(bs.staged.Body))
			}
			bs.acked = bs.nextSeq // the kernel acknowledges every batch out
			bs.fill()
		}
		if want := "body 2 body 3 body 4 body 5 body 6"; strings.Join(staged, " ") != want {
			t.Fatalf("replay read %q, want %q", staged, want)
		}
		r.waiters[r.nextCode-1](&frame.Frame{}) // the kernel's reply to the done message
		if r.replaying[b] != nil || r.stats.RecoveriesCompleted != 1 || r.stats.MessagesReplayed != n {
			t.Fatalf("replay not finished: live %v, %d recoveries completed, %d messages replayed",
				r.replaying[b] != nil, r.stats.RecoveriesCompleted, r.stats.MessagesReplayed)
		}
	}
	if dropped, err := store.Compact(); err != nil || dropped != n {
		t.Fatalf("Compact after the replay dropped %d records (%v), want %d", dropped, err, n)
	}
}

// A recorded message is held once, in its store page. The stream keeps a
// 32-byte index entry per arrival, and nothing else the recorder holds grows
// with the stream: the heap grows per arrival by at most the encoded record,
// its share of the unused tail of each full page (store memory too, not a
// second copy), and 64 bytes. Keeping the body as well (or a copy of the
// message beside the page) costs hundreds of bytes more.
func TestRecorderKeepsOneCopy(t *testing.T) {
	r, _, store := newBench(t)
	r.log.Enable(false)
	register(r, procB(), "b")
	const n, bodyLen = 4096, 512
	record := func(from, to uint64) {
		for seq := from; seq < to; seq++ {
			body := make([]byte, bodyLen)
			body[0] = byte(seq)
			publishFrame(r, &frame.Frame{Type: frame.Guaranteed, Src: 0, Dst: 1,
				ID: frame.MsgID{Sender: procA(), Seq: seq}, From: procA(), To: procB(), Body: body})
		}
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// The store record: kind, key length, key, seq, data length, then the
	// message record (no link).
	recLen := 1 + 2 + len("msg:"+procB().String()) + 8 + 4 + storedMsgFixedLen + bodyLen
	perPage := stablestore.PageSize / recLen
	slack := float64(stablestore.PageSize-perPage*recLen) / float64(perPage)
	record(1, 2) // the first page and the tap's per-process state
	before, pages := heap(), store.Pages()
	record(2, n+2)
	grown := float64(int64(heap())-int64(before)) / n
	if got := r.db[procB()].Arrivals.len(); got != n+1 {
		t.Fatalf("stream holds %d arrivals, want %d", got, n+1)
	}
	if got, want := store.Pages()-pages, n/perPage; got < want || got > want+1 {
		t.Fatalf("the store took %d pages for %d records of %d B, want %d", got, n, recLen, want)
	}
	limit := float64(recLen) + slack + 64
	t.Logf("heap %.1f B per arrival; record %d B, page tail %.1f B a record, limit %.1f B", grown, recLen, slack, limit)
	if grown > limit {
		t.Errorf("heap grew %.1f B per arrival, over the %d-B record and its %.1f-B page tail by %.1f B (limit 64): a second copy",
			grown, recLen, slack, grown-float64(recLen)-slack)
	}
	runtime.KeepAlive(r)
}

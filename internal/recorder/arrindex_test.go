package recorder

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"publishing/internal/demos"
	"publishing/internal/frame"
	"publishing/internal/simtime"
	"publishing/internal/stablestore"
)

// The stream's index, read back through its Refs, matches a model that keeps
// a copy of every message, across every operation that writes records or
// rebuilds the index: arrivals (bodies of many sizes, some passing links),
// checkpoint trims whose queue reorders the stream (RetainedOrder), a
// rebuild from the store, and handoff adoption.
func TestArrivalIndexMatchesCopiesModel(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		arrivalIndexModel(t, seed)
	}
}

func arrivalIndexModel(t *testing.T, seed uint64) {
	rng := simtime.NewRand(seed)
	r, _, _ := newBench(t)
	b := procB()
	register(r, b, "b")
	senders := []frame.ProcID{procA(), {Node: 0, Local: 9}, {Node: 0, Local: 11}}
	next := make(map[frame.ProcID]uint64)
	var model []frame.BundleRec // b's stream in replay order, every message a copy
	var readCount uint64

	msgOf := func(from frame.ProcID, step int) frame.BundleRec {
		next[from]++
		sm := frame.BundleRec{ID: frame.MsgID{Sender: from, Seq: next[from]}, From: from,
			Channel: uint16(rng.Intn(chanPeer)), Code: uint32(rng.Intn(1 << 20))}
		if n := rng.Intn(900); n > 0 {
			sm.Body = make([]byte, n)
			for i := range sm.Body {
				sm.Body[i] = byte(rng.Intn(256))
			}
		}
		if rng.Intn(3) == 0 {
			sm.HasLink, sm.Link = true, frame.Link{To: from, Channel: 2, Code: uint32(step), DeliverToKernel: rng.Intn(2) == 0}
		}
		return sm
	}
	// marksOver are the acceptance marks of having taken msgs.
	marksOver := func(msgs []frame.BundleRec) []frame.MsgID {
		var m frame.Marks
		for _, sm := range msgs {
			m.Note(sm.ID)
		}
		return m
	}
	check := func(step int, op string) {
		t.Helper()
		e := r.db[b]
		got := r.reconstruct(e)
		if len(got) != len(model) {
			t.Fatalf("seed %d step %d (%s): stream holds %d messages, model %d", seed, step, op, len(got), len(model))
		}
		for i := range model {
			g, w := got[i], model[i]
			if g.ID != w.ID || g.From != w.From || g.Channel != w.Channel || g.Code != w.Code ||
				!bytes.Equal(g.Body, w.Body) || (g.Body == nil) != (w.Body == nil) || g.HasLink != w.HasLink || g.Link != w.Link {
				t.Fatalf("seed %d step %d (%s): message %d reads back %+v, model %+v", seed, step, op, i, g, w)
			}
		}
	}

	for step := 0; step < 150; step++ {
		var op string
		switch k := rng.Intn(18); {
		case k < 12:
			op = "arrival"
			sm := msgOf(senders[rng.Intn(len(senders))], step)
			var link *frame.Link
			if sm.HasLink {
				l := sm.Link
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
			queued := append([]frame.BundleRec(nil), model[n:]...)
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
		case k < 16:
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
			msgs := append([]frame.BundleRec(nil), model[j:m]...)
			for n := rng.Intn(3); n > 0; n-- {
				msgs = append(msgs, msgOf(senders[rng.Intn(len(senders))], step))
			}
			e := r.db[b]
			readCount = max(readCount, e.CkReadCount) + uint64(j)
			ck := ckImage("handoff", marksOver(model[:j])...)
			r.installHandoffProc(&handoffProc{Proc: b, Node: b.Node, Ck: ck, CkReadCount: readCount,
				Cov: e.CkReadCount + uint64(e.Arrivals.Len()) + 1, Msgs: msgs})
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

// A checkpoint that lands while a replay runs trims the stream but not the
// replay, which reads on from its snapshot: the store keeps every record.
// If the recorder crashes instead, its rebuild leaves what the checkpoint
// superseded out of the stream. Either way the store still holds all six
// records.
func TestCheckpointMidReplay(t *testing.T) {
	for _, crash := range []bool{false, true} {
		t.Run(fmt.Sprintf("recorder-crash=%v", crash), func(t *testing.T) {
			checkpointMidReplay(t, crash)
		})
	}
}

func checkpointMidReplay(t *testing.T, crash bool) {
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
	// having read all six.
	r.handleNotice(&demos.Notice{Kind: demos.NoticeCheckpoint, Proc: b,
		Checkpoint: ckImage("ck", all...), SendSeq: 1, ReadCount: n, StateKB: 1})
	if got := r.db[b].Arrivals.Len(); got != 0 {
		t.Fatalf("the checkpoint left %d arrivals, want 0", got)
	}
	if crash {
		r.Crash()
		if err := r.Restart(); err != nil {
			t.Fatal(err)
		}
		if got := r.db[b].Arrivals.Len(); got != 0 {
			t.Fatalf("the rebuild restored %d arrivals the checkpoint superseded, want 0", got)
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
	if recs, err := store.ReadKey("msg:" + b.String()); err != nil || len(recs) != n {
		t.Fatalf("the store holds %d of b's message records (%v), want %d", len(recs), err, n)
	}
}

// A recorded message is held once, in its store page. The stream keeps an
// 8-byte record ref per arrival, and nothing else the recorder holds grows
// with the stream: the heap grows per arrival by the encoded record and the
// store's own bookkeeping for it, term by term below. Keeping the body as
// well (or a copy of the message beside the page) costs hundreds of bytes
// more, and even a 32-byte second copy breaks the limit.
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
	// The store record: kind, key id (one of the few the store has handed
	// out), seq, data length, then the message record: flags, the id's node,
	// local and seq, channel, code, body length, body (From is the sender; no
	// link). Seqs from 128 take two bytes; the first records are two bytes
	// shorter and still fit perPage to a page.
	recLen := 1 + 1 + 2 + 2 + 1 + (1 + 1 + 2) + 1 + 1 + 2 + bodyLen
	perPage := stablestore.PageSize / recLen
	record(1, 2) // the first page and the tap's per-process state
	before, pages := heap(), store.Pages()
	record(2, n+2)
	grown := float64(int64(heap())-int64(before)) / n
	if got := r.db[procB()].Arrivals.Len(); got != n+1 {
		t.Fatalf("stream holds %d arrivals, want %d", got, n+1)
	}
	if got, want := store.Pages()-pages, n/perPage; got < want || got > want+1 {
		t.Fatalf("the store took %d pages for %d records of %d B, want %d", got, n, recLen, want)
	}
	// What else an arrival costs. A sealed page is its records' bytes, laid
	// end to end in 64-KB arena slabs, and a page starts only where a whole
	// PageSize is left in its slab, so each slab ends in a tail no page
	// fits. Each page costs the store its slice header and its id in the
	// key's page list. The last slab is allocated whole however little of it
	// is filled.
	const slab = 64 << 10
	pageBytes := perPage * recLen
	pagesPerSlab := (slab-stablestore.PageSize)/pageBytes + 1
	terms := []struct {
		what  string
		bytes float64
	}{
		{"arrival entry", 8},
		{"page bookkeeping", float64(24+4) / float64(perPage)},
		{"slab tail", float64(slab-pagesPerSlab*pageBytes) / float64(pagesPerSlab*perPage)},
		{"last slab", float64(slab) / n},
	}
	limit := float64(recLen)
	for _, term := range terms {
		limit += term.bytes
		t.Logf("%-16s %5.1f B an arrival", term.what, term.bytes)
	}
	t.Logf("heap %.1f B per arrival; record %d B, limit %.1f B", grown, recLen, limit)
	if grown > limit {
		t.Errorf("heap grew %.1f B per arrival, %.1f B over the %d-B record and the store's bookkeeping: a second copy",
			grown, grown-limit, recLen)
	}
	runtime.KeepAlive(r)
}

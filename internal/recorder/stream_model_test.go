package recorder

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"publishing/internal/demos"
	"publishing/internal/frame"
	"publishing/internal/simtime"
	"publishing/internal/stablestore"
)

// The tap indexes its state by stream: a watermark per sender, a pending
// queue per destination, a chunked arrival log. What it replaced — a set of
// every message id ever recorded per stream, one pending map over all
// destinations scanned whole on every acknowledgement, a stream copied into
// a map per checkpoint — is kept here as the reference. Op streams (random
// ones, and whatever the fuzzer finds) drive the recorder and the reference
// together, and after every step each accept/reject decision, the inferred
// arrivals, every stream's replay order and every stream's next arrival
// number must agree.
//
// The generator keeps the transport's promise, which is what the watermark
// rests on: a receiver accepts one sender's messages in sequence order, and
// a sender retransmits only what it holds no acknowledgement for. The op
// streams therefore leave out the traffic on which the two legitimately
// differ (see EXPERIMENTS.md "Stream-indexed recorder state"):
//
//   - a retransmission of a message the tap never recorded, heard after a
//     later message of the same sender was recorded (its frame was missed
//     at the tap): the set accepted it, out of order; the watermark drops it;
//   - after a recorder restart, a retransmission of a message a checkpoint
//     had trimmed: rebuild gave the set only the retained ids, so it
//     recorded the message a second time; the watermark rejects it whenever
//     a later message of that sender is retained (senders' acknowledgements
//     are taken as delivered at a restart);
//   - an acknowledgement the tap missed for a message to a process whose
//     creation notice is still on its way, with a later message of that
//     sender buffered before the notice: buffering infers nothing, so the
//     earlier message is inferred only after the merge — the set then
//     recorded it behind the later one, the watermark drops and counts it;
//   - an acknowledgement whose receiver is not the destination the message
//     was addressed to, and one id pending towards two destinations: the
//     pending map was keyed by id alone; neither occurs on the wire.

// --- the reference ----------------------------------------------------------

type refStream struct {
	have       map[frame.MsgID]bool
	arrivals   []storedMsg // ID and ArrSeq
	advisories []advisory
	arrSeqNext uint64
	baseReads  uint64
	trimDebt   uint64
	dead       bool
}

type refPend struct {
	from, to frame.ProcID
	seenAt   simtime.Time
}

type refTap struct {
	db      map[frame.ProcID]*refStream
	pending map[frame.MsgID]refPend
	pre     map[frame.ProcID][]frame.MsgID

	// MessagesPending, ArrivalsRecorded, MissedArrivals as the recorder
	// counts them.
	pended, recorded, missed uint64
	// Coverage: pre-arrivals merged, checkpoints applied over advisories,
	// checkpoints that left a trim debt.
	merged, advCkpts, debts int
}

func newRefTap() *refTap {
	return &refTap{
		db:      make(map[frame.ProcID]*refStream),
		pending: make(map[frame.MsgID]refPend),
		pre:     make(map[frame.ProcID][]frame.MsgID),
	}
}

func (m *refTap) observe(id frame.MsgID, from, to frame.ProcID, now simtime.Time) {
	if e := m.db[to]; e != nil && (e.dead || e.have[id]) {
		return
	}
	if _, dup := m.pending[id]; dup {
		return
	}
	m.pending[id] = refPend{from: from, to: to, seenAt: now}
	m.pended++
}

func (m *refTap) record(e *refStream, id frame.MsgID) {
	e.arrivals = append(e.arrivals, storedMsg{ID: id, ArrSeq: e.arrSeqNext})
	e.arrSeqNext++
	e.have[id] = true
	m.recorded++
}

func (m *refTap) ack(id frame.MsgID, rcv frame.ProcID) {
	p, ok := m.pending[id]
	if !ok {
		return
	}
	delete(m.pending, id)
	e := m.db[rcv]
	if e == nil {
		if len(m.pre[rcv]) < 1024 {
			m.pre[rcv] = append(m.pre[rcv], id)
		}
		return
	}
	if e.dead || e.have[id] {
		return
	}
	var earlier []frame.MsgID
	for qid, q := range m.pending {
		if q.from == p.from && q.to == rcv && qid.Seq < id.Seq {
			earlier = append(earlier, qid)
		}
	}
	sort.Slice(earlier, func(i, j int) bool { return earlier[i].Seq < earlier[j].Seq })
	for _, qid := range earlier {
		delete(m.pending, qid)
		if e.have[qid] {
			continue
		}
		m.missed++
		m.record(e, qid)
	}
	m.record(e, id)
}

func (m *refTap) created(p frame.ProcID) {
	e := m.db[p]
	if e == nil {
		e = &refStream{have: make(map[frame.MsgID]bool)}
		m.db[p] = e
	}
	e.dead = false
	for _, id := range m.pre[p] {
		if !e.have[id] {
			m.record(e, id)
			m.merged++
		}
	}
	delete(m.pre, p)
}

func (m *refTap) destroyed(p frame.ProcID) {
	delete(m.pre, p)
	if e := m.db[p]; e != nil {
		e.dead = true
		e.arrivals, e.advisories = nil, nil
	}
}

func (m *refTap) readOrder(p frame.ProcID, read, head frame.MsgID) {
	if e := m.db[p]; e != nil && !e.dead {
		e.advisories = append(e.advisories, advisory{ReadID: read, HeadID: head})
	}
}

func (m *refTap) checkpoint(p frame.ProcID, readCount uint64, queued []frame.MsgID) {
	e := m.db[p]
	if e == nil || e.dead || readCount < e.baseReads {
		return
	}
	byID := make(map[frame.MsgID]storedMsg, len(e.arrivals))
	for _, sm := range e.arrivals {
		byID[sm.ID] = sm
	}
	var retained []storedMsg
	for _, id := range queued {
		if sm, ok := byID[id]; ok {
			retained = append(retained, sm)
			delete(byID, id)
		}
	}
	consumed := readCount - e.baseReads + e.trimDebt
	trimmed := uint64(0)
	for _, sm := range reconstructRef(e.arrivals, e.advisories) {
		if _, unqueued := byID[sm.ID]; !unqueued {
			continue
		}
		if trimmed < consumed {
			trimmed++
		} else {
			retained = append(retained, sm)
		}
	}
	if len(e.advisories) > 0 {
		m.advCkpts++
	}
	e.trimDebt = consumed - trimmed
	if e.trimDebt > 0 {
		m.debts++
	}
	e.arrivals, e.advisories, e.baseReads = retained, nil, readCount
}

// restart is Crash and rebuild: the pending map and the pre-registration
// buffers are volatile, and a rebuilt stream's set holds the ids of its
// retained messages only.
func (m *refTap) restart() {
	m.pending = make(map[frame.MsgID]refPend)
	m.pre = make(map[frame.ProcID][]frame.MsgID)
	for _, e := range m.db {
		e.trimDebt = 0
		e.have = make(map[frame.MsgID]bool)
		for _, sm := range e.arrivals {
			e.have[sm.ID] = true
		}
	}
}

// holds reports whether id is recorded in p's stream or buffered for it.
func (m *refTap) holds(p frame.ProcID, id frame.MsgID) bool {
	if e := m.db[p]; e != nil {
		return e.have[id]
	}
	return slices.Contains(m.pre[p], id)
}

func (m *refTap) sweep(cutoff simtime.Time) {
	for id, p := range m.pending {
		if p.seenAt < cutoff {
			delete(m.pending, id)
		}
	}
}

// --- the driver -------------------------------------------------------------

const (
	opSend = iota
	opBundle
	opRetransmitPending
	opAck
	opAckTapMissed
	opHeaderAck
	opRetransmitRecorded
	opRegister
	opRead
	opCheckpoint
	opDestroy
	opRestart
	opAdvance
	numStreamOps
)

var streamOpNames = [numStreamOps]string{"send", "bundle", "retransmit-pending", "ack", "ack-tap-missed",
	"header-ack", "retransmit-recorded", "register", "read", "checkpoint", "destroy", "restart", "advance"}

// streamOpTable spreads an op byte over the kinds: traffic is common,
// restarts and destructions rare. Committed fuzz seeds depend on it.
var streamOpTable = func() (table []byte) {
	for op, share := range [numStreamOps]int{opSend: 12, opBundle: 3, opRetransmitPending: 4, opAck: 14,
		opAckTapMissed: 5, opHeaderAck: 4, opRetransmitRecorded: 6, opRegister: 1, opRead: 8, opCheckpoint: 4,
		opDestroy: 1, opRestart: 1, opAdvance: 1} {
		for ; share > 0; share-- {
			table = append(table, byte(op))
		}
	}
	return table
}()

const streamProcs = 4

// streamDiff is a small world of processes exchanging guaranteed messages,
// shown to the recorder's tap and to the reference as the wire would show
// it.
type streamDiff struct {
	t     testing.TB
	r     *Recorder
	sched *simtime.Scheduler
	ref   *refTap

	procs      [streamProcs]frame.ProcID
	registered [streamProcs]bool
	dead       [streamProcs]bool
	sendSeq    [streamProcs]uint64
	// inflight[from][to] are sent and not yet accepted at the receiver,
	// oldest first; reack[from][to] are accepted and recorded, with the
	// sender still lacking its acknowledgement.
	inflight [streamProcs][streamProcs][]frame.MsgID
	reack    [streamProcs][streamProcs][]frame.MsgID
	// queue[p] are the messages p has accepted and not read; reads[p] counts
	// its reads.
	queue [streamProcs][]frame.MsgID
	reads [streamProcs]uint64

	ran [numStreamOps]int
}

func newStreamDiff(t testing.TB) *streamDiff {
	r, sched := newBenchOn(t, stablestore.New())
	// As a cluster configures it: the recorder's own control traffic, which
	// its tap hears after a restart, is no process's stream.
	r.cfg.NoticeProcs = []frame.ProcID{r.cfg.Proc}
	r.Start() // the flush tick runs the pending sweep
	d := &streamDiff{t: t, r: r, sched: sched, ref: newRefTap()}
	for i := range d.procs {
		d.procs[i] = frame.ProcID{Node: frame.NodeID(i % 2), Local: uint32(3 + i)}
	}
	// Half the processes are known from the start; the others' creation
	// notices arrive after their first traffic.
	for i := 0; i < streamProcs/2; i++ {
		d.register(i)
	}
	return d
}

func (d *streamDiff) register(i int) {
	d.registered[i] = true
	register(d.r, d.procs[i], fmt.Sprintf("p%d", i))
	d.ref.created(d.procs[i])
}

func (d *streamDiff) newMsg(from, to int) *frame.Frame {
	d.sendSeq[from]++
	seq := d.sendSeq[from]
	f := &frame.Frame{
		Type: frame.Guaranteed, Src: d.procs[from].Node, Dst: d.procs[to].Node,
		ID: frame.MsgID{Sender: d.procs[from], Seq: seq}, From: d.procs[from], To: d.procs[to],
		Channel: uint16(seq % 3), Code: uint32(seq), Body: []byte{byte(seq), byte(from)},
	}
	if seq%5 == 0 {
		f.PassedLink = &frame.Link{To: d.procs[from], Channel: 1, Code: uint32(seq)}
	}
	d.inflight[from][to] = append(d.inflight[from][to], f.ID)
	return f
}

// retransmission rebuilds the frame of a message sent before.
func (d *streamDiff) retransmission(id frame.MsgID, to int) *frame.Frame {
	return &frame.Frame{
		Type: frame.Guaranteed, Src: id.Sender.Node, Dst: d.procs[to].Node,
		ID: id, From: id.Sender, To: d.procs[to],
		Channel: uint16(id.Seq % 3), Code: uint32(id.Seq), Body: []byte{byte(id.Seq), 0},
	}
}

// hear shows the tap one frame and the reference what it carries: a
// guaranteed message (or a bundle's), then any acknowledgement records.
func (d *streamDiff) hear(f *frame.Frame, msgs ...*frame.Frame) {
	d.t.Helper()
	if !d.r.Observe(f) {
		d.t.Fatalf("tap refused %v frame %v", f.Type, f.ID)
	}
	now := d.sched.Now()
	for _, m := range msgs {
		d.ref.observe(m.ID, m.From, m.To, now)
	}
	for _, a := range f.AckRecs {
		d.ref.ack(a.ID, a.Rcv)
	}
	if f.Type == frame.Ack && len(f.AckRecs) == 0 {
		d.ref.ack(f.ID, f.From)
	}
}

// accept moves the pair's oldest in-flight message into the receiver's
// queue and returns it.
func (d *streamDiff) accept(from, to int) (frame.MsgID, bool) {
	fl := d.inflight[from][to]
	if len(fl) == 0 || d.dead[to] {
		return frame.MsgID{}, false
	}
	d.inflight[from][to] = fl[1:]
	d.queue[to] = append(d.queue[to], fl[0])
	return fl[0], true
}

func pairOf(arg byte) (from, to int) {
	from = int(arg) % streamProcs
	to = int(arg/streamProcs) % (streamProcs - 1)
	if to >= from {
		to++
	}
	return from, to
}

// busyPair returns the first pair at or after (from, to), in a fixed
// rotation, that has something in lists — so an op that needs a message in
// flight usually finds one.
func busyPair(lists *[streamProcs][streamProcs][]frame.MsgID, from, to int) (int, int) {
	for k := 0; k < streamProcs*streamProcs; k++ {
		f, t := (from+(to+k)/streamProcs)%streamProcs, (to+k)%streamProcs
		if len(lists[f][t]) > 0 {
			return f, t
		}
	}
	return from, to
}

// step applies one op: kind picks the op through streamOpTable, arg its
// operands. An op whose precondition does not hold is a no-op and is not
// counted.
func (d *streamDiff) step(kind, arg byte) {
	d.t.Helper()
	op := streamOpTable[int(kind)%len(streamOpTable)]
	from, to := pairOf(arg)
	ran := true
	switch op {
	case opSend:
		if ran = !d.dead[from]; ran {
			f := d.newMsg(from, to)
			d.hear(f, f)
		}

	case opBundle:
		// Two or three messages of one sender coalesced into one frame.
		if ran = !d.dead[from]; !ran {
			break
		}
		body := frame.BeginBundle(nil)
		var msgs []*frame.Frame
		for k := 0; k < 2+int(arg>>7); k++ {
			dst := (to + 2*k) % streamProcs
			if dst == from {
				dst = (dst + 1) % streamProcs
			}
			m := d.newMsg(from, dst)
			var rec frame.BundleRec
			rec.RecOf(m)
			body = frame.AppendBundleRec(body, &rec)
			msgs = append(msgs, m)
		}
		frame.FinishBundle(body, 0, len(msgs))
		d.hear(&frame.Frame{Type: frame.Bundle, Src: d.procs[from].Node, Dst: d.procs[to].Node, Body: body}, msgs...)

	case opRetransmitPending:
		from, to = busyPair(&d.inflight, from, to)
		fl := d.inflight[from][to]
		if ran = len(fl) > 0; ran {
			f := d.retransmission(fl[int(arg>>5)%len(fl)], to)
			d.hear(f, f)
		}

	case opAck, opHeaderAck:
		from, to = busyPair(&d.inflight, from, to)
		id, ok := d.accept(from, to)
		if ran = ok; !ran {
			break
		}
		switch {
		case op == opHeaderAck:
			d.hear(&frame.Frame{Type: frame.Ack, Src: d.procs[to].Node, Dst: d.procs[from].Node,
				ID: id, From: d.procs[to], To: d.procs[from]})
		case arg&0x80 != 0 && !d.dead[from]:
			// Piggybacked on the receiver's next message to the sender.
			f := d.newMsg(to, from)
			f.AckRecs = []frame.AckRec{{ID: id, Rcv: d.procs[to]}}
			d.hear(f, f)
		default:
			// A cumulative Ack frame; sometimes with a second record, for
			// another sender's message the same process accepted.
			f := &frame.Frame{Type: frame.Ack, Src: d.procs[to].Node, Dst: d.procs[from].Node,
				AckRecs: []frame.AckRec{{ID: id, Rcv: d.procs[to]}}}
			if other := (from + 1 + int(arg>>4)%(streamProcs-1)) % streamProcs; other != to && other != from {
				if id2, ok := d.accept(other, to); ok {
					f.AckRecs = append(f.AckRecs, frame.AckRec{ID: id2, Rcv: d.procs[to]})
				}
			}
			d.hear(f)
		}
		// The sender misses the acknowledgement and will retransmit — kept
		// only if the tap did record the message (see the file comment).
		if arg&0x40 != 0 && d.ref.holds(d.procs[to], id) {
			d.reack[from][to] = append(d.reack[from][to], id)
		}

	case opAckTapMissed:
		// Accepted and acknowledged to the sender, with the tap hearing
		// nothing: a later acknowledgement on the pair has to infer it.
		// Only towards a registered process: see the file comment.
		from, to = busyPair(&d.inflight, from, to)
		if ran = d.registered[to]; ran {
			_, ran = d.accept(from, to)
		}

	case opRetransmitRecorded:
		from, to = busyPair(&d.reack, from, to)
		ra := d.reack[from][to]
		if ran = len(ra) > 0; ran {
			k := int(arg>>5) % len(ra)
			id := ra[k]
			f := d.retransmission(id, to)
			d.hear(f, f)
			// The receiver drops the duplicate and acknowledges again.
			d.hear(&frame.Frame{Type: frame.Ack, Src: d.procs[to].Node, Dst: d.procs[from].Node,
				AckRecs: []frame.AckRec{{ID: id, Rcv: d.procs[to]}}})
			if arg&0x10 != 0 {
				d.reack[from][to] = slices.Delete(ra, k, k+1)
			}
		}

	case opRegister:
		if ran = !d.registered[from]; ran {
			d.register(from)
		}

	case opRead:
		for k := 0; k < streamProcs && len(d.queue[from]) == 0; k++ {
			from = (from + 1) % streamProcs
		}
		q := d.queue[from]
		if ran = len(q) > 0 && !d.dead[from]; ran {
			k := 0
			if arg&0x40 != 0 {
				k = int(arg>>3) % len(q) // a selective read, maybe past the head
			}
			if k > 0 {
				d.r.handleNotice(&demos.Notice{Kind: demos.NoticeReadOrder, Proc: d.procs[from], ReadID: q[k], HeadID: q[0]})
				d.ref.readOrder(d.procs[from], q[k], q[0])
			}
			d.queue[from] = slices.Delete(q, k, k+1)
			d.reads[from]++
		}

	case opCheckpoint:
		if ran = d.registered[from] && !d.dead[from]; ran {
			queued := slices.Clone(d.queue[from])
			d.r.handleNotice(&demos.Notice{Kind: demos.NoticeCheckpoint, Proc: d.procs[from],
				Checkpoint: []byte{arg}, SendSeq: d.sendSeq[from], ReadCount: d.reads[from], StateKB: 1, Queued: queued})
			d.ref.checkpoint(d.procs[from], d.reads[from], queued)
		}

	case opDestroy:
		alive := 0
		for i := range d.dead {
			if !d.dead[i] {
				alive++
			}
		}
		if ran = d.registered[from] && !d.dead[from] && alive > streamProcs-2; ran {
			d.dead[from] = true
			d.queue[from] = nil
			d.r.handleNotice(&demos.Notice{Kind: demos.NoticeDestroyed, Proc: d.procs[from]})
			d.ref.destroyed(d.procs[from])
		}

	case opRestart:
		d.r.Crash()
		if err := d.r.Restart(); err != nil {
			d.t.Fatalf("restart: %v", err)
		}
		d.ref.restart()
		for i := range d.reack {
			for j := range d.reack[i] {
				d.reack[i][j] = nil // see the file comment
			}
		}

	case opAdvance:
		// Whole seconds only: the flush tick then lands on the instant the
		// clock stops at, and the sweep's cutoff is the same on both sides.
		d.sched.Run(d.sched.Now() + simtime.Time(1+int(arg)%90)*simtime.Second)
		d.ref.sweep(d.sched.Now() - simtime.Minute)
	}
	if ran {
		d.ran[op]++
	}
	d.compare(streamOpNames[op])
}

// compare checks everything the two sides expose after an op.
func (d *streamDiff) compare(op string) {
	d.t.Helper()
	st := d.r.Stats()
	if st.MessagesPending != d.ref.pended || st.ArrivalsRecorded != d.ref.recorded || st.MissedArrivals != d.ref.missed {
		d.t.Fatalf("after %s: tap accepted %d, recorded %d, inferred %d; reference %d, %d, %d", op,
			st.MessagesPending, st.ArrivalsRecorded, st.MissedArrivals, d.ref.pended, d.ref.recorded, d.ref.missed)
	}
	if st.BelowWatermark != 0 {
		d.t.Fatalf("after %s: %d messages dropped below a watermark", op, st.BelowWatermark)
	}
	pending := 0
	for _, q := range d.r.pendQueues {
		pending += len(q.msgs)
	}
	if pending != len(d.ref.pending) {
		d.t.Fatalf("after %s: %d messages pending, reference %d", op, pending, len(d.ref.pending))
	}
	for i, p := range d.procs {
		e, ref := d.r.db[p], d.ref.db[p]
		if (e == nil) != (ref == nil) {
			d.t.Fatalf("after %s: p%d known=%v, reference %v", op, i, e != nil, ref != nil)
		}
		if e == nil {
			continue
		}
		if e.Dead != ref.dead {
			d.t.Fatalf("after %s: p%d dead=%v, reference %v", op, i, e.Dead, ref.dead)
		}
		if e.Dead {
			continue
		}
		if e.ArrSeqNext != ref.arrSeqNext {
			d.t.Fatalf("after %s: p%d ArrSeqNext %d, reference %d", op, i, e.ArrSeqNext, ref.arrSeqNext)
		}
		want := reconstructRef(ref.arrivals, ref.advisories)
		got := d.r.StreamSummary(p)
		if len(got) != len(want) {
			d.t.Fatalf("after %s: p%d stream holds %d messages, reference %d", op, i, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k].ID {
				d.t.Fatalf("after %s: p%d stream position %d is %v, reference %v", op, i, k, got[k], want[k].ID)
			}
		}
		if log := &e.Arrivals; log.len() > 0 && log.at(log.len()-1).ArrSeq >= e.ArrSeqNext {
			d.t.Fatalf("after %s: p%d holds arrival seq %d at or past ArrSeqNext %d", op, i, log.at(log.len()-1).ArrSeq, e.ArrSeqNext)
		}
	}
}

// Random op streams against the reference, in episodes short enough that
// destructions and late registrations keep happening. The floors keep the
// generator honest: every op kind ran, and the paths the replacement changed
// — inference, the pre-registration merge, trims over advisories, trim
// debts, duplicates refused — were all reached. The subtest is named for the
// store engine, Paged.
func TestStreamStateMatchesPerMessageModel(t *testing.T) {
	t.Run("paged", streamStateMatchesPerMessageModel)
}

func streamStateMatchesPerMessageModel(t *testing.T) {
	rng := simtime.NewRand(23)
	var ran [numStreamOps]int
	var inferred, merged, advCkpts, debts, refused uint64
	for episode := 0; episode < 24; episode++ {
		d := newStreamDiff(t)
		for i := 0; i < 800; i++ {
			before := d.ref.pended
			kind := byte(rng.Intn(256))
			d.step(kind, byte(rng.Intn(256)))
			switch streamOpTable[int(kind)%len(streamOpTable)] {
			case opRetransmitPending, opRetransmitRecorded:
				if d.ref.pended == before {
					refused++
				}
			}
		}
		for op := range ran {
			ran[op] += d.ran[op]
		}
		inferred += d.ref.missed
		merged += uint64(d.ref.merged)
		advCkpts += uint64(d.ref.advCkpts)
		debts += uint64(d.ref.debts)
	}
	t.Logf("ops %v; %d inferred, %d merged, %d trims over advisories, %d trim debts, %d retransmissions refused",
		ran, inferred, merged, advCkpts, debts, refused)
	floors := [numStreamOps]int{opSend: 1500, opBundle: 350, opRetransmitPending: 700, opAck: 900,
		opAckTapMissed: 200, opHeaderAck: 250, opRetransmitRecorded: 300, opRegister: 30, opRead: 1200,
		opCheckpoint: 400, opDestroy: 30, opRestart: 150, opAdvance: 150}
	for op, floor := range floors {
		if ran[op] < floor {
			t.Errorf("%s ran %d times, floor %d", streamOpNames[op], ran[op], floor)
		}
	}
	if inferred < 40 || merged < 40 || advCkpts < 100 || debts < 200 || refused < 1000 {
		t.Errorf("sequence too tame: %d inferred, %d merged, %d trims over advisories, %d trim debts, %d refused",
			inferred, merged, advCkpts, debts, refused)
	}
}

// FuzzRecorderStream runs the same differential check over arbitrary op
// bytes (a kind and an operand byte per op).
func FuzzRecorderStream(f *testing.F) {
	f.Add([]byte{})
	// testdata/fuzz/FuzzRecorderStream holds the seeds: two sends on a pair
	// with the first ack missed at the tap and inferred from the second;
	// traffic to a process registered afterwards; a recorded message
	// retransmitted, then a checkpoint, a restart and more traffic.
	f.Fuzz(func(t *testing.T, ops []byte) {
		// Every step compares every stream, so a run costs the square of its
		// length; longer inputs reach nothing a thousand ops do not.
		ops = ops[:min(len(ops), 2048)]
		d := newStreamDiff(t)
		for i := 0; i+1 < len(ops); i += 2 {
			d.step(ops[i], ops[i+1])
		}
	})
}

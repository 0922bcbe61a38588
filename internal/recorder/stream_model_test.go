package recorder

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"publishing/internal/frame"
	"publishing/internal/recorder/tap"
	"publishing/internal/simtime"
)

// The tap core indexes its state by stream: a watermark per sender, a
// pending queue per destination, a chunked arrival log. What it replaced —
// a set of every message id ever recorded per stream, one pending map over
// all destinations scanned whole on every acknowledgement, a stream copied
// into a map per checkpoint — is kept here as the reference. Both trim a
// stream by its checkpoint's acceptance marks and fence it with them. Op
// streams (random ones, and whatever the fuzzer finds) drive the core, with
// no recorder, scheduler or store around it, and the reference together,
// and after every step each accept/reject decision, the inferred arrivals,
// every stream's replay order and every stream's next arrival number must
// agree.
//
// The generator keeps the transport's promise, which is what the watermark
// rests on: a receiver accepts one sender's messages in sequence order, and
// a sender retransmits only what it holds no acknowledgement for. The
// traffic on which the two legitimately differ is
// TestTapCoreExcludedTraffic's named cases instead, each pinning the
// core's decision:
//
//   - missed-frame-retransmitted: a retransmission of a message the tap
//     never recorded, heard after a later message of the same sender was
//     recorded;
//   - recorded-then-restart and pre-registration-lost-at-restart: after a
//     recorder restart, a retransmission of a message recorded before it,
//     and a buffered pre-registration arrival, which is lost with the crash
//     (so the generator takes senders' acknowledgements as delivered at a
//     restart);
//   - ack-names-another-receiver and one-id-two-destinations: an
//     acknowledgement whose receiver is not the destination the message was
//     addressed to, and one id pending towards two destinations. The
//     pending map was keyed by id alone; neither occurs on the wire.

// --- the reference ----------------------------------------------------------

type refStream struct {
	have       map[frame.MsgID]bool
	arrivals   []seqRec // ID and ArrSeq
	advisories []tap.Advisory
	arrSeqNext uint64
	baseReads  uint64
	ckMarks    frame.Marks
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
	// checkpoints not applied for a queued message never recorded.
	merged, advCkpts, unapplied int
}

func newRefTap() *refTap {
	return &refTap{
		db:      make(map[frame.ProcID]*refStream),
		pending: make(map[frame.MsgID]refPend),
		pre:     make(map[frame.ProcID][]frame.MsgID),
	}
}

func (m *refTap) observe(id frame.MsgID, from, to frame.ProcID, now simtime.Time) {
	if e := m.db[to]; e != nil && (e.dead || e.have[id] || e.ckMarks.Covers(id)) {
		return
	}
	if _, dup := m.pending[id]; dup {
		return
	}
	m.pending[id] = refPend{from: from, to: to, seenAt: now}
	m.pended++
}

func (m *refTap) record(e *refStream, id frame.MsgID) {
	e.arrivals = append(e.arrivals, seqRec{frame.BundleRec{ID: id}, e.arrSeqNext})
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
	if e != nil && (e.dead || e.fenced(id)) {
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
		if m.accept(e, rcv, qid) {
			m.missed++
		}
	}
	m.accept(e, rcv, id)
}

// accept records id into e's stream, or buffers it while rcv is not
// registered, and reports whether it did.
func (m *refTap) accept(e *refStream, rcv frame.ProcID, id frame.MsgID) bool {
	switch {
	case e != nil && !e.fenced(id):
		m.record(e, id)
	case e == nil && len(m.pre[rcv]) < 1024 && !slices.Contains(m.pre[rcv], id):
		m.pre[rcv] = append(m.pre[rcv], id)
	default:
		return false
	}
	return true
}

func (m *refTap) created(p frame.ProcID) {
	e := m.db[p]
	if e == nil {
		e = &refStream{have: make(map[frame.MsgID]bool)}
		m.db[p] = e
	}
	e.dead = false
	for _, id := range m.pre[p] {
		if !e.fenced(id) {
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
		e.advisories = append(e.advisories, tap.Advisory{ReadID: read, HeadID: head})
	}
}

// fenced reports whether e's stream refuses a record of id: it holds it, or
// its checkpoint took it.
func (e *refStream) fenced(id frame.MsgID) bool { return e.have[id] || e.ckMarks.Covers(id) }

func (m *refTap) checkpoint(p frame.ProcID, readCount uint64, queued []frame.MsgID, marks frame.Marks) {
	e := m.db[p]
	if e == nil || e.dead || readCount < e.baseReads {
		return
	}
	byID := make(map[frame.MsgID]seqRec, len(e.arrivals))
	for _, sm := range e.arrivals {
		byID[sm.ID] = sm
	}
	var retained []seqRec
	for _, id := range queued {
		sm, ok := byID[id]
		if !ok {
			m.unapplied++
			return
		}
		retained = append(retained, sm)
		delete(byID, id)
	}
	for _, sm := range reconstructRef(e.arrivals, e.advisories) {
		if _, unqueued := byID[sm.ID]; unqueued && !marks.Covers(sm.ID) {
			retained = append(retained, sm)
		}
	}
	if len(e.advisories) > 0 {
		m.advCkpts++
	}
	e.arrivals, e.advisories, e.baseReads, e.ckMarks = retained, nil, readCount, marks
}

// restart is Crash and rebuild: the pending map and the pre-registration
// buffers are volatile, and a rebuilt stream's set holds the ids of its
// retained messages only; its checkpoint, and so its marks, are stored.
func (m *refTap) restart() {
	m.pending = make(map[frame.MsgID]refPend)
	m.pre = make(map[frame.ProcID][]frame.MsgID)
	for _, e := range m.db {
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

// --- the core's world -------------------------------------------------------

// coreFx is the recording fake of tap.Effects: it numbers the records the
// core has persisted, keeping each one's id and arrival seq, resolves ids
// from refs as the recorder does from its store, and counts the other
// effects.
type coreFx struct {
	records              []coreRecord
	lastSents, published int
}

type coreRecord struct {
	id  frame.MsgID
	seq uint64
}

func (fx *coreFx) Record(_ *tap.Stream, m *frame.BundleRec, arrSeq uint64) tap.Ref {
	fx.records = append(fx.records, coreRecord{id: m.ID, seq: arrSeq})
	return tap.Ref{Off: uint32(len(fx.records))}
}

// ArrivalID reads the record at ref, which must be arrival arrSeq's, as the
// store's Lookup checks.
func (fx *coreFx) ArrivalID(_ *tap.Stream, arrSeq uint64, ref tap.Ref) frame.MsgID {
	rec := fx.records[ref.Off-1]
	if rec.seq != arrSeq {
		panic(fmt.Sprintf("record %d holds arrival seq %d, not %d", ref.Off, rec.seq, arrSeq))
	}
	return rec.id
}

func (fx *coreFx) LastSent(*tap.Stream) { fx.lastSents++ }

func (fx *coreFx) Published(*tap.Stream, *tap.Msg, uint64, tap.Via) { fx.published++ }

// tapWorld is a tap core and the database installed in it, driven the way
// the recorder drives it, with no recorder, scheduler or store.
type tapWorld struct {
	core    *tap.Core
	fx      coreFx
	counts  tap.Counts
	streams map[frame.ProcID]*tap.Stream
	now     simtime.Time
}

func newTapWorld() *tapWorld {
	self := frame.ProcID{Node: 5, Local: 1}
	w := &tapWorld{streams: make(map[frame.ProcID]*tap.Stream)}
	w.core = tap.New(self, []frame.ProcID{self}, func(frame.ProcID) bool { return true }, &w.fx, &w.counts)
	return w
}

// hear shows the core one guaranteed message.
func (w *tapWorld) hear(f *frame.Frame) {
	var m frame.BundleRec
	m.RecOf(f)
	w.core.Heard(&m, w.core.Of(m.From), w.core.Of(m.To), w.now)
}

// ack shows the core one acknowledgement record.
func (w *tapWorld) ack(id frame.MsgID, rcv frame.ProcID) { w.core.Acked(id, w.core.Of(rcv)) }

// register is p's creation notice.
func (w *tapWorld) register(p frame.ProcID) {
	if w.streams[p] == nil {
		w.streams[p] = &tap.Stream{Proc: p}
		w.core.Install(w.streams[p])
	}
	w.core.Created(w.core.Of(p))
}

func (w *tapWorld) destroy(p frame.ProcID) {
	w.core.DropPre(w.core.Of(p))
	if s := w.streams[p]; s != nil {
		s.Kill()
	}
}

func (w *tapWorld) readOrder(p frame.ProcID, read, head frame.MsgID) {
	if s := w.streams[p]; s != nil && !s.Dead {
		w.core.ReadOrder(s, read, head)
	}
}

func (w *tapWorld) checkpoint(p frame.ProcID, readCount uint64, queued []frame.MsgID, marks frame.Marks) {
	if s := w.streams[p]; s != nil && !s.Dead && !s.Stale(readCount) {
		w.core.Checkpoint(s, readCount, queued, marks)
	}
}

// restart is a recorder crash and rebuild: the core forgets its records, and
// every stream comes back as rebuild reads it from the store — its retained
// arrivals in order, their senders' recorded marks, its checkpoint.
func (w *tapWorld) restart() {
	w.core.Reset()
	for p, s := range w.streams {
		n := &tap.Stream{Proc: p, LastSent: s.LastSent, Dead: s.Dead}
		if !s.Dead {
			n.CkMarks, n.CkReadCount, n.ArrSeqNext = s.CkMarks, s.CkReadCount, s.ArrSeqNext
			n.Advisories, n.AdvSeqNext = s.Advisories, s.AdvSeqNext
			for i := 0; i < s.Arrivals.Len(); i++ {
				seq, ref := s.Arrivals.At(i)
				n.Restore(w.fx.ArrivalID(s, seq, ref), seq, ref)
			}
		}
		w.streams[p] = n
		w.core.Install(n)
	}
}

// pending counts the messages waiting for an acknowledgement towards procs.
func (w *tapWorld) pending(procs ...frame.ProcID) int {
	n := 0
	for _, p := range procs {
		n += len(w.core.Of(p).Queue())
	}
	return n
}

// summary is p's stream in read order, nil if p has none.
func (w *tapWorld) summary(p frame.ProcID) []frame.MsgID {
	if s := w.streams[p]; s != nil {
		return w.core.Summary(s)
	}
	return nil
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
// shown to the tap core and to the reference as the wire would show it.
type streamDiff struct {
	t   testing.TB
	w   *tapWorld
	ref *refTap

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
	// its reads, and taken[p] are its acceptance marks.
	queue [streamProcs][]frame.MsgID
	reads [streamProcs]uint64
	taken [streamProcs]frame.Marks

	ran [numStreamOps]int
	// seqBreaks counts checkpoints that left a stream's arrival seqs
	// non-consecutive, so its log holds more than one seq run.
	seqBreaks int
}

func consecutive(seqs []uint64) bool {
	for k := 1; k < len(seqs); k++ {
		if seqs[k] != seqs[k-1]+1 {
			return false
		}
	}
	return true
}

func newStreamDiff(t testing.TB) *streamDiff {
	d := &streamDiff{t: t, w: newTapWorld(), ref: newRefTap()}
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
	d.w.register(d.procs[i])
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

// hear shows the core and the reference what one frame carries: its
// guaranteed messages (msgs), then its acknowledgement records.
func (d *streamDiff) hear(f *frame.Frame, msgs ...*frame.Frame) {
	for _, m := range msgs {
		d.w.hear(m)
		d.ref.observe(m.ID, m.From, m.To, d.w.now)
	}
	acks := f.AckRecs
	if f.Type == frame.Ack && len(acks) == 0 {
		acks = []frame.AckRec{{ID: f.ID, Rcv: f.From}}
	}
	for _, a := range acks {
		d.w.ack(a.ID, a.Rcv)
		d.ref.ack(a.ID, a.Rcv)
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
	d.taken[to].Note(fl[0])
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
		var msgs []*frame.Frame
		for k := 0; k < 2+int(arg>>7); k++ {
			dst := (to + 2*k) % streamProcs
			if dst == from {
				dst = (dst + 1) % streamProcs
			}
			msgs = append(msgs, d.newMsg(from, dst))
		}
		d.hear(&frame.Frame{Type: frame.Bundle}, msgs...)

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
		from, to = busyPair(&d.inflight, from, to)
		_, ran = d.accept(from, to)

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
				d.w.readOrder(d.procs[from], q[k], q[0])
				d.ref.readOrder(d.procs[from], q[k], q[0])
			}
			d.queue[from] = slices.Delete(q, k, k+1)
			d.reads[from]++
		}

	case opCheckpoint:
		if ran = d.registered[from] && !d.dead[from]; ran {
			queued := slices.Clone(d.queue[from])
			marks := slices.Clone(d.taken[from])
			d.w.checkpoint(d.procs[from], d.reads[from], queued, marks)
			d.ref.checkpoint(d.procs[from], d.reads[from], queued, marks)
			if s := d.w.streams[d.procs[from]]; s != nil && !consecutive(s.Arrivals.Seqs()) {
				d.seqBreaks++
			}
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
			d.w.destroy(d.procs[from])
			d.ref.destroyed(d.procs[from])
		}

	case opRestart:
		d.w.restart()
		d.ref.restart()
		for i := range d.reack {
			for j := range d.reack[i] {
				d.reack[i][j] = nil // see the file comment
			}
		}

	case opAdvance:
		// Whole seconds, as the recorder's flush tick sweeps.
		d.w.now += simtime.Time(1+int(arg)%90) * simtime.Second
		d.w.core.Sweep(d.w.now - simtime.Minute)
		d.ref.sweep(d.w.now - simtime.Minute)
	}
	if ran {
		d.ran[op]++
	}
	d.compare(streamOpNames[op])
}

// compare checks everything the two sides expose after an op.
func (d *streamDiff) compare(op string) {
	d.t.Helper()
	st := &d.w.counts
	if st.MessagesPending != d.ref.pended || st.ArrivalsRecorded != d.ref.recorded || st.MissedArrivals != d.ref.missed {
		d.t.Fatalf("after %s: tap accepted %d, recorded %d, inferred %d; reference %d, %d, %d", op,
			st.MessagesPending, st.ArrivalsRecorded, st.MissedArrivals, d.ref.pended, d.ref.recorded, d.ref.missed)
	}
	if st.BelowWatermark != 0 {
		d.t.Fatalf("after %s: %d messages dropped below a watermark", op, st.BelowWatermark)
	}
	if st.ArrivalsRecorded != uint64(d.w.fx.published) {
		d.t.Fatalf("after %s: %d arrivals recorded, %d published", op, st.ArrivalsRecorded, d.w.fx.published)
	}
	if pending := d.w.pending(d.procs[:]...); pending != len(d.ref.pending) {
		d.t.Fatalf("after %s: %d messages pending, reference %d", op, pending, len(d.ref.pending))
	}
	for i, p := range d.procs {
		e, ref := d.w.streams[p], d.ref.db[p]
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
		got := d.w.core.Summary(e)
		if len(got) != len(want) {
			d.t.Fatalf("after %s: p%d stream holds %d messages, reference %d", op, i, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k].ID {
				d.t.Fatalf("after %s: p%d stream position %d is %v, reference %v", op, i, k, got[k], want[k].ID)
			}
		}
		// The log in log order, its seqs from their runs and its ids from
		// their records.
		for k, sm := range ref.arrivals {
			seq, r := e.Arrivals.At(k)
			if id := d.w.fx.ArrivalID(e, seq, r); seq != sm.ArrSeq || id != sm.ID {
				d.t.Fatalf("after %s: p%d log position %d holds %v as arrival %d, reference %v as %d",
					op, i, k, id, seq, sm.ID, sm.ArrSeq)
			}
		}
	}
}

// Random op streams against the reference, in episodes short enough that
// destructions and late registrations keep happening. The floors keep the
// generator honest: every op kind ran, and the paths the replacement changed
// — inference, the pre-registration merge, trims over advisories,
// checkpoints left unapplied, duplicates refused, checkpoints that leave a
// log more than one seq run — were all reached. The subtest is named for
// the store engine, Paged.
func TestStreamStateMatchesPerMessageModel(t *testing.T) {
	t.Run("paged", streamStateMatchesPerMessageModel)
}

func streamStateMatchesPerMessageModel(t *testing.T) {
	rng := simtime.NewRand(23)
	var ran [numStreamOps]int
	var inferred, merged, advCkpts, unapplied, refused, seqBreaks uint64
	for episode := 0; episode < 40; episode++ {
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
		unapplied += uint64(d.ref.unapplied)
		seqBreaks += uint64(d.seqBreaks)
	}
	t.Logf("ops %v; %d inferred, %d merged, %d trims over advisories, %d checkpoints unapplied, %d retransmissions refused, %d checkpoints leaving non-consecutive seqs",
		ran, inferred, merged, advCkpts, unapplied, refused, seqBreaks)
	floors := [numStreamOps]int{opSend: 1500, opBundle: 350, opRetransmitPending: 700, opAck: 900,
		opAckTapMissed: 200, opHeaderAck: 250, opRetransmitRecorded: 300, opRegister: 30, opRead: 1200,
		opCheckpoint: 400, opDestroy: 30, opRestart: 150, opAdvance: 150}
	for op, floor := range floors {
		if ran[op] < floor {
			t.Errorf("%s ran %d times, floor %d", streamOpNames[op], ran[op], floor)
		}
	}
	if inferred < 40 || merged < 40 || advCkpts < 100 || unapplied < 100 || refused < 1000 || seqBreaks < 50 {
		t.Errorf("sequence too tame: %d inferred, %d merged, %d trims over advisories, %d checkpoints unapplied, %d refused, %d leaving non-consecutive seqs",
			inferred, merged, advCkpts, unapplied, refused, seqBreaks)
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

// The traffic the op streams leave out, each as a named case against the
// core with the decision it makes today. The per-message reference decides
// differently on each; where the core's decision is the known hole, the case
// says so: ROADMAP item 16's pull repair is what closes it.
func TestTapCoreExcludedTraffic(t *testing.T) {
	a, b, c := procA(), procB(), frame.ProcID{Node: 1, Local: 4}
	msg := func(seq uint64, to frame.ProcID) *frame.Frame {
		return &frame.Frame{Type: frame.Guaranteed, ID: frame.MsgID{Sender: a, Seq: seq}, From: a, To: to}
	}
	id := func(seq uint64) frame.MsgID { return frame.MsgID{Sender: a, Seq: seq} }
	for _, tc := range []struct {
		name    string
		hole    string // the ROADMAP item that closes a known hole the case pins
		run     func(w *tapWorld)
		streams map[frame.ProcID][]frame.MsgID
		// pended counts the messages the tap accepted into a queue, and
		// pending those still there.
		pended, pending int
	}{{
		// b took #1 and #2; the tap missed #1's frame and ack, and the
		// sender, lacking #1's ack, retransmits it after #2 was recorded.
		// The watermark refuses it, so #1 never reaches b's stream: the
		// hole item 16 closes. The reference took it, out of order.
		name: "missed-frame-retransmitted",
		hole: "item 16",
		run: func(w *tapWorld) {
			w.register(b)
			w.hear(msg(2, b))
			w.ack(id(2), b)
			w.hear(msg(1, b))
			w.ack(id(1), b)
		},
		streams: map[frame.ProcID][]frame.MsgID{b: {id(2)}},
		pended:  1,
	}, {
		// A message recorded before a recorder restart stays fenced after
		// it: rebuild raises its sender's mark again.
		name: "recorded-then-restart",
		run: func(w *tapWorld) {
			w.register(b)
			w.hear(msg(1, b))
			w.ack(id(1), b)
			w.restart()
			w.hear(msg(1, b))
			w.ack(id(1), b)
		},
		streams: map[frame.ProcID][]frame.MsgID{b: {id(1)}},
		pended:  1,
	}, {
		// An arrival buffered for an unregistered process is volatile: a
		// restart loses it, and the sender, holding its ack, never resends
		// it. The hole item 16 closes.
		name: "pre-registration-lost-at-restart",
		hole: "item 16",
		run: func(w *tapWorld) {
			w.hear(msg(1, b))
			w.ack(id(1), b)
			w.restart()
			w.register(b)
		},
		streams: map[frame.ProcID][]frame.MsgID{b: {}},
		pended:  1,
	}, {
		// An ack consults its receiver's queue only, so one naming another
		// receiver leaves the message pending for its destination. The
		// reference, keyed by id, recorded it into c's stream.
		name: "ack-names-another-receiver",
		run: func(w *tapWorld) {
			w.register(b)
			w.register(c)
			w.hear(msg(1, b))
			w.ack(id(1), c)
		},
		streams: map[frame.ProcID][]frame.MsgID{b: {}, c: {}},
		pended:  1, pending: 1,
	}, {
		// One id pending towards two destinations waits in both queues and
		// is recorded into each stream its destination acknowledges. The
		// reference, keyed by id, held one.
		name: "one-id-two-destinations",
		run: func(w *tapWorld) {
			w.register(b)
			w.register(c)
			w.hear(msg(1, b))
			w.hear(msg(1, c))
			w.ack(id(1), b)
		},
		streams: map[frame.ProcID][]frame.MsgID{b: {id(1)}, c: {}},
		pended:  2, pending: 1,
	}} {
		t.Run(tc.name, func(t *testing.T) {
			w := newTapWorld()
			tc.run(w)
			for p, want := range tc.streams {
				if got := w.summary(p); got == nil || !slices.Equal(got, want) {
					t.Errorf("%v's stream is %v, want %v (a known hole: %q)", p, got, want, tc.hole)
				}
			}
			if got := w.counts.MessagesPending; got != uint64(tc.pended) {
				t.Errorf("%d messages accepted into a queue, want %d", got, tc.pended)
			}
			if got := w.pending(b, c); got != tc.pending {
				t.Errorf("%d messages pending, want %d", got, tc.pending)
			}
		})
	}
}

// The pre-registration buffer holds tap.MaxPreArrivals messages per
// process: the next acknowledged one is refused, and the ones it holds merge
// at registration in acceptance order.
func TestPreRegistrationArrivalCap(t *testing.T) {
	w := newTapWorld()
	a, b := procA(), procB()
	var want []frame.MsgID
	for seq := uint64(1); seq <= tap.MaxPreArrivals+1; seq++ {
		id := frame.MsgID{Sender: a, Seq: seq}
		w.hear(&frame.Frame{Type: frame.Guaranteed, ID: id, From: a, To: b})
		w.ack(id, b)
		if seq <= tap.MaxPreArrivals {
			want = append(want, id)
		}
	}
	w.register(b)
	if got := w.summary(b); !slices.Equal(got, want) {
		t.Fatalf("registration merged %d messages (last %v), want the first %d in order", len(got), got[len(got)-1], len(want))
	}
	if w.counts.ArrivalsRecorded != tap.MaxPreArrivals {
		t.Fatalf("%d arrivals recorded, want %d", w.counts.ArrivalsRecorded, tap.MaxPreArrivals)
	}
}

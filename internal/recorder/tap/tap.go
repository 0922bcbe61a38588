// Package tap makes the recorder's stream decisions (§4.4.1, §4.5): which
// overheard message waits for an acknowledgement, which acknowledgement
// places it where in which stream, what a stream's fences refuse, and what a
// checkpoint trims. It holds no scheduler, store, medium or trace; the
// recorder around it gets the decisions' effects through Effects.
package tap

import (
	"slices"

	"publishing/internal/frame"
	"publishing/internal/simtime"
)

// Effects is what the decisions need done outside the core, each call made
// synchronously where the decision makes it. The recorder implements it.
type Effects interface {
	IDReader
	// Record persists m's record as arrival arrSeq of s and returns where
	// it lies.
	Record(s *Stream, m *frame.BundleRec, arrSeq uint64) Ref
	// LastSent persists s.LastSent.
	LastSent(s *Stream)
	// Published reports m recorded at arrSeq of s, learned as via says.
	Published(s *Stream, m *Msg, arrSeq uint64, via Via)
}

// IDReader reads a stream's message ids from their records, which is where
// the stream keeps them.
type IDReader interface {
	// ArrivalID returns the id of the message recorded as arrival arrSeq of
	// s, whose record lies at ref.
	ArrivalID(s *Stream, arrSeq uint64, ref Ref) frame.MsgID
}

// Via says how the tap learned that a recorded message was accepted.
type Via uint8

const (
	ViaAck             Via = iota // its own acknowledgement
	ViaInferred                   // a later acknowledgement from the same sender (tap miss)
	ViaPreRegistration            // accepted before its destination registered
)

// Counts are the decisions' counters; the recorder's Stats embed them.
type Counts struct {
	MessagesPending  uint64
	ArrivalsRecorded uint64
	BytesStored      uint64
	Advisories       uint64
	MissedArrivals   uint64
	// BelowWatermark counts acknowledged messages dropped for sitting
	// strictly below their sender's watermark after passing the tap's
	// duplicate check. In-order transport delivery says there are none; tests
	// pin it at zero. Not in the metrics registry: the snapshot is unchanged.
	BelowWatermark uint64 `metric:"-"`
}

// Msg is a message the tap heard that no acknowledgement has yet placed in a
// stream: the record it was heard as, whose Body is the wire body, read-only
// from Send on, and when.
type Msg struct {
	frame.BundleRec
	SeenAt simtime.Time
}

// Stream is a process's database record (§4.5) as the decisions read and
// write it. The recorder's entry embeds it.
type Stream struct {
	Proc     frame.ProcID
	LastSent uint64
	Arrivals ArrLog
	// Recorded fences retransmissions out of the stream: per sender, the
	// highest sequence recorded into it. Checkpoints never trim it.
	Recorded frame.Marks
	// CkMarks are the acceptance marks the stream's checkpoint carries: a
	// late record they cover stays out of the stream.
	CkMarks     frame.Marks
	Advisories  []Advisory
	ArrSeqNext  uint64
	AdvSeqNext  uint64
	CkReadCount uint64
	Dead        bool
	// Host is the recorder's entry for the stream, untouched here.
	Host any
}

// Restore appends message id, recorded as arrival seq at ref, and raises
// its sender's recorded mark: every arrival enters a stream here.
func (s *Stream) Restore(id frame.MsgID, seq uint64, ref Ref) {
	s.Arrivals.Push(seq, ref)
	s.Recorded.Note(id)
}

// Kill is the destruction of s's process: the stream empties for good.
func (s *Stream) Kill() {
	s.Dead = true
	s.Arrivals = ArrLog{}
	s.Advisories = nil
}

// Stale reports whether a checkpoint of readCount reads is older than the
// basis s holds. Notices are guaranteed messages, so one emitted before a
// recorder outage can be retransmitted long after newer checkpoints landed;
// readCount is monotonic per stream, so applying it would regress the basis.
func (s *Stream) Stale(readCount uint64) bool { return readCount < s.CkReadCount }

// Rec is what the tap keeps about one process a frame has named, until the
// core is reset.
type Rec struct {
	proc frame.ProcID
	// Owns: the recorder replicates the process's shard slot. Notice: the
	// process is a recorder.
	Owns, Notice bool
	s            *Stream // nil until installed
	// q holds the messages to the process heard and not yet placed in a
	// stream, in no order that matters (one leaves by swapping the last one
	// into its place); swept says t is on the sweep list.
	q     []Msg
	swept bool
	// pre buffers the accepted messages to the process, and preLastSent the
	// highest sequence it sent, while its creation notice is on its way: on
	// a busy system a new process's first traffic can beat the kernel's
	// NoticeCreated to the recorder. Merged at registration; bounded.
	pre         []Msg
	preLastSent uint64
}

// Queue returns the messages waiting for an acknowledgement, read-only.
func (t *Rec) Queue() []Msg { return t.q }

func (t *Rec) find(id frame.MsgID) int {
	for i := range t.q {
		if t.q[i].ID == id {
			return i
		}
	}
	return -1
}

func (t *Rec) remove(i int) {
	last := len(t.q) - 1
	t.q[i] = t.q[last]
	t.q[last] = Msg{}
	t.q = t.q[:last]
}

// Bounds on the pre-registration buffers: messages per process, senders.
const (
	MaxPreArrivals = 1024
	MaxPreSenders  = 4096
)

// Core holds the tap's per-process records and makes every stream decision.
type Core struct {
	// Traffic to self is no stream, and to one of recorders a notice.
	self      frame.ProcID
	recorders []frame.ProcID
	owns      func(frame.ProcID) bool
	fx        Effects
	counts    *Counts
	recs      map[frame.ProcID]*Rec
	// swept lists the records whose queue has held a message; preSenders
	// counts those holding a pre-registration last-sent.
	swept      []*Rec
	preSenders int
	// ids is Checkpoint's scratch: the ids of the stream it trims.
	ids []frame.MsgID
}

// New returns a core whose effects go to fx and counters to counts.
func New(self frame.ProcID, recorders []frame.ProcID, owns func(frame.ProcID) bool, fx Effects, counts *Counts) *Core {
	c := &Core{self: self, recorders: recorders, owns: owns, fx: fx, counts: counts}
	c.Reset()
	return c
}

// Reset forgets every record (recorder crash, rebuild).
func (c *Core) Reset() {
	c.recs = make(map[frame.ProcID]*Rec)
	c.swept = nil
	c.preSenders = 0
}

// Of returns p's record, making it on first use.
func (c *Core) Of(p frame.ProcID) *Rec {
	t := c.recs[p]
	if t == nil {
		t = &Rec{proc: p, Owns: c.owns(p), Notice: slices.Contains(c.recorders, p)}
		c.recs[p] = t
	}
	return t
}

// Install makes s its process's stream (registration, adoption, rebuild).
func (c *Core) Install(s *Stream) { c.Of(s.Proc).s = s }

// Heard handles one guaranteed message the tap heard for a process stream.
func (c *Core) Heard(m *frame.BundleRec, from, to *Rec, now simtime.Time) {
	// Track the highest message id each published process has sent — the
	// future suppression threshold (§4.5). Only the sender's replicas track
	// it (they replay the sender, so they set the threshold).
	if m.From.Local != 0 && from.Owns { // kernel processes are not replayed
		if s := from.s; s == nil {
			c.notePreLastSent(from, m.ID.Seq)
		} else if !s.Dead {
			c.RaiseLastSent(s, m.ID.Seq)
		}
	}
	if !to.Owns {
		return // another shard's stream; its replicas record the arrival
	}
	if s := to.s; s != nil && (s.Dead || s.Recorded.Covers(m.ID) || s.CkMarks.Covers(m.ID)) {
		return // dead destination, or a retransmission of an arrival
	}
	if to.find(m.ID) >= 0 {
		return
	}
	if !to.swept {
		to.swept = true
		c.swept = append(c.swept, to)
	}
	to.q = append(to.q, Msg{BundleRec: *m, SeenAt: now})
	c.counts.MessagesPending++
}

// RaiseLastSent raises s's last-sent, the §4.5 suppression threshold, to seq.
func (c *Core) RaiseLastSent(s *Stream, seq uint64) {
	if seq > s.LastSent {
		s.LastSent = seq
		c.fx.LastSent(s)
	}
}

// notePreLastSent raises the last-sent an unregistered sender has buffered.
// The cap bounds how many senders are buffered, not the updates of one
// already held.
func (c *Core) notePreLastSent(t *Rec, seq uint64) {
	if seq <= t.preLastSent {
		return
	}
	if t.preLastSent == 0 {
		if c.preSenders >= MaxPreSenders {
			return
		}
		c.preSenders++
	}
	t.preLastSent = seq
}

// DropPre forgets what t buffered before registration.
func (c *Core) DropPre(t *Rec) {
	t.pre = nil
	if t.preLastSent > 0 {
		t.preLastSent = 0
		c.preSenders--
	}
}

// Acked assigns arrival order from one acknowledgement, of id by t's
// process: "It is possible to discover the order in which messages are
// received at the receiving node by tracing the acknowledgements sent in
// response to messages" (§4.4.1). Only t's queue is consulted: an ack
// names its message's destination.
func (c *Core) Acked(id frame.MsgID, t *Rec) {
	at := t.find(id)
	if at < 0 {
		return // duplicate ack, untracked message, or our own traffic
	}
	s := t.s
	if s == nil && (t.proc.Local == 0 || t.proc == c.self) || // no process stream
		s != nil && (s.Dead || c.fenced(s, id)) {
		t.remove(at)
		return
	}
	// Cumulative-ack inference: the transport delivers each sender's stream
	// in sequence order, so this ack also proves every lower-sequence
	// message from the same sender to this process arrived — their own acks
	// were snooped past (tap miss). Left pending they would be lost from
	// the replay basis forever, since the sender has its ack and will never
	// retransmit. Promote them, in sequence order, ahead of this arrival —
	// into the stream, or into the buffer a stream not yet registered is
	// merged from. (Caveat: a sender that exhausted retries below this
	// sequence makes the inference wrong, but that run already lost a
	// guaranteed message.)
	from := t.q[at].From
	for {
		k := -1
		for i := range t.q {
			if p := &t.q[i]; p.From == from && p.ID.Seq < id.Seq && (k < 0 || p.ID.Seq < t.q[k].ID.Seq) {
				k = i
			}
		}
		if k < 0 {
			break
		}
		if s == nil || !c.fenced(s, t.q[k].ID) {
			c.accept(t, &t.q[k], ViaInferred)
		}
		if t.remove(k); at == len(t.q) {
			at = k // the acknowledged message was last, and took k's place
		}
	}
	c.accept(t, &t.q[at], ViaAck)
	t.remove(at)
}

// accept records an acknowledged message into the stream of t's process
// or, while it has none (its creation notice is still on its way), buffers
// it until registration. The buffer is bounded per process, and the re-ack
// of a retransmission stays out of it, so the merge sees each message once.
func (c *Core) accept(t *Rec, m *Msg, via Via) {
	if s := t.s; s != nil {
		c.record(s, m, via)
	} else if len(t.pre) >= MaxPreArrivals || slices.ContainsFunc(t.pre, func(p Msg) bool { return p.ID == m.ID }) {
		return
	} else {
		t.pre = append(t.pre, *m)
	}
	if via == ViaInferred {
		c.counts.MissedArrivals++
	}
}

// fenced reports whether an acknowledged message stays out of s: its
// checkpoint took it, or the stream recorded it already. At the recorded
// mark it is the retransmission that set the mark; strictly below, the
// per-message set this replaced might have accepted it, so it is counted.
func (c *Core) fenced(s *Stream, id frame.MsgID) bool {
	if s.CkMarks.Covers(id) {
		return true
	}
	seq, ok := s.Recorded.Mark(id.Sender)
	if ok && id.Seq+1 <= seq {
		c.counts.BelowWatermark++
	}
	return ok && id.Seq <= seq
}

func (c *Core) record(s *Stream, m *Msg, via Via) {
	arrSeq := c.append(s, &m.BundleRec)
	c.counts.ArrivalsRecorded++
	c.counts.BytesStored += uint64(len(m.Body))
	c.fx.Published(s, m, arrSeq, via)
}

// append makes m s's next arrival, persisted where the stream says.
func (c *Core) append(s *Stream, m *frame.BundleRec) uint64 {
	arrSeq := s.ArrSeqNext
	s.ArrSeqNext++
	s.Restore(m.ID, arrSeq, c.fx.Record(s, m, arrSeq))
	return arrSeq
}

// Created registers t's process, whose stream is installed: it lives, and
// the traffic that beat its creation notice to the recorder is merged.
func (c *Core) Created(t *Rec) {
	s := t.s
	s.Dead = false
	for i := range t.pre {
		if !c.fenced(s, t.pre[i].ID) {
			c.record(s, &t.pre[i], ViaPreRegistration)
		}
	}
	c.RaiseLastSent(s, t.preLastSent)
	c.DropPre(t)
}

// ReadOrder notes one §4.4.2 read-order correction in s and returns it.
func (c *Core) ReadOrder(s *Stream, read, head frame.MsgID) Advisory {
	adv := Advisory{ReadID: read, HeadID: head, AdvSeq: s.AdvSeqNext}
	s.AdvSeqNext++
	s.Advisories = append(s.Advisories, adv)
	c.counts.Advisories++
	return adv
}

// Checkpoint installs a checkpoint of readCount reads that left queued
// unread and carries marks, and returns the arrival seqs it drops: "After
// the checkpoint has been reliably stored, older checkpoints and messages
// can be discarded" (§3.3.1). The messages still queued at the process stay
// first, in queue order; every other one the checkpoint's acceptance marks
// cover was read and is discarded; the rest is still in flight to the
// process (recorded while every receiver copy was lost) and stays, in read
// order. That holds for a record landing after the checkpoint and for a
// stream with gaps from the recorder's downtime (§6.3 catch-up). A
// checkpoint whose queue names a message never recorded is not applied. The
// caller has checked the checkpoint is not Stale.
func (c *Core) Checkpoint(s *Stream, readCount uint64, queued []frame.MsgID, marks frame.Marks) (dropped []uint64, applied bool) {
	// ids are the stream's message ids, each read from its record once.
	log := &s.Arrivals
	ids := c.ids[:0]
	for i := 0; i < log.Len(); i++ {
		seq, ref := log.At(i)
		ids = append(ids, c.fx.ArrivalID(s, seq, ref))
	}
	c.ids = ids
	// pos[k] is the log position of the k'th queued message (-1: not held,
	// or an id the queue repeats); queuedAt finds k by id.
	queuedAt := make(map[frame.MsgID]int, len(queued))
	pos := make([]int, len(queued), max(len(queued), log.Len()))
	for k, id := range queued {
		pos[k] = -1
		if _, repeat := queuedAt[id]; !repeat {
			queuedAt[id] = k
		}
	}
	for i, id := range ids {
		if k, ok := queuedAt[id]; ok && pos[k] < 0 {
			pos[k] = i
		}
	}
	if slices.Contains(pos, -1) {
		return nil, false
	}
	retained := pos // every queued message, in queue order; room for the rest
	dropped = make([]uint64, 0, log.Len()-len(retained))
	o := NewOrder(s, c.fx)
	o.known = ids
	for i, seq, _, ok := o.Next(); ok; i, seq, _, ok = o.Next() {
		switch k, ok := queuedAt[ids[i]]; {
		case ok && pos[k] == i:
			// retained above, in queue order
		case marks.Covers(ids[i]):
			dropped = append(dropped, seq)
		default:
			retained = append(retained, i)
		}
	}
	log.Keep(retained)
	s.Advisories, s.CkMarks, s.CkReadCount = nil, marks, readCount
	return dropped, true
}

// Summary lists s's messages in reconstructed read order.
func (c *Core) Summary(s *Stream) []frame.MsgID {
	out := make([]frame.MsgID, 0, s.Arrivals.Len())
	o := NewOrder(s, c.fx)
	for _, seq, ref, ok := o.Next(); ok; _, seq, ref, ok = o.Next() {
		out = append(out, c.fx.ArrivalID(s, seq, ref))
	}
	return out
}

// Adopt replaces s's basis with a partner replica's (the shard handoff):
// its checkpoint, recorded marks, and msgs in read order as s's arrivals.
func (c *Core) Adopt(s *Stream, marks frame.Marks, readCount uint64, recorded []frame.MsgID, msgs []frame.BundleRec) {
	s.Arrivals, s.Advisories, s.CkMarks, s.CkReadCount = ArrLog{}, nil, marks, readCount
	for i := range msgs {
		c.append(s, &msgs[i])
	}
	for _, id := range recorded {
		s.Recorded.Note(id)
	}
}

// Sweep drops the messages heard before cutoff and never acknowledged
// (destination dead, sender gave up) so they don't accumulate.
func (c *Core) Sweep(cutoff simtime.Time) {
	for _, t := range c.swept {
		for i := len(t.q) - 1; i >= 0; i-- {
			if t.q[i].SeenAt < cutoff {
				t.remove(i)
			}
		}
	}
}

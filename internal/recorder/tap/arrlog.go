package tap

import (
	"sort"

	"publishing/internal/frame"
)

// Ref is where the recorder's store holds a record: page and offset.
type Ref struct{ Page, Off uint32 }

// ArrEntry is one arrival in a process's stream: where the store holds its
// record — the §4.5 "list of disk pages containing messages to the
// process". The record says everything else: the message's id, which
// Effects.ArrivalID reads from it, and its arrival seq, which the log keeps
// in runs beside the entries. The entry holds no pointer, so the GC never
// scans a chunk of them.
type ArrEntry = Ref

// ArrChunkLen is the arrival log's chunk length: 128 entries of 8 bytes fill
// Go's 1,024-byte size class exactly.
const ArrChunkLen = 128

// seqRun says the arrival at log position pos has seq seq, and each one
// after it, up to the next run, the previous one's seq + 1.
type seqRun struct {
	pos int
	seq uint64
}

// ArrLog is a process's published stream since its last checkpoint, in
// arrival order: an append-only log of fixed-size chunks of record refs, so
// recording an arrival never copies the stream and a checkpoint frees whole
// chunks. The arrival seqs are kept as runs: a stream's arrivals are
// numbered consecutively, so a log holds one run until a checkpoint keeps
// some of it, and then at most one per kept entry.
//
// A copy of the struct is a stable snapshot of the stream as it stood: Push
// writes only past the snapshot's length, in the chunks and the runs, and
// Keep builds fresh ones while a snapshot is read, so neither disturbs what
// a replay in progress is reading. The records the snapshot names stay
// readable: the store keeps every record it is given, a checkpoint that
// lands mid-replay included.
type ArrLog struct {
	chunks []*[ArrChunkLen]ArrEntry
	runs   []seqRun
	n      int
	// kept is Keep's scratch: the kept arrivals, read out before the log is
	// rebuilt in its own chunks.
	kept []arrival
}

// arrival is one entry of the log with its seq.
type arrival struct {
	seq uint64
	ref Ref
}

func (l *ArrLog) Len() int { return l.n }

// At returns the i'th arrival's seq and where its record lies.
func (l *ArrLog) At(i int) (seq uint64, ref Ref) {
	k := len(l.runs) - 1
	if l.runs[k].pos > i {
		k = sort.Search(k, func(k int) bool { return l.runs[k].pos > i }) - 1
	}
	return l.runs[k].seq + uint64(i-l.runs[k].pos), l.chunks[i/ArrChunkLen][i%ArrChunkLen]
}

// Push appends arrival seq, whose record lies at ref.
func (l *ArrLog) Push(seq uint64, ref Ref) {
	if k := len(l.runs) - 1; k < 0 || l.runs[k].seq+uint64(l.n-l.runs[k].pos) != seq {
		l.runs = append(l.runs, seqRun{pos: l.n, seq: seq})
	}
	if k := len(l.chunks); l.n == k*ArrChunkLen {
		if k < cap(l.chunks) && l.chunks[:k+1][k] != nil {
			l.chunks = l.chunks[:k+1] // a chunk the log held before a Keep
		} else {
			l.chunks = append(l.chunks, new([ArrChunkLen]ArrEntry))
		}
	}
	l.chunks[l.n/ArrChunkLen][l.n%ArrChunkLen] = ref
	l.n++
}

// Keep replaces the log with its entries at the given positions, in that
// order (a checkpoint's retained messages). While a snapshot of the log is
// read, it builds the log in fresh chunks and runs and leaves the old ones
// to the snapshot. With no snapshot read (reuse), it rebuilds the log in
// its own, whose chunks Push fills again before it makes new ones, so a
// stream checkpointed at a steady rate allocates none.
func (l *ArrLog) Keep(pos []int, reuse bool) {
	if !reuse {
		kept := ArrLog{kept: l.kept}
		for _, i := range pos {
			kept.Push(l.At(i))
		}
		*l = kept
		return
	}
	kept := l.kept[:0]
	for _, i := range pos {
		seq, ref := l.At(i)
		kept = append(kept, arrival{seq, ref})
	}
	// Past the chunks the log held, the table may still name chunks from
	// a longer stretch before: let those go.
	clear(l.chunks[len(l.chunks):cap(l.chunks)])
	l.chunks, l.runs, l.n, l.kept = l.chunks[:0], l.runs[:0], 0, kept
	for _, a := range kept {
		l.Push(a.seq, a.ref)
	}
}

// AppendSeqs appends the entries' arrival sequence numbers to dst in log
// order.
func (l *ArrLog) AppendSeqs(dst []uint64) []uint64 {
	for k, r := range l.runs {
		end := l.n
		if k+1 < len(l.runs) {
			end = l.runs[k+1].pos
		}
		for i := r.pos; i < end; i++ {
			dst = append(dst, r.seq+uint64(i-r.pos))
		}
	}
	return dst
}

// Advisory is one §4.4.2 read-order correction: the process read ReadID
// while HeadID was at the head of its queue.
type Advisory struct {
	ReadID frame.MsgID
	HeadID frame.MsgID
	AdvSeq uint64
}

// Order walks a stream in reconstructed read order (§4.4.2): arrival order,
// with each advisory's out-of-order read moved to where the process made it.
// It holds a snapshot of the stream's log (see ArrLog), so what is recorded
// or trimmed while it runs does not reach it. The advisories name messages
// by id, which it reads from their records when it needs one.
type Order struct {
	s          *Stream
	ids        IDReader
	arrivals   ArrLog
	advisories []Advisory
	// known, when not nil, are the arrivals' ids, read already by the
	// caller.
	known []frame.MsgID
	// taken marks arrivals already yielded by an advisory's out-of-order
	// read (nil when there are no advisories and order is arrival order).
	taken []bool
	pos   int // next in-order candidate
	ai    int // next advisory to honor
}

// NewOrder walks s's arrivals and advisories as they stand; ids reads the
// message ids the advisories are matched by.
func NewOrder(s *Stream, ids IDReader) Order {
	o := Order{s: s, ids: ids, arrivals: s.Arrivals, advisories: s.Advisories}
	if len(o.advisories) > 0 {
		o.taken = make([]bool, o.arrivals.Len())
	}
	return o
}

// id returns the i'th arrival's message id.
func (o *Order) id(i int) frame.MsgID {
	if o.known != nil {
		return o.known[i]
	}
	seq, ref := o.arrivals.At(i)
	return o.ids.ArrivalID(o.s, seq, ref)
}

// Next returns the next arrival in read order: its position in the log, its
// seq and where its record lies.
func (o *Order) Next() (i int, seq uint64, ref Ref, ok bool) {
	n := o.arrivals.Len()
	for o.ai < len(o.advisories) {
		adv := &o.advisories[o.ai]
		o.skipTaken()
		if o.pos < n && o.id(o.pos) != adv.HeadID {
			// In-order reads precede the advised out-of-order read.
			o.pos++
			return o.at(o.pos - 1)
		}
		// Head reached (or the queue drained without it): honor the advisory.
		o.ai++
		for i := o.pos; i < n; i++ {
			if !o.taken[i] && o.id(i) == adv.ReadID {
				o.taken[i] = true
				return o.at(i)
			}
		}
		// Advised message absent: the advisory is consumed with no emission.
	}
	o.skipTaken()
	if o.pos < n {
		o.pos++
		return o.at(o.pos - 1)
	}
	return 0, 0, Ref{}, false
}

func (o *Order) at(i int) (int, uint64, Ref, bool) {
	seq, ref := o.arrivals.At(i)
	return i, seq, ref, true
}

func (o *Order) skipTaken() {
	for o.taken != nil && o.pos < o.arrivals.Len() && o.taken[o.pos] {
		o.pos++
	}
}

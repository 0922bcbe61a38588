package tap

import "publishing/internal/frame"

// Ref is where the recorder's store holds a record: page and offset.
type Ref struct{ Page, Off uint32 }

// ArrEntry is one arrival in a process's stream: the message's id, its
// arrival sequence, and where the store holds its record — the §4.5 "list of
// disk pages containing messages to the process". The message itself lives
// only in the store. The entry holds no pointer, so the GC never scans a
// chunk of them.
type ArrEntry struct {
	ID     frame.MsgID
	ArrSeq uint64
	Ref    Ref
}

// ArrChunkLen is the arrival log's chunk length: 32 entries of 32 bytes fill
// Go's 1,024-byte size class exactly.
const ArrChunkLen = 32

// ArrLog is a process's published stream since its last checkpoint, in
// arrival order: an append-only log of fixed-size chunks, so recording an
// arrival never copies the stream and a checkpoint frees whole chunks.
//
// A copy of the struct is a stable snapshot of the stream as it stood: Push
// writes only past the snapshot's length and Keep builds fresh chunks, so
// neither disturbs what a replay in progress is reading. The records the
// snapshot names stay readable: the store keeps every record it is given,
// a checkpoint that lands mid-replay included.
type ArrLog struct {
	chunks []*[ArrChunkLen]ArrEntry
	n      int
}

func (l *ArrLog) Len() int { return l.n }

// At returns the i'th entry. The pointer aliases the log.
func (l *ArrLog) At(i int) *ArrEntry {
	return &l.chunks[i/ArrChunkLen][i%ArrChunkLen]
}

func (l *ArrLog) Push(a ArrEntry) {
	if l.n == len(l.chunks)*ArrChunkLen {
		l.chunks = append(l.chunks, new([ArrChunkLen]ArrEntry))
	}
	l.n++
	*l.At(l.n - 1) = a
}

// Keep replaces the log with its entries at the given positions, in that
// order (a checkpoint's retained messages).
func (l *ArrLog) Keep(pos []int) {
	var kept ArrLog
	for _, i := range pos {
		kept.Push(*l.At(i))
	}
	*l = kept
}

// Seqs returns the entries' arrival sequence numbers in log order.
func (l *ArrLog) Seqs() []uint64 {
	out := make([]uint64, l.n)
	for i := range out {
		out[i] = l.At(i).ArrSeq
	}
	return out
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
// It holds a snapshot of the log (see ArrLog), so what is recorded or
// trimmed while it runs does not reach it.
type Order struct {
	arrivals   ArrLog
	advisories []Advisory
	// taken marks arrivals already yielded by an advisory's out-of-order
	// read (nil when there are no advisories and order is arrival order).
	taken []bool
	pos   int // next in-order candidate
	ai    int // next advisory to honor
}

func NewOrder(arrivals ArrLog, advisories []Advisory) Order {
	o := Order{arrivals: arrivals, advisories: advisories}
	if len(advisories) > 0 {
		o.taken = make([]bool, arrivals.Len())
	}
	return o
}

// Next returns the next arrival in read order and its position in the log.
func (o *Order) Next() (int, *ArrEntry, bool) {
	n := o.arrivals.Len()
	for o.ai < len(o.advisories) {
		adv := &o.advisories[o.ai]
		o.skipTaken()
		if o.pos < n && o.arrivals.At(o.pos).ID != adv.HeadID {
			// In-order reads precede the advised out-of-order read.
			o.pos++
			return o.pos - 1, o.arrivals.At(o.pos - 1), true
		}
		// Head reached (or the queue drained without it): honor the advisory.
		o.ai++
		for i := o.pos; i < n; i++ {
			if !o.taken[i] && o.arrivals.At(i).ID == adv.ReadID {
				o.taken[i] = true
				return i, o.arrivals.At(i), true
			}
		}
		// Advised message absent: the advisory is consumed with no emission.
	}
	o.skipTaken()
	if o.pos < n {
		o.pos++
		return o.pos - 1, o.arrivals.At(o.pos - 1), true
	}
	return 0, nil, false
}

func (o *Order) skipTaken() {
	for o.taken != nil && o.pos < o.arrivals.Len() && o.taken[o.pos] {
		o.pos++
	}
}

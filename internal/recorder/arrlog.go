package recorder

import (
	"publishing/internal/frame"
	"publishing/internal/stablestore"
)

// arrEntry is one arrival in a process's stream: the message's id, its
// arrival sequence, and where the store holds its record — the §4.5 "list of
// disk pages containing messages to the process". The message itself lives
// only in the store. The entry holds no pointer, so the GC never scans a
// chunk of them.
type arrEntry struct {
	ID     frame.MsgID
	ArrSeq uint64
	Ref    stablestore.Ref
}

// arrChunkLen is the arrival log's chunk length: 32 entries of 32 bytes fill
// Go's 1,024-byte size class exactly.
const arrChunkLen = 32

// arrLog is a process's published stream since its last checkpoint, in
// arrival order: an append-only log of fixed-size chunks, so recording an
// arrival never copies the stream and a checkpoint frees whole chunks.
//
// A copy of the struct is a stable snapshot of the stream as it stood: push
// writes only past the snapshot's length and keep builds fresh chunks, so
// neither disturbs what a replay in progress is reading. The records the
// snapshot names stay readable as long as the store holds them: only
// Compact drops a record, only one the store was told is invalidated, and a
// checkpoint that lands mid-replay tells it when the replay ends.
type arrLog struct {
	chunks []*[arrChunkLen]arrEntry
	n      int
}

func (l *arrLog) len() int { return l.n }

// at returns the i'th entry. The pointer aliases the log.
func (l *arrLog) at(i int) *arrEntry {
	return &l.chunks[i/arrChunkLen][i%arrChunkLen]
}

func (l *arrLog) push(a arrEntry) {
	if l.n == len(l.chunks)*arrChunkLen {
		l.chunks = append(l.chunks, new([arrChunkLen]arrEntry))
	}
	l.n++
	*l.at(l.n - 1) = a
}

// keep replaces the log with its entries at the given positions, in that
// order (a checkpoint's retained messages).
func (l *arrLog) keep(pos []int) {
	var kept arrLog
	for _, i := range pos {
		kept.push(*l.at(i))
	}
	*l = kept
}

// seqs returns the entries' arrival sequence numbers in log order.
func (l *arrLog) seqs() []uint64 {
	out := make([]uint64, l.n)
	for i := range out {
		out[i] = l.at(i).ArrSeq
	}
	return out
}

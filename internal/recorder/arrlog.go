package recorder

// arrChunkLen is the arrival log's chunk length: 32 records of 72 bytes fill
// Go's 2,304-byte size class exactly.
const arrChunkLen = 32

// arrLog is a process's published stream since its last checkpoint, in
// arrival order: an append-only log of fixed-size chunks, so recording an
// arrival never copies the stream and a checkpoint frees whole chunks.
//
// A copy of the struct is a stable snapshot of the stream as it stood: push
// writes only past the snapshot's length and keep builds fresh chunks, so
// neither disturbs what a replay in progress is reading.
type arrLog struct {
	chunks []*[arrChunkLen]storedMsg
	n      int
}

func (l *arrLog) len() int { return l.n }

// at returns the i'th record. The pointer aliases the log; callers copy what
// they keep.
func (l *arrLog) at(i int) *storedMsg {
	return &l.chunks[i/arrChunkLen][i%arrChunkLen]
}

func (l *arrLog) push(sm storedMsg) {
	if l.n == len(l.chunks)*arrChunkLen {
		l.chunks = append(l.chunks, new([arrChunkLen]storedMsg))
	}
	l.n++
	*l.at(l.n - 1) = sm
}

// keep replaces the log with its records at the given positions, in that
// order (a checkpoint's retained messages).
func (l *arrLog) keep(pos []int) {
	var kept arrLog
	for _, i := range pos {
		kept.push(*l.at(i))
	}
	*l = kept
}

// seqs returns the records' arrival sequence numbers in log order.
func (l *arrLog) seqs() []uint64 {
	out := make([]uint64, l.n)
	for i := range out {
		out[i] = l.at(i).ArrSeq
	}
	return out
}

package demos

import (
	"math/bits"

	"publishing/internal/frame"
)

// msgQueue is a process's kernel-resident input queue (§4.2.2.2). Messages
// arrive in order; channels let the process read selectively, and every
// out-of-order read is reported so the recorder can reconstruct the true
// read order (§4.4.2).
//
// It is a ring: a recovering process's replay backlog arrives at wire speed
// and is consumed at CPU cost, so the queue gets about as deep as the
// replayed stream is long, and a head read must not cost its depth. The
// ring only ever grows, and is reused for the process's lifetime and handed
// on to the incarnation that replaces it (release). Past the smallMax slots
// a shallow queue holds, it grows by segments, so a replay allocates each
// slot once.
type msgQueue struct {
	small []queued   // slots [0, len(small)): len is zero or a power of two ≤ smallMax
	segs  [][]queued // segs[k] holds slots [smallMax<<k, smallMax<<(k+1))
	head  int        // slot of the first queued message
	n     int        // queued messages
}

// smallMax is the first segment's largest size.
const smallMax = 8

type queued struct {
	msg  Msg
	link *frame.Link // passed link, not yet installed
}

// size reports the ring's slots, zero or a power of two.
func (q *msgQueue) size() int { return len(q.small) << len(q.segs) }

// slot returns physical slot j, 0 ≤ j < size().
func (q *msgQueue) slot(j int) *queued {
	if j < len(q.small) {
		return &q.small[j]
	}
	k := bits.Len(uint(j)) - bits.Len(smallMax)
	return &q.segs[k][j-smallMax<<k]
}

// at returns the i'th queued message in queue order, 0 ≤ i < len().
func (q *msgQueue) at(i int) *queued {
	return q.slot((q.head + i) & (q.size() - 1))
}

// push appends an arriving message.
func (q *msgQueue) push(m Msg, link *frame.Link) {
	if q.n == q.size() {
		q.grow()
	}
	*q.at(q.n) = queued{msg: m, link: link}
	q.n++
}

// grow doubles the ring, which is full. Up to smallMax slots it copies the
// queued messages, unwrapped, into a new array. Past that it adds a
// segment, the slots [c, 2c), and moves only the wrapped front, the slots
// [0, head), up to [c, c+head), so the queue runs on from slot c-1 to c.
func (q *msgQueue) grow() {
	c := q.size()
	if c < smallMax {
		small := make([]queued, max(1, 2*c))
		k := copy(small, q.small[q.head:])
		copy(small[k:], q.small[:q.head])
		q.small, q.head = small, 0
		return
	}
	q.segs = append(q.segs, make([]queued, c))
	for j := 0; j < q.head; j++ {
		*q.slot(c + j), *q.slot(j) = *q.slot(j), queued{}
	}
}

// release empties q and returns its ring, every segment cleared, for a new
// owner: q keeps no array, and the ring pins no body or link.
func (q *msgQueue) release() msgQueue {
	ring := msgQueue{small: q.small, segs: q.segs}
	clear(ring.small)
	for _, seg := range ring.segs {
		clear(seg)
	}
	*q = msgQueue{}
	return ring
}

// len reports queued messages.
func (q *msgQueue) len() int { return q.n }

// matches reports whether channel ch is in the wanted set (empty = any).
func matches(ch uint16, want []uint16) bool {
	if len(want) == 0 {
		return true
	}
	for _, w := range want {
		if w == ch {
			return true
		}
	}
	return false
}

// pop removes and returns the first message belonging to one of the wanted
// channels. outOfOrder reports that a later message was selected past the
// queue head (the §4.4.2 advisory trigger), with head the id of the message
// that would have been read had channels not existed.
func (q *msgQueue) pop(want []uint16) (item queued, head frame.MsgID, outOfOrder, ok bool) {
	for i := 0; i < q.n; i++ {
		if !matches(q.at(i).msg.Channel, want) {
			continue
		}
		item = *q.at(i)
		if i > 0 {
			outOfOrder = true
			head = q.at(0).msg.ID
			// Close the gap from the front: the skipped messages are the
			// few, the backlog behind the one taken can be the many.
			for j := i; j > 0; j-- {
				*q.at(j) = *q.at(j - 1)
			}
		}
		// Zero the vacated slot so the ring pins no body or link.
		*q.at(0) = queued{}
		q.head = (q.head + 1) & (q.size() - 1)
		q.n--
		return item, head, outOfOrder, true
	}
	return queued{}, frame.MsgID{}, false, false
}

// appendIDs appends the queued message ids to dst in queue order.
func (q *msgQueue) appendIDs(dst []frame.MsgID) []frame.MsgID {
	for i := 0; i < q.n; i++ {
		dst = append(dst, q.at(i).msg.ID)
	}
	return dst
}

// anyMatch reports whether some queued message matches the wanted channels.
func (q *msgQueue) anyMatch(want []uint16) bool {
	for i := 0; i < q.n; i++ {
		if matches(q.at(i).msg.Channel, want) {
			return true
		}
	}
	return false
}

package simtime

import "fmt"

// Pipe delivers values to one bound function through the scheduler, each at
// its own virtual time, in the order they were sent. It is the allocation-free
// form of "schedule a closure that captures v": the value waits in a ring and
// the event's handler is the pipe itself, so a send costs one scheduler node
// from the free list and, once the ring has grown to the pipe's deepest
// backlog, nothing else.
//
// Every value is its own event, scheduled when it is sent, so the events'
// times and sequence numbers — and therefore the run — are exactly those of
// the closure it replaces. The ring stays aligned with those events because
// of the one condition a Pipe relies on: times never decrease from one send
// to the next. The scheduler fires equal times in scheduling order, so the
// events then fire in send order and each one's value is the ring's head. A
// send earlier than its predecessor panics instead of delivering out of
// order. A pipe's events are never cancelled.
type Pipe[T any] struct {
	s    *Scheduler
	fn   func(T)
	buf  []T // len is zero or a power of two
	head int
	n    int
	last Time // time of the latest send
}

// NewPipe returns a pipe on s that hands each value to fn when it comes due.
func NewPipe[T any](s *Scheduler, fn func(T)) *Pipe[T] {
	return &Pipe[T]{s: s, fn: fn}
}

// At sends v, to be handed to the pipe's function at virtual time t. t must
// not be earlier than the previous send's time, nor in the past.
func (p *Pipe[T]) At(t Time, v T) {
	if t < p.last {
		panic(fmt.Sprintf("simtime: pipe send at %v after a send at %v", t, p.last))
	}
	p.s.AtHandler(t, p)
	p.last = t
	if p.n == len(p.buf) {
		p.grow()
	}
	p.buf[(p.head+p.n)&(len(p.buf)-1)] = v
	p.n++
}

// grow doubles the ring, unwrapping the queued values to its start.
func (p *Pipe[T]) grow() {
	buf := make([]T, max(1, 2*len(p.buf)))
	k := copy(buf, p.buf[p.head:])
	copy(buf[k:], p.buf[:p.head])
	p.buf, p.head = buf, 0
}

// Fire is the scheduler's: it pops the oldest value and hands it to the
// pipe's function. The vacated slot is zeroed so the ring pins nothing.
func (p *Pipe[T]) Fire() {
	v := p.buf[p.head]
	var zero T
	p.buf[p.head] = zero
	p.head = (p.head + 1) & (len(p.buf) - 1)
	p.n--
	p.fn(v)
}

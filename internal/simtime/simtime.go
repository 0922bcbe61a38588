// Package simtime provides the deterministic discrete-event substrate on
// which every simulation in this repository runs: a virtual clock, an event
// scheduler, and a seedable pseudo-random source.
//
// The paper's testbed was real hardware (VAX 11/780s, Z8000s, a 10 Mb/s
// Ethernet). We substitute virtual time so that every experiment is exactly
// reproducible: two runs with the same seed produce bit-identical event
// orders. Determinism is not just a convenience here — it is the property
// published communications itself relies on (§1.1.1 of the paper), so the
// substrate doubles as a statement of the model's assumptions.
//
// Hot owners bind once and arm many times. An event carries a Handler, so a
// medium, a transmission unit or a retransmission record is scheduled as
// itself (AtHandler, AfterHandler) instead of through a closure allocated per
// event; At and After keep taking a func for cold callers. A Pipe carries
// values to a bound function at non-decreasing times: the Perfect medium's
// FIFO channel, and a kernel's send-CPU hand-off, which waits the same fixed
// send cost on every send for the kernel's life. A pipe panics if a send's
// time is earlier than its predecessor's, so changing that cost mid-run
// fails loudly instead of reordering deliveries.
package simtime

import (
	"fmt"
	"math"
)

// Time is virtual time in nanoseconds since the start of the simulation.
// Nanoseconds give enough resolution to express the paper's parameters
// (0.01 ms/byte, 0.8 ms/packet) without floating-point drift in the clock.
type Time int64

// Common durations, mirroring time.Duration conventions.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
	Minute           = 60 * Second

	// Never is a sentinel for "no deadline".
	Never Time = math.MaxInt64
)

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds reports t as floating-point milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// String formats the time as milliseconds with microsecond precision,
// the natural scale of the paper's measurements.
func (t Time) String() string {
	if t == Never {
		return "never"
	}
	return fmt.Sprintf("%.3fms", t.Milliseconds())
}

// FromSeconds converts floating-point seconds to a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// FromMillis converts floating-point milliseconds to a Time.
func FromMillis(ms float64) Time { return Time(ms * float64(Millisecond)) }

// Handler is the owner of a scheduled event: Fire runs when the event comes
// due. A long-lived owner — a medium, a transmission unit, a retransmission
// record — implements it once and is armed again and again through
// AtHandler/AfterHandler, and arming a pointer allocates nothing. A closure
// built per event is one heap object per event.
type Handler interface{ Fire() }

// Func adapts a plain callback to Handler. A func value is pointer-shaped,
// so converting one to Handler does not allocate: At and After cost what
// they did before Handler existed.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// eventNode is the scheduler-owned state of one scheduled callback. Nodes
// are pooled on a free list: once an event fires or is cancelled its node
// returns to the scheduler and is re-armed for a later event under a new
// generation number, so the hot path schedules without heap allocation.
type eventNode struct {
	at  Time
	seq uint64
	h   Handler
	// idx is the heap index while queued. -1 is the only not-queued value:
	// the node is on the free list, or was popped and its callback is
	// running — Step recycles before it calls, so an executing event is
	// already neither Pending nor cancellable.
	idx  int
	gen  uint32 // incremented each time the node is re-armed
	dead bool   // cancelled before firing (valid for the current gen)
}

// Event is a handle on a scheduled callback. It is a small value (copyable,
// comparable to its zero value) stamped with the generation of the node it
// refers to: once the event fires or is cancelled, the scheduler may reuse
// the node for a later event, and this handle silently becomes inert —
// Cancel on a stale handle is a no-op and can never affect the new event.
// The zero Event refers to nothing.
//
// Events with equal times fire in the order they were scheduled (FIFO
// tie-break by sequence number), which keeps the simulation deterministic
// without requiring callers to perturb timestamps.
type Event struct {
	n   *eventNode
	gen uint32
}

// live reports whether the handle still refers to its original event.
func (e Event) live() bool { return e.n != nil && e.n.gen == e.gen }

// Cancelled reports whether the event was cancelled before firing. Once the
// scheduler reuses the underlying slot for a later event, the handle is
// stale and Cancelled reports false (the event is simply done).
func (e Event) Cancelled() bool { return e.live() && e.n.dead }

// Pending reports whether the event is still queued to fire.
func (e Event) Pending() bool { return e.live() && e.n.idx >= 0 }

// At reports the virtual time the event is scheduled for, or 0 once the
// handle is stale.
func (e Event) At() Time {
	if !e.live() {
		return 0
	}
	return e.n.at
}

// Scheduler owns the virtual clock and the pending event queue. It is not
// safe for concurrent use: the entire simulation is single-threaded by
// design (simulated programs are coroutines the kernel resumes from inside
// an event callback, so they never run concurrently with the event loop),
// and this is the only event executor — every result in the repository is
// checked against its order. Run whole independent simulations on separate
// Schedulers to use multiple cores, as the chaos CLI and the root package's
// golden-fingerprint test do.
type Scheduler struct {
	now    Time
	seq    uint64
	events []*eventNode // 4-ary min-heap on (at, seq)
	free   []*eventNode // recycled nodes, reused by At/After
	fired  uint64
}

// NewScheduler returns a scheduler with the clock at zero.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Fired returns the number of events executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// alloc takes a node from the free list (or the heap allocator) and arms it
// under a fresh generation.
func (s *Scheduler) alloc() *eventNode {
	var n *eventNode
	if k := len(s.free); k > 0 {
		n = s.free[k-1]
		s.free[k-1] = nil
		s.free = s.free[:k-1]
	} else {
		n = &eventNode{}
	}
	n.gen++
	n.dead = false
	return n
}

// recycle returns a node to the free list. The node keeps its generation
// until re-armed, so outstanding handles still answer queries correctly.
func (s *Scheduler) recycle(n *eventNode) {
	n.h = nil
	n.idx = -1
	s.free = append(s.free, n)
}

// At schedules fn to run at absolute virtual time t.
func (s *Scheduler) At(t Time, fn func()) Event { return s.AtHandler(t, Func(fn)) }

// After schedules fn to run d after the current time.
func (s *Scheduler) After(d Time, fn func()) Event { return s.AfterHandler(d, Func(fn)) }

// AtHandler schedules h.Fire to run at absolute virtual time t. Scheduling
// in the past is a programming error and panics: silently reordering time
// would destroy the causality the recorder depends on.
func (s *Scheduler) AtHandler(t Time, h Handler) Event {
	if t < s.now {
		panic(fmt.Sprintf("simtime: event scheduled in the past: %v < %v", t, s.now))
	}
	n := s.alloc()
	n.at, n.seq, n.h = t, s.seq, h
	s.seq++
	s.push(n)
	return Event{n: n, gen: n.gen}
}

// AfterHandler schedules h.Fire to run d after the current time.
func (s *Scheduler) AfterHandler(d Time, h Handler) Event {
	if d < 0 {
		panic(fmt.Sprintf("simtime: negative delay %v", d))
	}
	return s.AtHandler(s.now+d, h)
}

// Cancel removes a pending event. Cancelling an already-fired, already-
// cancelled, stale, or zero handle is a no-op.
func (s *Scheduler) Cancel(e Event) {
	n := e.n
	if n == nil || n.gen != e.gen || n.dead || n.idx < 0 {
		return
	}
	n.dead = true
	s.removeAt(n.idx)
	s.recycle(n)
}

// Step fires the next pending event, advancing the clock to its timestamp.
// It reports false when the queue is empty.
func (s *Scheduler) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	n := s.popMin()
	s.now = n.at
	s.fired++
	h := n.h
	// Recycle before running: the callback may immediately schedule new
	// events and reuse this very node (under a new generation).
	s.recycle(n)
	h.Fire()
	return true
}

// Run fires events until the queue drains or the clock passes limit.
// It returns the number of events fired.
func (s *Scheduler) Run(limit Time) uint64 {
	start := s.fired
	for len(s.events) > 0 {
		if next := s.events[0].at; next > limit {
			// Leave future events queued; advance the clock to the limit so
			// utilization windows close at a well-defined instant. A limit
			// already passed leaves the clock where it is.
			s.now = max(s.now, limit)
			break
		}
		s.Step()
	}
	if len(s.events) == 0 && s.now < limit {
		s.now = limit
	}
	return s.fired - start
}

// RunAll fires events until none remain. A safety cap guards against
// runaway self-rescheduling loops; exceeding it panics, since an unbounded
// simulation indicates a bug, not load.
func (s *Scheduler) RunAll(maxEvents uint64) uint64 {
	start := s.fired
	for len(s.events) > 0 {
		if s.fired-start >= maxEvents {
			panic(fmt.Sprintf("simtime: exceeded %d events; runaway simulation", maxEvents))
		}
		s.Step()
	}
	return s.fired - start
}

// Pending returns the number of queued (uncancelled) events. Cancel removes
// events from the queue eagerly, so every queued node is live and this is
// O(1) — it used to scan the whole queue filtering cancelled entries.
func (s *Scheduler) Pending() int { return len(s.events) }

// NextAt returns the time of the next pending event, or Never.
func (s *Scheduler) NextAt() Time {
	if len(s.events) == 0 {
		return Never
	}
	return s.events[0].at
}

// --- 4-ary min-heap on (at, seq) --------------------------------------------
//
// Hand-rolled rather than container/heap so pops and removals stay free of
// interface boxing and so the scheduler controls node lifetimes exactly.
//
// The heap is 4-ary rather than binary: half the depth means half the
// sift-down levels per pop, and the four children sit in one cache line of
// the pointer slice. Sifting moves a single hole instead of swapping, so
// each level costs one write, not three. Because (at, seq) is a strict
// total order — seq never repeats — every valid heap pops the identical
// event sequence, so the shape change cannot perturb determinism.

const heapArity = 4

func lessNode(a, b *eventNode) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (s *Scheduler) push(n *eventNode) {
	s.events = append(s.events, n)
	s.up(len(s.events)-1, n)
}

func (s *Scheduler) popMin() *eventNode {
	n := s.events[0]
	last := len(s.events) - 1
	moved := s.events[last]
	s.events[last] = nil
	s.events = s.events[:last]
	if last > 0 {
		s.down(0, moved)
	}
	n.idx = -1
	return n
}

func (s *Scheduler) removeAt(i int) {
	n := s.events[i]
	last := len(s.events) - 1
	moved := s.events[last]
	s.events[last] = nil
	s.events = s.events[:last]
	if i < last {
		if !s.down(i, moved) {
			s.up(i, moved)
		}
	}
	n.idx = -1
}

// up sifts node n toward the root, starting from the hole at index i.
func (s *Scheduler) up(i int, n *eventNode) {
	for i > 0 {
		parent := (i - 1) / heapArity
		p := s.events[parent]
		if !lessNode(n, p) {
			break
		}
		s.events[i] = p
		p.idx = i
		i = parent
	}
	s.events[i] = n
	n.idx = i
}

// down sifts node n toward the leaves, starting from the hole at index i,
// reporting whether it moved.
func (s *Scheduler) down(i int, n *eventNode) bool {
	start := i
	size := len(s.events)
	for {
		first := heapArity*i + 1
		if first >= size {
			break
		}
		least, ln := first, s.events[first]
		end := first + heapArity
		if end > size {
			end = size
		}
		for c := first + 1; c < end; c++ {
			if lessNode(s.events[c], ln) {
				least, ln = c, s.events[c]
			}
		}
		if !lessNode(ln, n) {
			break
		}
		s.events[i] = ln
		ln.idx = i
		i = least
	}
	s.events[i] = n
	n.idx = i
	return i > start
}

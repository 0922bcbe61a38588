package simtime

import (
	"slices"
	"sort"
	"testing"
)

// The Scheduler is the one event executor, and every other result in the
// repository is checked against the order it fires in. It gets a reference
// of its own here: op streams — random ones, and whatever the fuzzer finds —
// are interpreted once against the 4-ary heap with its free list and
// generation-stamped handles and once against a sorted slice, and everything
// a caller can observe must agree after every step.

// handle is what both sides return from At and After: Event on the real
// side, *refEvent on the reference.
type handle interface {
	Pending() bool
	Cancelled() bool
	At() Time
}

// sched is what a program drives.
type sched interface {
	Now() Time
	Fired() uint64
	Pending() int
	NextAt() Time
	Halted() bool
	At(t Time, fn func()) handle
	After(d Time, fn func()) handle
	AtHandler(t Time, h Handler) handle
	AfterHandler(d Time, h Handler) handle
	Cancel(h handle)
	Step() bool
	Run(limit Time) uint64
	Halt()
	Resume()
}

// realSched is the Scheduler with its handles converted.
type realSched struct{ *Scheduler }

func (r realSched) At(t Time, fn func()) handle    { return r.Scheduler.At(t, fn) }
func (r realSched) After(d Time, fn func()) handle { return r.Scheduler.After(d, fn) }
func (r realSched) Cancel(h handle)                { r.Scheduler.Cancel(h.(Event)) }

func (r realSched) AtHandler(t Time, h Handler) handle    { return r.Scheduler.AtHandler(t, h) }
func (r realSched) AfterHandler(d Time, h Handler) handle { return r.Scheduler.AfterHandler(d, h) }

// --- the reference ----------------------------------------------------------

type refEvent struct {
	at        Time
	fn        func()
	queued    bool
	cancelled bool
}

func (e *refEvent) Pending() bool   { return e.queued }
func (e *refEvent) Cancelled() bool { return e.cancelled }
func (e *refEvent) At() Time        { return e.at }

// refSched keeps the queue as a slice in firing order. free models the one
// implementation detail a handle can observe: a fired or cancelled event's
// node is re-armed by a later event, last retired first, and from then on
// the old handle reads as the zero handle.
type refSched struct {
	now    Time
	fired  uint64
	halted bool
	queue  []*refEvent
	free   []*refEvent
}

func (r *refSched) Now() Time                      { return r.now }
func (r *refSched) Fired() uint64                  { return r.fired }
func (r *refSched) Pending() int                   { return len(r.queue) }
func (r *refSched) Halted() bool                   { return r.halted }
func (r *refSched) Halt()                          { r.halted = true }
func (r *refSched) Resume()                        { r.halted = false }
func (r *refSched) After(d Time, fn func()) handle { return r.At(r.now+d, fn) }

// The reference has no handlers: an owner is its Fire method.
func (r *refSched) AtHandler(t Time, h Handler) handle    { return r.At(t, h.Fire) }
func (r *refSched) AfterHandler(d Time, h Handler) handle { return r.At(r.now+d, h.Fire) }

func (r *refSched) NextAt() Time {
	if len(r.queue) == 0 {
		return Never
	}
	return r.queue[0].at
}

func (r *refSched) At(t Time, fn func()) handle {
	if k := len(r.free); k > 0 {
		*r.free[k-1] = refEvent{}
		r.free = r.free[:k-1]
	}
	e := &refEvent{at: t, fn: fn, queued: true}
	// Behind every event at or before t: equal times fire in scheduling order.
	i := sort.Search(len(r.queue), func(i int) bool { return r.queue[i].at > t })
	r.queue = slices.Insert(r.queue, i, e)
	return e
}

// retire takes queue[i] out of the queue and frees its node.
func (r *refSched) retire(i int) *refEvent {
	e := r.queue[i]
	r.queue = slices.Delete(r.queue, i, i+1)
	e.queued = false
	r.free = append(r.free, e)
	return e
}

func (r *refSched) Cancel(h handle) {
	if e := h.(*refEvent); e.queued {
		r.retire(slices.Index(r.queue, e)).cancelled = true
	}
}

func (r *refSched) Step() bool {
	if r.halted || len(r.queue) == 0 {
		return false
	}
	e := r.retire(0)
	r.now, r.fired = e.at, r.fired+1
	e.fn()
	return true
}

func (r *refSched) Run(limit Time) uint64 {
	start := r.fired
	for r.NextAt() <= limit && r.Step() {
	}
	// A halt with events still queued leaves the clock where it stopped.
	if (len(r.queue) == 0 || !r.halted) && r.now < limit {
		r.now = limit
	}
	return r.fired - start
}

// --- programs ----------------------------------------------------------------

// program interprets an op stream against one sched. Every choice it makes
// comes from the stream, so the Scheduler and the reference run the same
// program for as long as they agree, and the observation log shows the
// first step at which they do not.
type program struct {
	s       sched
	ops     []byte
	pc      int
	handles []handle // [0] is the side's zero handle, then every event in scheduling order
	owned   []int    // ids of the events scheduled with a pointer handler
	obs     []observation
	hobs    []handleState // every handle's state at every observation, flattened
	cover   coverage
}

// observation is everything a caller can see of the scheduler after one
// step; the handles' states follow in hobs.
type observation struct {
	what    string
	arg     int
	now     Time
	nextAt  Time
	fired   uint64
	pending int
	halted  bool
	handles int
}

type handleState struct {
	pending, cancelled bool
	at                 Time
}

// coverage counts the situations a program reached, so the random test can
// refuse to pass on programs too tame to mean anything.
type coverage map[string]int

// next returns the next op byte, or 0 once the stream is spent — which every
// switch below reads as "do nothing more", so a program always terminates.
func (p *program) next() int {
	if p.pc >= len(p.ops) {
		return 0
	}
	p.pc++
	return int(p.ops[p.pc-1])
}

func (p *program) observe(what string, arg int) {
	p.obs = append(p.obs, observation{what, arg, p.s.Now(), p.s.NextAt(), p.s.Fired(), p.s.Pending(), p.s.Halted(), len(p.handles)})
	for _, h := range p.handles {
		p.hobs = append(p.hobs, handleState{h.Pending(), h.Cancelled(), h.At()})
	}
}

// owner is a pointer handler: the event it owns runs the program's callback
// for its id, as a closure scheduled through At or After would.
type owner struct {
	p  *program
	id int
}

func (o *owner) Fire() { o.p.fire(o.id) }

// schedule adds an event d from now, through At or After — or, owned,
// through AtHandler or AfterHandler with a pointer owner — whose callback is
// the next stretch of the program.
func (p *program) schedule(d Time, after, owned bool) int {
	id := len(p.handles)
	if p.s.NextAt() == p.s.Now()+d {
		p.cover["equal timestamps"]++
	}
	var h handle
	switch {
	case owned && after:
		h = p.s.AfterHandler(d, &owner{p, id})
	case owned:
		h = p.s.AtHandler(p.s.Now()+d, &owner{p, id})
	case after:
		h = p.s.After(d, func() { p.fire(id) })
	default:
		h = p.s.At(p.s.Now()+d, func() { p.fire(id) })
	}
	if owned {
		p.cover["handler scheduled"]++
		p.owned = append(p.owned, id)
	}
	p.handles = append(p.handles, h)
	p.observe("schedule", id)
	return id
}

func (p *program) cancel(id int) {
	switch h := p.handles[id]; {
	case h.Pending():
		p.cover["cancel pending"]++
	case h.At() != 0:
		p.cover["cancel fired or cancelled"]++
	case id != 0:
		p.cover["cancel stale"]++ // its node was re-armed by a later event
	default:
		p.cover["cancel zero handle"]++
	}
	p.s.Cancel(p.handles[id])
	p.observe("cancel", id)
}

// fire is the callback of event id: up to three actions from inside it.
func (p *program) fire(id int) {
	p.observe("fire", id)
	for n := p.next() % 4; n > 0; n-- {
		switch p.next() % 8 {
		case 0:
			p.cover["After(0) in a callback"]++
			p.schedule(0, true, false)
		case 1, 2:
			p.schedule(Time(p.next()%4), false, false)
		case 3:
			p.cover["cancel self in a callback"]++
			p.cancel(id)
		case 4, 5:
			p.cover["cancel other in a callback"]++
			p.cancel(p.next() % len(p.handles))
		case 6:
			p.s.Halt()
			p.observe("halt in callback", id)
		case 7:
			// A decoy cancelled at once: its node is free again for whatever
			// is scheduled next, under a new generation.
			p.cancel(p.schedule(Time(1+p.next()%4), true, false))
		}
	}
}

// run interprets the whole stream from outside any callback, then drains
// what is left.
func (p *program) run() {
	// Off time 0, so that At() == 0 is only ever read from a stale handle.
	p.observe("run", int(p.s.Run(1)))
	for p.pc < len(p.ops) {
		// Op bytes below 16 keep the meaning they had before the two handler
		// kinds were added, so the committed fuzz seeds still replay as made.
		switch op := p.next() % 18; op {
		case 0, 1, 2:
			p.schedule(Time(p.next()%4), false, false)
		case 3:
			p.schedule(Time(8+p.next()%24), false, false) // far enough ahead to be cancelled while pending
		case 4, 5:
			p.schedule(Time(p.next()%4), true, false)
		case 6, 7, 8:
			p.cancel(p.next() % len(p.handles))
		case 9, 10:
			p.s.Step()
			p.observe("step", 0)
		case 11, 12:
			// Never a limit in the past: Run is only ever asked to go forward.
			limit := p.s.Now() + Time(p.next()%6)
			n := p.s.Run(limit)
			switch {
			case p.s.Halted() && n > 0:
				p.cover["Halt inside Run"]++
			case p.s.Pending() > 0:
				p.cover["Run stopped mid-queue"]++
			}
			p.observe("run", int(n))
		case 13:
			p.s.Halt()
			p.observe("halt", 0)
		case 14, 15:
			p.s.Resume()
			p.observe("resume", 0)
		case 16:
			d := p.next()
			p.schedule(Time(d%4), d&4 != 0, true)
		case 17:
			if len(p.owned) == 0 {
				p.cancel(0)
				break
			}
			id := p.owned[p.next()%len(p.owned)]
			if p.handles[id].Pending() {
				p.cover["cancel pending handler event"]++
			}
			p.cancel(id)
		}
	}
	p.s.Resume()
	p.observe("drain", int(p.s.Run(p.s.Now()+1<<20)))
}

// checkAgainstReference runs ops on the Scheduler and on the reference and
// fails at the first observation on which they differ.
func checkAgainstReference(t *testing.T, ops []byte) coverage {
	t.Helper()
	got := &program{s: realSched{NewScheduler()}, ops: ops, handles: []handle{Event{}}, cover: coverage{}}
	want := &program{s: &refSched{}, ops: ops, handles: []handle{&refEvent{}}, cover: coverage{}}
	got.run()
	want.run()
	h := 0
	for i := 0; i < len(got.obs) && i < len(want.obs); i++ {
		g, w := got.obs[i], want.obs[i]
		if g != w {
			t.Fatalf("ops %x: observation %d:\n got %+v\nwant %+v", ops, i, g, w)
		}
		for id := 0; id < g.handles; id, h = id+1, h+1 {
			if got.hobs[h] != want.hobs[h] {
				t.Fatalf("ops %x: observation %d (%s %d): handle %d:\n got %+v\nwant %+v",
					ops, i, g.what, g.arg, id, got.hobs[h], want.hobs[h])
			}
		}
	}
	if len(got.obs) != len(want.obs) {
		t.Fatalf("ops %x: %d observations, reference made %d", ops, len(got.obs), len(want.obs))
	}
	if n := got.s.Pending(); n != 0 {
		t.Fatalf("ops %x: %d events still queued after the drain", ops, n)
	}
	return want.cover
}

func TestSchedulerMatchesReferenceModel(t *testing.T) {
	total := coverage{}
	for seed := uint64(1); seed <= 256; seed++ {
		state := seed
		ops := make([]byte, 48+seed%112)
		for i := range ops {
			ops[i] = byte(splitmix64(&state) >> 56)
		}
		for what, n := range checkAgainstReference(t, ops) {
			total[what] += n
		}
	}
	t.Log(total)
	for _, what := range []string{
		"equal timestamps", "After(0) in a callback",
		"cancel pending", "cancel fired or cancelled", "cancel stale", "cancel zero handle",
		"cancel self in a callback", "cancel other in a callback",
		"Run stopped mid-queue", "Halt inside Run",
		"handler scheduled", "cancel pending handler event",
	} {
		if total[what] < 50 {
			t.Errorf("programs too tame: %q reached %d times", what, total[what])
		}
	}
}

// splitmix64 advances *x and returns the next value of a SplitMix64 stream.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// FuzzScheduler runs the same differential check over arbitrary op bytes.
func FuzzScheduler(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		checkAgainstReference(t, ops)
	})
}

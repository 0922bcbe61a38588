package simtime

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if FromMillis(1.5) != 1500*Microsecond {
		t.Fatalf("FromMillis(1.5) = %v", FromMillis(1.5))
	}
	if FromSeconds(2) != 2*Second {
		t.Fatalf("FromSeconds(2) = %v", FromSeconds(2))
	}
	if got := (250 * Millisecond).Seconds(); got != 0.25 {
		t.Fatalf("Seconds = %v", got)
	}
	if got := (250 * Microsecond).Milliseconds(); got != 0.25 {
		t.Fatalf("Milliseconds = %v", got)
	}
	if Never.String() != "never" {
		t.Fatalf("Never.String() = %q", Never.String())
	}
	if s := (1500 * Microsecond).String(); s != "1.500ms" {
		t.Fatalf("String = %q", s)
	}
}

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	// Same-time events fire in scheduling order.
	s.At(20, func() { order = append(order, 4) })
	s.RunAll(100)
	want := []int{1, 2, 4, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != 30 {
		t.Fatalf("Now = %v", s.Now())
	}
}

func TestSchedulerAfterAndCancel(t *testing.T) {
	s := NewScheduler()
	fired := 0
	s.After(5, func() { fired++ })
	e := s.After(6, func() { fired++ })
	s.Cancel(e)
	if !e.Cancelled() {
		t.Fatal("event not marked cancelled")
	}
	s.Cancel(e) // double-cancel is a no-op
	s.RunAll(10)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
}

func TestSchedulerCancelFromWithinEvent(t *testing.T) {
	s := NewScheduler()
	fired := 0
	var e2 Event
	s.At(1, func() { s.Cancel(e2) })
	e2 = s.At(2, func() { fired++ })
	s.At(3, func() { fired++ })
	s.RunAll(10)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
}

func TestSchedulerPastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(10, func() {})
	s.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(5, func() {})
}

func TestSchedulerRunLimit(t *testing.T) {
	s := NewScheduler()
	fired := 0
	for i := Time(1); i <= 10; i++ {
		s.At(i*10, func() { fired++ })
	}
	n := s.Run(35)
	if n != 3 || fired != 3 {
		t.Fatalf("fired %d events, want 3", fired)
	}
	if s.Now() != 35 {
		t.Fatalf("Now = %v, want 35", s.Now())
	}
	if s.Pending() != 7 {
		t.Fatalf("Pending = %d, want 7", s.Pending())
	}
	if s.NextAt() != 40 {
		t.Fatalf("NextAt = %v, want 40", s.NextAt())
	}
	s.Run(1000)
	if fired != 10 {
		t.Fatalf("fired = %d, want 10", fired)
	}
	if s.Now() != 1000 {
		t.Fatalf("Now advanced to %v, want limit 1000", s.Now())
	}
	if s.NextAt() != Never {
		t.Fatalf("NextAt on empty queue = %v", s.NextAt())
	}
}

// Run with a limit the clock has passed fires nothing and leaves the clock
// where it is: the clock never moves backward, and a queued event still
// fires at its own time.
func TestSchedulerRunPastLimitKeepsClock(t *testing.T) {
	s := NewScheduler()
	var at []Time
	for _, when := range []Time{10, 20} {
		s.At(when, func() { at = append(at, s.Now()) })
	}
	s.Run(10)
	if n := s.Run(5); n != 0 {
		t.Fatalf("Run(5) at %v fired %d events", s.Now(), n)
	}
	if s.Now() != 10 {
		t.Fatalf("Run(5) after Run(10) left Now at %d ns, want 10", int64(s.Now()))
	}
	s.RunAll(10)
	if len(at) != 2 || at[0] != 10 || at[1] != 20 {
		t.Fatalf("events fired at %v, want [10 20]", at)
	}
}

func TestSchedulerRunAllCap(t *testing.T) {
	s := NewScheduler()
	var loop func()
	loop = func() { s.After(1, loop) }
	s.After(1, loop)
	defer func() {
		if recover() == nil {
			t.Fatal("runaway simulation did not panic")
		}
	}()
	s.RunAll(100)
}

func TestSchedulerReschedulesDuringEvent(t *testing.T) {
	// An event scheduling another event at the same timestamp must still
	// fire it (FIFO within a timestamp).
	s := NewScheduler()
	var order []string
	s.At(10, func() {
		order = append(order, "a")
		s.At(10, func() { order = append(order, "b") })
	})
	s.RunAll(10)
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("order = %v", order)
	}
}

func TestSchedulerPendingCounts(t *testing.T) {
	// Regression test for the Pending O(n) scan fix: Pending must keep its
	// exact semantics — the number of scheduled, uncancelled, unfired
	// events — through every combination of At, Cancel, and Step.
	s := NewScheduler()
	if s.Pending() != 0 {
		t.Fatalf("Pending on empty scheduler = %d", s.Pending())
	}
	var evs []Event
	for i := Time(1); i <= 10; i++ {
		evs = append(evs, s.At(i*10, func() {}))
	}
	if s.Pending() != 10 {
		t.Fatalf("Pending = %d, want 10", s.Pending())
	}
	s.Cancel(evs[3])
	s.Cancel(evs[7])
	s.Cancel(evs[7]) // double-cancel must not double-count
	if s.Pending() != 8 {
		t.Fatalf("Pending after 2 cancels = %d, want 8", s.Pending())
	}
	s.Step()
	s.Step()
	if s.Pending() != 6 {
		t.Fatalf("Pending after 2 steps = %d, want 6", s.Pending())
	}
	s.RunAll(100)
	if s.Pending() != 0 {
		t.Fatalf("Pending after RunAll = %d, want 0", s.Pending())
	}
	// Cancelling a long-fired handle is a no-op and must not go negative.
	s.Cancel(evs[0])
	if s.Pending() != 0 {
		t.Fatalf("Pending after stale cancel = %d, want 0", s.Pending())
	}
}

func TestSchedulerFreeListReuse(t *testing.T) {
	// The free list must reuse event nodes without letting a stale handle
	// cancel the event that now occupies the recycled node.
	s := NewScheduler()
	stale := s.At(1, func() {})
	s.RunAll(10) // fires `stale`; its node returns to the free list
	fired := 0
	fresh := s.At(2, func() { fired++ })
	// The recycled node backs `fresh` now; cancelling through the stale
	// handle must not touch it.
	s.Cancel(stale)
	if stale.Pending() || stale.Cancelled() {
		t.Fatal("stale handle reports live state")
	}
	if !fresh.Pending() {
		t.Fatal("fresh event lost by stale cancel")
	}
	s.RunAll(10)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
}

func TestSchedulerExecutingHandle(t *testing.T) {
	// While an event's callback runs the event is neither pending nor
	// cancellable: its handle reports Pending() false and Cancel through it
	// changes nothing — not the queue and, once the callback has scheduled
	// something that re-armed its node, not that new event either.
	cases := []struct {
		name  string
		drive func(*Scheduler)
		rearm bool
	}{
		{"Step", func(s *Scheduler) { s.Step() }, false},
		{"Run", func(s *Scheduler) { s.Run(10) }, false},
		{"RunAll", func(s *Scheduler) { s.RunAll(10) }, false},
		{"Step, node re-armed", func(s *Scheduler) { s.Step() }, true},
		{"Run, node re-armed", func(s *Scheduler) { s.Run(10) }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewScheduler()
			ran, nextFired := false, false
			var self Event
			self = s.At(10, func() {
				ran = true
				var next Event
				if tc.rearm {
					next = s.After(5, func() { nextFired = true })
				}
				if self.Pending() || self.Cancelled() {
					t.Errorf("executing event: Pending %v Cancelled %v, want false false", self.Pending(), self.Cancelled())
				}
				queued := s.Pending()
				s.Cancel(self)
				if self.Pending() || self.Cancelled() {
					t.Errorf("after Cancel: Pending %v Cancelled %v, want false false", self.Pending(), self.Cancelled())
				}
				if s.Pending() != queued {
					t.Errorf("Cancel of the executing event changed the queue: %d -> %d", queued, s.Pending())
				}
				if tc.rearm && !next.Pending() {
					t.Error("Cancel of the executing event removed the event that re-armed its node")
				}
			})
			tc.drive(s)
			if !ran || s.Fired() != 1 {
				t.Fatalf("ran %v, Fired %d, want true 1", ran, s.Fired())
			}
			s.RunAll(10)
			if nextFired != tc.rearm {
				t.Fatalf("event scheduled from the callback fired: %v, want %v", nextFired, tc.rearm)
			}
		})
	}
}

func TestSchedulerNoAllocSteadyState(t *testing.T) {
	// Once the free list is primed, schedule/fire cycles must not allocate.
	s := NewScheduler()
	fn := func() {}
	for i := 0; i < 64; i++ {
		s.After(1, fn)
	}
	s.RunAll(1000)
	avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < 32; i++ {
			s.After(Time(i), fn)
		}
		s.RunAll(1000)
	})
	if avg > 0.5 {
		t.Fatalf("steady-state scheduling allocates %.1f allocs/run, want 0", avg)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collide too often: %d/1000", same)
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(7)
	if err := quick.Check(func(_ int) bool {
		f := r.Float64()
		return f >= 0 && f < 1
	}, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(9)
	for n := 1; n < 50; n++ {
		for i := 0; i < 100; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d", n, v)
			}
		}
	}
}

func TestRandIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestRandExpMean(t *testing.T) {
	r := NewRand(1234)
	const mean = 10 * Millisecond
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		d := r.Exp(mean)
		if d < 0 {
			t.Fatalf("negative exponential sample %v", d)
		}
		sum += float64(d)
	}
	got := sum / n
	if math.Abs(got-float64(mean))/float64(mean) > 0.02 {
		t.Fatalf("Exp mean = %v, want ~%v", Time(got), mean)
	}
	if r.Exp(0) != 0 {
		t.Fatal("Exp(0) != 0")
	}
}

func TestRandBoolProbability(t *testing.T) {
	r := NewRand(5)
	n, hits := 100000, 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / float64(n)
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency = %v", p)
	}
}

func TestRandFork(t *testing.T) {
	a := NewRand(11)
	b := NewRand(11)
	fa, fb := a.Fork(), b.Fork()
	for i := 0; i < 100; i++ {
		if fa.Uint64() != fb.Uint64() {
			t.Fatal("forks of identical parents diverged")
		}
	}
	// Fork stream differs from parent stream.
	if a.Uint64() == fa.Uint64() {
		t.Log("parent and fork coincide once; acceptable but unusual")
	}
}

package simtime

import (
	"fmt"
	"slices"
	"testing"
)

// pipeScript runs one script of sends and foreign events and returns what
// fired, in order, with the clock at each firing. viaPipe sends through a
// Pipe; otherwise each send schedules a closure capturing its value, which
// is what a Pipe replaces. The script has equal send times, foreign events
// scheduled before and after a send at the same time, a send from inside a
// foreign event and a send from inside the pipe's own function.
func pipeScript(viaPipe bool) ([]string, uint64) {
	s := NewScheduler()
	var got []string
	var send func(t Time, v int)
	deliver := func(v int) {
		got = append(got, fmt.Sprintf("v%d@%d", v, s.Now()))
		if v == 6 {
			send(20, 60)
		}
	}
	if viaPipe {
		p := NewPipe(s, deliver)
		send = p.At
	} else {
		send = func(t Time, v int) { s.At(t, func() { deliver(v) }) }
	}
	foreign := func(name string, t Time, then func()) {
		s.At(t, func() {
			got = append(got, fmt.Sprintf("%s@%d", name, s.Now()))
			if then != nil {
				then()
			}
		})
	}
	for i, t := range []Time{5, 5, 5, 7, 9, 9, 12} {
		if i%2 == 0 {
			foreign(fmt.Sprintf("f%d", i), t, nil)
			send(t, i)
		} else {
			send(t, i)
			foreign(fmt.Sprintf("f%d", i), t-1, nil)
		}
	}
	foreign("g", 7, func() { send(12, 50) })
	s.RunAll(100)
	return got, s.Fired()
}

// TestPipeMatchesClosures: a Pipe fires the events a closure per value would,
// at the same times and in the same order among everything else scheduled.
func TestPipeMatchesClosures(t *testing.T) {
	want, wantFired := pipeScript(false)
	got, gotFired := pipeScript(true)
	if !slices.Equal(got, want) || gotFired != wantFired {
		t.Fatalf("pipe fired %d events:\n%v\nclosures fired %d:\n%v", gotFired, got, wantFired, want)
	}
	var vals []string
	for _, g := range got {
		if g[0] == 'v' {
			vals = append(vals, g)
		}
	}
	if w := []string{"v0@5", "v1@5", "v2@5", "v3@7", "v4@9", "v5@9", "v6@12", "v50@12", "v60@20"}; !slices.Equal(vals, w) {
		t.Fatalf("values arrived as %v, want %v", vals, w)
	}
}

func TestPipePanicsWhenTimeDecreases(t *testing.T) {
	s := NewScheduler()
	p := NewPipe(s, func(int) {})
	p.At(10, 1)
	p.At(10, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("a send earlier than its predecessor did not panic")
		}
		if p.n != 2 || s.Pending() != 2 {
			t.Fatalf("the refused send left %d values and %d events queued, want 2 and 2", p.n, s.Pending())
		}
	}()
	p.At(9, 3)
}

// TestPipeSteadyStateAllocs: once the ring has grown to the deepest backlog,
// a send and its delivery allocate nothing.
func TestPipeSteadyStateAllocs(t *testing.T) {
	s := NewScheduler()
	got := 0
	p := NewPipe(s, func(v int) { got += v })
	for i := 0; i < 64; i++ {
		p.At(1, 1)
	}
	s.RunAll(1000)
	avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < 32; i++ {
			p.At(s.Now()+Time(i/4), 1)
		}
		s.RunAll(1000)
	})
	if avg != 0 {
		t.Fatalf("steady-state pipe sends allocate %.1f allocs/run, want 0", avg)
	}
	if want := 64 + 32*201; got != want {
		t.Fatalf("delivered %d values, want %d", got, want)
	}
}

// TestPipeZeroesVacatedSlots: a delivered value's slot is cleared, so the
// ring does not keep what it carried alive.
func TestPipeZeroesVacatedSlots(t *testing.T) {
	s := NewScheduler()
	p := NewPipe(s, func(*int) {})
	for i := 0; i < 5; i++ {
		p.At(Time(i), new(int))
	}
	s.Run(1)
	held := 0
	for _, v := range p.buf {
		if v != nil {
			held++
		}
	}
	if p.n != 3 || held != 3 {
		t.Fatalf("after two deliveries: %d queued, %d slots hold a value; want 3 and 3", p.n, held)
	}
	s.RunAll(10)
	for i, v := range p.buf {
		if v != nil {
			t.Fatalf("slot %d still holds a delivered value", i)
		}
	}
}

// TestPipeQueuedVisitsWaitingValuesInOrder: Queued walks only the values
// not yet delivered, oldest first across the ring's wrap, and a change it
// makes is what the pipe's function receives.
func TestPipeQueuedVisitsWaitingValuesInOrder(t *testing.T) {
	s := NewScheduler()
	var got []int
	p := NewPipe(s, func(v int) { got = append(got, v) })
	for i := 0; i < 4; i++ {
		p.At(Time(i), i)
	}
	s.Run(2) // delivers 0, 1, 2
	p.At(5, 5)
	p.At(6, 6) // wraps the four-slot ring
	var seen []int
	p.Queued(func(v *int) {
		seen = append(seen, *v)
		*v *= 10
	})
	if want := []int{3, 5, 6}; !slices.Equal(seen, want) {
		t.Fatalf("Queued visited %v, want %v", seen, want)
	}
	s.RunAll(10)
	if want := []int{0, 1, 2, 30, 50, 60}; !slices.Equal(got, want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
}

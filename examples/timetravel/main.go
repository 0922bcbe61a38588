// Timetravel: §6.5's replay debugger. "One of the great problems of
// distributed debugging is finding out what happened after the fact. ...
// A programmer would like some way of backing up a process to the point
// where the problem originally occurred."
//
// A stock-tracker process keeps a running minimum/maximum over a feed of
// prices and has a planted bug: it mishandles one specific input. We let it
// run live (the bad state silently corrupts), then open a debugging session
// against its published history, single-step with a breakpoint on the first
// step whose output disagrees with a reference model, and pinpoint the
// culprit message — without touching the live process.
//
// Run: go run ./examples/timetravel
package main

import (
	"fmt"
	"os"

	"publishing"
	"publishing/internal/debugger"
	"publishing/internal/frame"
)

// trackerState is the stock tracker's state.
type trackerState struct {
	Out      publishing.LinkID
	HasOut   bool
	Min, Max int
	Seen     int
}

// codeTracker codes the state field by field. The tracker's Snapshot and
// Restore run it, and so does the debugging session below to read the
// state after each replayed step.
func codeTracker(c *frame.Coder, st *trackerState) {
	frame.Int(c, &st.Out)
	c.Bool(&st.HasOut)
	frame.Int(c, &st.Min)
	frame.Int(c, &st.Max)
	frame.Int(c, &st.Seen)
}

type tracker struct{ st trackerState }

func (t *tracker) Init(ctx *publishing.PCtx) {
	t.st.Min = 1 << 30
	t.st.Max = -(1 << 30)
	if l, err := ctx.ServiceLink("display"); err == nil {
		t.st.Out = l
		t.st.HasOut = true
	}
}

func (t *tracker) Handle(ctx *publishing.PCtx, m publishing.Msg) {
	price := int(m.Body[0])
	t.st.Seen++
	// The planted bug: price 42 is compared with the wrong sign, so the
	// minimum can be corrupted upward.
	if price == 42 {
		if price > t.st.Min { // should be <
			t.st.Min = price
		}
	} else {
		if price < t.st.Min {
			t.st.Min = price
		}
	}
	if price > t.st.Max {
		t.st.Max = price
	}
	if t.st.HasOut {
		_ = ctx.Send(t.st.Out, []byte(fmt.Sprintf("after %d ticks: min=%d max=%d", t.st.Seen, t.st.Min, t.st.Max)), publishing.NoLink)
	}
}

func (t *tracker) Snapshot() ([]byte, error) { return frame.AppendBody(nil, &t.st, codeTracker), nil }
func (t *tracker) Restore(b []byte) error    { return frame.DecodeBody(b, &t.st, codeTracker) }

func main() {
	prices := []int{50, 47, 44, 42, 45, 48, 41, 49}

	cfg := publishing.DefaultConfig(2)
	c := publishing.New(cfg)
	c.Registry().RegisterMachine("tracker", func(args []byte) publishing.Machine { return &tracker{} })
	c.Registry().RegisterMachine("display", func(args []byte) publishing.Machine { return display{} })
	c.Registry().RegisterProgram("feed", func(args []byte) publishing.Program {
		return func(ctx *publishing.PCtx) {
			l, _ := ctx.ServiceLink("tracker")
			for _, p := range prices {
				_ = ctx.Send(l, []byte{byte(p)}, publishing.NoLink)
				ctx.Compute(100 * publishing.Millisecond)
			}
		}
	})

	disp, err := c.Spawn(1, publishing.ProcSpec{Name: "display", Recoverable: true})
	check(err)
	c.SetService("display", disp)
	trk, err := c.Spawn(0, publishing.ProcSpec{Name: "tracker", Recoverable: true})
	check(err)
	c.SetService("tracker", trk)
	_, err = c.Spawn(1, publishing.ProcSpec{Name: "feed", Recoverable: true})
	check(err)

	c.Run(30 * publishing.Second)
	fmt.Printf("live run done over prices %v\n", prices)
	fmt.Println("the reported minimum is wrong; opening a replay-debugging session...")

	// Reference model for the breakpoint predicate.
	refMin := func(upto int) int {
		min := 1 << 30
		for _, p := range prices[:upto] {
			if p < min {
				min = p
			}
		}
		return min
	}

	sess, err := c.DebugSession(trk, false)
	check(err)
	res, found := sess.RunUntil(func(r debugger.StepResult) bool {
		var st trackerState
		if r.State == nil || frame.DecodeBody(r.State, &st, codeTracker) != nil {
			return false
		}
		return st.Min != refMin(r.Position)
	})
	if !found {
		fmt.Println("no divergence found — UNEXPECTED")
		os.Exit(1)
	}
	fmt.Printf("\nbreakpoint hit at step %d:\n", res.Position)
	fmt.Printf("  offending message: price=%d from %s (%s)\n",
		res.Delivered.Body[0], res.Delivered.From, res.Delivered.ID)
	for _, o := range res.Outputs {
		fmt.Printf("  process output at that step: %s\n", o)
	}
	var st trackerState
	check(frame.DecodeBody(res.State, &st, codeTracker))
	fmt.Printf("  state after step: min=%d (reference says %d)\n", st.Min, refMin(res.Position))

	if res.Delivered.Body[0] == 42 {
		fmt.Println("\nthe published history pinpointed the bad input without touching the live system ✓")
	} else {
		fmt.Println("\nUNEXPECTED RESULT")
		os.Exit(1)
	}
}

type display struct{}

func (display) Init(ctx *publishing.PCtx)                     {}
func (display) Handle(ctx *publishing.PCtx, m publishing.Msg) {}
func (display) Snapshot() ([]byte, error)                     { return nil, nil }
func (display) Restore(b []byte) error                        { return nil }

func check(err error) {
	if err != nil {
		panic(err)
	}
}

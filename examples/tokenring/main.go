// Tokenring: the §6.1.2 medium. The recorder's acknowledge field rides in
// every ring slot: a frame is unreadable until the recorder has filled it,
// and a destination that sits upstream of the recorder reads the frame on
// its second pass around the ring. This example runs the standard
// crash-and-recover pipeline on a ring and then shows the recorder-failure
// behaviour: with the recorder down, slots circulate with empty acknowledge
// fields and nobody may consume them — traffic suspends, then resumes on
// restart.
//
// Run: go run ./examples/tokenring
package main

import (
	"fmt"
	"os"

	"publishing"
)

func main() {
	cfg := publishing.DefaultConfig(3)
	cfg.Medium = publishing.MediumRing
	c := publishing.New(cfg)

	var got []string
	c.Registry().RegisterMachine("sink", func(args []byte) publishing.Machine {
		return sink{collect: func(s string) { got = append(got, s) }}
	})
	c.Registry().RegisterMachine("relay", func(args []byte) publishing.Machine {
		return &relay{}
	})
	c.Registry().RegisterProgram("source", func(args []byte) publishing.Program {
		return func(ctx *publishing.PCtx) {
			l, _ := ctx.ServiceLink("relay")
			for i := 1; i <= 12; i++ {
				_ = ctx.Send(l, []byte{byte(i)}, publishing.NoLink)
				ctx.Compute(250 * publishing.Millisecond)
			}
		}
	})

	snk, err := c.Spawn(2, publishing.ProcSpec{Name: "sink", Recoverable: true})
	check(err)
	c.SetService("sink", snk)
	rel, err := c.Spawn(1, publishing.ProcSpec{Name: "relay", Recoverable: true})
	check(err)
	c.SetService("relay", rel)
	_, err = c.Spawn(0, publishing.ProcSpec{Name: "source", Recoverable: true})
	check(err)

	// Crash the relay mid-stream; ring replay recovers it.
	c.Scheduler().At(1100*publishing.Millisecond, func() {
		fmt.Println("*** relay crashes ***")
		c.CrashProcess(rel)
	})
	// Then take the recorder down and watch the ring seize.
	c.Scheduler().At(5*publishing.Second, func() {
		fmt.Println("*** recorder crashes: empty ack fields, ring unusable ***")
		c.CrashRecorder()
	})
	c.Run(8 * publishing.Second)
	blocked := len(got)
	c.Run(3 * publishing.Second)
	seized := len(got) == blocked
	fmt.Printf("while recorder down: sink stuck at %d messages (ring seized: %v)\n", blocked, seized)
	check(c.RestartRecorder())
	fmt.Println("*** recorder restarted ***")
	c.Run(2 * publishing.Minute)

	fmt.Printf("sink finally received %d messages: %v\n", len(got), got)
	stats := c.Medium().Stats()
	fmt.Printf("ring stats: %v\n", stats)

	ok := len(got) == 12 && seized
	for i, s := range got {
		if s != fmt.Sprintf("relayed %d", i+1) {
			ok = false
		}
	}
	if ok {
		fmt.Println("\nexactly-once, in-order delivery across a process crash and a recorder outage, on a token ring ✓")
	} else {
		fmt.Println("\nUNEXPECTED RESULT")
		os.Exit(1)
	}
}

// relay forwards each value to the sink with its own counter attached.
type relay struct {
	st struct {
		Sink   publishing.LinkID
		HasOut bool
		N      int
	}
}

func (r *relay) Init(ctx *publishing.PCtx) {
	if l, err := ctx.ServiceLink("sink"); err == nil {
		r.st.Sink = l
		r.st.HasOut = true
	}
}
func (r *relay) Handle(ctx *publishing.PCtx, m publishing.Msg) {
	r.st.N++
	if r.st.HasOut {
		_ = ctx.Send(r.st.Sink, []byte(fmt.Sprintf("relayed %d", r.st.N)), publishing.NoLink)
	}
}
func (r *relay) Snapshot() ([]byte, error) {
	return []byte{byte(r.st.N), b2b(r.st.HasOut), byte(r.st.Sink)}, nil
}
func (r *relay) Restore(b []byte) error {
	r.st.N = int(b[0])
	r.st.HasOut = b[1] == 1
	r.st.Sink = publishing.LinkID(b[2])
	return nil
}

func b2b(b bool) byte {
	if b {
		return 1
	}
	return 0
}

type sink struct{ collect func(string) }

func (s sink) Init(ctx *publishing.PCtx)                     {}
func (s sink) Handle(ctx *publishing.PCtx, m publishing.Msg) { s.collect(string(m.Body)) }
func (s sink) Snapshot() ([]byte, error)                     { return nil, nil }
func (s sink) Restore(b []byte) error                        { return nil }

func check(err error) {
	if err != nil {
		panic(err)
	}
}

// Quickstart: the paper's headline behaviour in ~100 lines.
//
// A counter process accumulates values a producer sends it, reporting each
// step to a logger process. Halfway through, we crash the counter with a
// simulated fault. The recorder detects the crash, recreates the counter
// from its initial image, replays its published messages (the counter
// recomputes its state), suppresses the outputs it re-sends, and hands it
// back to the network — the logger sees every step exactly once, in order,
// as if nothing had happened.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"publishing"
	"publishing/internal/frame"
)

// counterState is the counter's checkpointable state.
type counterState struct {
	Logger publishing.LinkID
	HasLog bool
	Count  int
	Sum    int
}

// codeCounter codes the state field by field: Snapshot writes it, Restore
// reads it back.
func codeCounter(c *frame.Coder, st *counterState) {
	frame.Int(c, &st.Logger)
	c.Bool(&st.HasLog)
	frame.Int(c, &st.Count)
	frame.Int(c, &st.Sum)
}

// counter is a Machine: one message at a time, explicit state.
type counter struct{ st counterState }

func (c *counter) Init(ctx *publishing.PCtx) {
	if l, err := ctx.ServiceLink("logger"); err == nil {
		c.st.Logger = l
		c.st.HasLog = true
	}
}

func (c *counter) Handle(ctx *publishing.PCtx, m publishing.Msg) {
	c.st.Count++
	c.st.Sum += int(m.Body[0])
	if c.st.HasLog {
		line := fmt.Sprintf("step %2d: sum = %d", c.st.Count, c.st.Sum)
		_ = ctx.Send(c.st.Logger, []byte(line), publishing.NoLink)
	}
}

func (c *counter) Snapshot() ([]byte, error) { return frame.AppendBody(nil, &c.st, codeCounter), nil }

func (c *counter) Restore(b []byte) error { return frame.DecodeBody(b, &c.st, codeCounter) }

func main() {
	cfg := publishing.DefaultConfig(3) // nodes 0..2 + recorder on node 3
	c := publishing.New(cfg)

	var lines []string
	c.Registry().RegisterMachine("counter", func(args []byte) publishing.Machine {
		return &counter{}
	})
	c.Registry().RegisterMachine("logger", func(args []byte) publishing.Machine {
		return loggerMachine{collect: func(s string) { lines = append(lines, s) }}
	})
	c.Registry().RegisterProgram("producer", func(args []byte) publishing.Program {
		return func(ctx *publishing.PCtx) {
			target, err := ctx.ServiceLink("counter")
			if err != nil {
				panic(err)
			}
			for i := 1; i <= 10; i++ {
				_ = ctx.Send(target, []byte{byte(i)}, publishing.NoLink)
				ctx.Compute(200 * publishing.Millisecond)
			}
		}
	})

	logger, err := c.Spawn(2, publishing.ProcSpec{Name: "logger", Recoverable: true})
	check(err)
	c.SetService("logger", logger)
	cnt, err := c.Spawn(1, publishing.ProcSpec{Name: "counter", Recoverable: true})
	check(err)
	c.SetService("counter", cnt)
	_, err = c.Spawn(0, publishing.ProcSpec{Name: "producer", Recoverable: true})
	check(err)

	// Crash the counter after ~5 messages.
	c.Scheduler().At(1100*publishing.Millisecond, func() {
		fmt.Println("*** injecting fault into the counter ***")
		c.CrashProcess(cnt)
	})

	c.Run(60 * publishing.Second)

	fmt.Println("logger received:")
	for _, l := range lines {
		fmt.Println("   ", l)
	}
	st := c.Recorder().Stats()
	fmt.Printf("\nrecorder: %d messages published, %d replayed, %d recoveries completed\n",
		st.ArrivalsRecorded, st.MessagesReplayed, st.RecoveriesCompleted)
	fmt.Printf("kernel on node 1 suppressed %d duplicate outputs during re-execution\n",
		c.Kernel(1).Stats().Suppressed)
	if len(lines) == 10 && lines[9] == "step 10: sum = 55" {
		fmt.Println("\ntransparent recovery: the crash left no trace in the computation ✓")
	} else {
		fmt.Println("\nUNEXPECTED RESULT — recovery failed")
		os.Exit(1)
	}
}

// loggerMachine prints and collects lines.
type loggerMachine struct{ collect func(string) }

func (l loggerMachine) Init(ctx *publishing.PCtx) {}
func (l loggerMachine) Handle(ctx *publishing.PCtx, m publishing.Msg) {
	l.collect(string(m.Body))
}
func (l loggerMachine) Snapshot() ([]byte, error) { return nil, nil }
func (l loggerMachine) Restore(b []byte) error    { return nil }

func check(err error) {
	if err != nil {
		panic(err)
	}
}

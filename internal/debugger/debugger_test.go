package debugger_test

import (
	"fmt"
	"strings"
	"testing"

	"publishing"
	"publishing/internal/debugger"
	"publishing/internal/demos"
	"publishing/internal/frame"
	"publishing/internal/simtime"
)

// accumulator sums message values and reports each step to a peer.
type accState struct {
	Out    demos.LinkID
	HasOut bool
	Sum    int
}

func codeAcc(c *frame.Coder, st *accState) {
	frame.Int(c, &st.Out)
	c.Bool(&st.HasOut)
	frame.Int(c, &st.Sum)
}

type accMachine struct{ st accState }

func (a *accMachine) Init(ctx *demos.PCtx) {
	if l, err := ctx.ServiceLink("peer"); err == nil {
		a.st.Out = l
		a.st.HasOut = true
	}
}
func (a *accMachine) Handle(ctx *demos.PCtx, m demos.Msg) {
	a.st.Sum += int(m.Body[0])
	if a.st.HasOut {
		_ = ctx.Send(a.st.Out, []byte(fmt.Sprintf("sum=%d", a.st.Sum)), demos.NoLink)
	}
}
func (a *accMachine) Snapshot() ([]byte, error) { return frame.AppendBody(nil, &a.st, codeAcc), nil }
func (a *accMachine) Restore(b []byte) error    { return frame.DecodeBody(b, &a.st, codeAcc) }

// buildHistory runs a live cluster, building a published history for the
// accumulator, and returns the cluster plus the accumulator's pid.
func buildHistory(t *testing.T) (*publishing.Cluster, publishing.ProcID) {
	t.Helper()
	cfg := publishing.DefaultConfig(2)
	c := publishing.New(cfg)
	c.Registry().RegisterMachine("acc", func(args []byte) publishing.Machine { return &accMachine{} })
	c.Registry().RegisterMachine("peer", func(args []byte) publishing.Machine {
		return &peerMachine{}
	})
	c.Registry().RegisterProgram("feeder", func(args []byte) publishing.Program {
		return func(ctx *publishing.PCtx) {
			al, _ := ctx.ServiceLink("acc")
			for i := 1; i <= 5; i++ {
				_ = ctx.Send(al, []byte{byte(i)}, publishing.NoLink)
				ctx.Compute(100 * simtime.Millisecond)
			}
		}
	})
	peer, err := c.Spawn(1, publishing.ProcSpec{Name: "peer", Recoverable: true})
	if err != nil {
		t.Fatal(err)
	}
	c.SetService("peer", peer)
	acc, err := c.Spawn(0, publishing.ProcSpec{Name: "acc", Recoverable: true})
	if err != nil {
		t.Fatal(err)
	}
	c.SetService("acc", acc)
	if _, err := c.Spawn(0, publishing.ProcSpec{Name: "feeder", Recoverable: true}); err != nil {
		t.Fatal(err)
	}
	c.Run(30 * simtime.Second)
	return c, acc
}

type peerMachine struct{ n int }

func (p *peerMachine) Init(ctx *demos.PCtx)                {}
func (p *peerMachine) Handle(ctx *demos.PCtx, m demos.Msg) { p.n++ }
func (p *peerMachine) Snapshot() ([]byte, error)           { return nil, nil }
func (p *peerMachine) Restore(b []byte) error              { return nil }

func TestStepThroughHistory(t *testing.T) {
	c, acc := buildHistory(t)
	sess, err := c.DebugSession(acc, false)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Remaining() != 5 {
		t.Fatalf("stream has %d messages, want 5", sess.Remaining())
	}
	wantSums := []int{1, 3, 6, 10, 15}
	for i := 0; i < 5; i++ {
		res, err := sess.Step()
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if len(res.Outputs) != 1 {
			t.Fatalf("step %d outputs: %v", i, res.Outputs)
		}
		want := fmt.Sprintf("sum=%d", wantSums[i])
		if string(res.Outputs[0].Body) != want {
			t.Fatalf("step %d output = %q, want %q", i, res.Outputs[0].Body, want)
		}
		if !res.Outputs[0].Resend {
			t.Fatalf("step %d: replayed output not marked as resend", i)
		}
		var st accState
		if err := frame.DecodeBody(res.State, &st, codeAcc); err != nil {
			t.Fatalf("step %d state: %v", i, err)
		}
		if st.Sum != wantSums[i] {
			t.Fatalf("step %d state sum = %d, want %d", i, st.Sum, wantSums[i])
		}
	}
	if _, err := sess.Step(); err != debugger.ErrExhausted {
		t.Fatalf("expected exhaustion, got %v", err)
	}
}

// The §6.5 breakpoint: run to the step where a condition first holds.
func TestBreakpoint(t *testing.T) {
	c, acc := buildHistory(t)
	sess, err := c.DebugSession(acc, false)
	if err != nil {
		t.Fatal(err)
	}
	res, found := sess.RunUntil(func(r debugger.StepResult) bool {
		return len(r.Outputs) > 0 && strings.Contains(string(r.Outputs[0].Body), "sum=6")
	})
	if !found {
		t.Fatal("breakpoint never hit")
	}
	if res.Position != 3 {
		t.Fatalf("broke at position %d, want 3", res.Position)
	}
	if sess.Remaining() != 2 {
		t.Fatalf("remaining = %d, want 2", sess.Remaining())
	}
}

// Debugging from a checkpoint starts mid-history: fewer steps, same final
// state.
func TestDebugFromCheckpoint(t *testing.T) {
	cfg := publishing.DefaultConfig(2)
	cfg.CheckpointPolicy = publishing.CheckpointBound
	cfg.CheckpointTick = 200 * simtime.Millisecond
	c := publishing.New(cfg)
	c.Registry().RegisterMachine("acc", func(args []byte) publishing.Machine { return &accMachine{} })
	c.Registry().RegisterMachine("peer", func(args []byte) publishing.Machine { return &peerMachine{} })
	c.Registry().RegisterProgram("feeder", func(args []byte) publishing.Program {
		return func(ctx *publishing.PCtx) {
			al, _ := ctx.ServiceLink("acc")
			for i := 1; i <= 8; i++ {
				_ = ctx.Send(al, []byte{byte(i)}, publishing.NoLink)
				ctx.Compute(300 * simtime.Millisecond)
			}
		}
	})
	peer, _ := c.Spawn(1, publishing.ProcSpec{Name: "peer", Recoverable: true})
	c.SetService("peer", peer)
	acc, err := c.Spawn(0, publishing.ProcSpec{
		Name: "acc", Recoverable: true,
		RecoveryTimeBound: 300 * simtime.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.SetService("acc", acc)
	c.Spawn(0, publishing.ProcSpec{Name: "feeder", Recoverable: true})
	c.Run(60 * simtime.Second)

	if _, _, _, ok := c.Recorder().CheckpointOf(acc); !ok {
		t.Fatal("no checkpoint was stored")
	}
	full := 8
	sess, err := c.DebugSession(acc, true)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Remaining() >= full {
		t.Fatalf("checkpointed session replays %d messages, want < %d", sess.Remaining(), full)
	}
	// The checkpoint may cover the whole history (zero steps left) or part
	// of it; either way, replaying the remainder must land on the exact
	// final state.
	boot := sess.Boot()
	state := boot.State
	for _, step := range sess.RunAll() {
		state = step.State
	}
	var st accState
	if err := frame.DecodeBody(state, &st, codeAcc); err != nil {
		t.Fatal(err)
	}
	if st.Sum != 36 { // 1+..+8
		t.Fatalf("final sum = %d, want 36", st.Sum)
	}
}

func TestOutputFormatting(t *testing.T) {
	o := debugger.Output{To: publishing.ProcID{Node: 1, Local: 2}, Seq: 3, Body: []byte("x"), Resend: true}
	if !strings.Contains(o.String(), "resend") {
		t.Fatalf("Output.String = %q", o.String())
	}
}

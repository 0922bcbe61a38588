package demos_test

// The cluster-level hand-off case: on the parallel engine a program is
// resumed by whichever worker goroutine runs its node's event group, and
// killed (CrashNode, CrashProcess, Close) from the caller's goroutine. A
// coroutine has no home goroutine, so none of that may matter — which is
// what -race checks here.

import (
	"fmt"
	"testing"

	"publishing"
	"publishing/internal/simtime"
)

func TestHandoffOnParallelEngine(t *testing.T) {
	const nodes, rounds = 16, 40
	cfg := publishing.DefaultConfig(nodes)
	cfg.ParWorkers = 4
	// A fast LAN and free kernel calls put many nodes' dispatches inside one
	// lookahead window, so windows really are multi-LP.
	cfg.LAN.BitsPerSecond = 100_000_000
	cfg.LAN.InterframeGap = 50 * simtime.Microsecond
	cfg.Costs.UserPerCall = 0
	c := publishing.New(cfg)
	defer c.Close()
	c.Trace().Enable(false) // traced windows run serially

	// Each node runs an echo machine and a pinger that bounces `rounds`
	// messages off the next node's echo, passing a fresh reply link each
	// time. finished[i] and unwound[i] are only ever touched by node i's
	// programs; -race would flag two workers running one node.
	finished := make([]int, nodes)
	unwound := make([]int, nodes)
	c.Registry().RegisterMachine("echo", func(args []byte) publishing.Machine {
		return echoMachine{}
	})
	c.Registry().RegisterProgram("pinger", func(args []byte) publishing.Program {
		self := int(args[0])
		return func(ctx *publishing.PCtx) {
			defer func() { unwound[self]++ }()
			echo, err := ctx.ServiceLink(fmt.Sprintf("echo%d", (self+1)%nodes))
			if err != nil {
				panic(err)
			}
			for r := 0; r < rounds; r++ {
				reply := ctx.CreateLink(1, uint32(r))
				if err := ctx.Send(echo, []byte{byte(r)}, reply); err != nil {
					panic(err)
				}
				if m := ctx.Receive(1); len(m.Body) != 1 || m.Body[0] != byte(r) {
					panic(fmt.Sprintf("pinger %d round %d got %v", self, r, m.Body))
				}
				ctx.Compute(2 * simtime.Millisecond)
			}
			finished[self]++
		}
	})
	pingers := make([]publishing.ProcID, nodes)
	for i := 0; i < nodes; i++ {
		e, err := c.Spawn(publishing.NodeID(i), publishing.ProcSpec{Name: "echo", Recoverable: true})
		if err != nil {
			t.Fatal(err)
		}
		c.SetService(fmt.Sprintf("echo%d", i), e)
	}
	for i := 0; i < nodes; i++ {
		p, err := c.Spawn(publishing.NodeID(i), publishing.ProcSpec{Name: "pinger", Args: []byte{byte(i)}, Recoverable: true})
		if err != nil {
			t.Fatal(err)
		}
		pingers[i] = p
	}

	// Mid-run: one pinger is killed while parked, one whole node goes down.
	// Both are recovered by replay onto fresh coroutines.
	c.Scheduler().At(60*simtime.Millisecond, func() { c.CrashProcess(pingers[5]) })
	c.Scheduler().At(90*simtime.Millisecond, func() { c.CrashNode(3) })
	c.Run(2 * simtime.Minute)

	for i, n := range finished {
		// A recovered pinger re-executes from the top, so it can finish at
		// most once per incarnation and must finish at least once.
		if n < 1 {
			t.Errorf("pinger %d never finished (unwound %d times)", i, unwound[i])
		}
	}
	if unwound[5] < 2 || unwound[3] < 2 {
		t.Errorf("crashed pingers were not unwound and re-run: unwound[5]=%d unwound[3]=%d", unwound[5], unwound[3])
	}
	if got := c.Recorder().Stats().RecoveriesCompleted; got < 3 {
		t.Errorf("recoveries completed = %d, want the killed pinger and node 3's two processes", got)
	}
	if st := c.Engine().Stats(); st.ParWindows == 0 {
		t.Errorf("no multi-LP window ran on the pool (stats %+v): coroutines were never resumed from worker goroutines", st)
	}
}

// echoMachine returns every message over the reply link passed with it.
type echoMachine struct{}

func (echoMachine) Init(ctx *publishing.PCtx) {}
func (echoMachine) Handle(ctx *publishing.PCtx, m publishing.Msg) {
	_ = ctx.Send(m.Link, m.Body, publishing.NoLink)
	_ = ctx.DestroyLink(m.Link)
}
func (echoMachine) Snapshot() ([]byte, error) { return nil, nil }
func (echoMachine) Restore([]byte) error      { return nil }

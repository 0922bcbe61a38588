package publishing

import (
	"strings"
	"testing"

	"publishing/internal/demos"
	"publishing/internal/simtime"
)

// The DEMOS process-control system is itself made of recoverable processes
// (§4.2.3) — that is the point of the §4.4.3 DELIVERTOKERNEL redesign. Here
// a driver creates and destroys children through the full chain while the
// PROCESS MANAGER and the MEMORY SCHEDULER are crashed mid-stream; the
// control plane recovers by replay and every request still completes
// exactly once.
func TestSystemProcessRecovery(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.SystemProcs = true
	c := New(cfg)

	childrenStarted := 0
	c.Registry().RegisterProgram("child", func(args []byte) Program {
		return func(ctx *PCtx) {
			childrenStarted++
			ctx.Receive() // park until destroyed
		}
	})
	var created []ProcID
	var destroyErrs []error
	done := false
	c.Registry().RegisterProgram("driver", func(args []byte) Program {
		return func(ctx *PCtx) {
			pm, err := ctx.ServiceLink("procmgr")
			if err != nil {
				panic(err)
			}
			for i := 0; i < 6; i++ {
				node := NodeID(i % 3)
				pid, ctl, err := ctx.CreateProcess(pm, ProcSpec{Name: "child", Recoverable: true}, node)
				if err != nil {
					panic(err)
				}
				created = append(created, pid)
				ctx.Compute(400 * simtime.Millisecond)
				destroyErrs = append(destroyErrs, ctx.DestroyProcess(ctl))
			}
			done = true
		}
	})

	c.Run(5 * simtime.Second) // let the system processes boot
	if _, err := c.Spawn(1, ProcSpec{Name: "driver", Recoverable: true}); err != nil {
		t.Fatal(err)
	}

	// Crash the process manager and, later, the memory scheduler. Their
	// ids are the boot order on node 0: namesvc=1, memsched=2, procmgr=3.
	procmgr := ProcID{Node: 0, Local: 3}
	memsched := ProcID{Node: 0, Local: 2}
	c.Scheduler().At(7*simtime.Second, func() { c.CrashProcess(procmgr) })
	c.Scheduler().At(12*simtime.Second, func() { c.CrashProcess(memsched) })

	c.Run(10 * simtime.Minute)

	if !done {
		t.Fatalf("driver never finished (created %d children)", len(created))
	}
	if len(created) != 6 {
		t.Fatalf("created %d children, want 6", len(created))
	}
	if childrenStarted != 6 {
		t.Fatalf("children started %d times, want exactly 6 (duplicate creations = broken suppression)", childrenStarted)
	}
	for i, err := range destroyErrs {
		if err != nil {
			t.Fatalf("destroy %d failed: %v", i, err)
		}
	}
	// Placement round-robined over the three nodes.
	seen := map[NodeID]int{}
	for _, p := range created {
		seen[p.Node]++
	}
	if seen[0] != 2 || seen[1] != 2 || seen[2] != 2 {
		t.Fatalf("placement = %v", seen)
	}
	if got := c.Recorder().Stats().RecoveriesCompleted; got < 2 {
		t.Fatalf("recoveries completed = %d, want >= 2", got)
	}
	// All children destroyed: no child processes remain anywhere.
	for _, n := range c.Nodes() {
		for _, p := range c.Kernel(n).Procs() {
			if st := c.Kernel(n).ProcState(p); st == demos.StateCrashed {
				t.Fatalf("process %s left crashed on node %d", p, n)
			}
		}
	}
}

// The name server works end to end: register a link under a name from one
// process, look it up from another, talk over it — and survive the name
// server crashing in between.
func TestNameServerWithRecovery(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.SystemProcs = true
	c := New(cfg)

	var got []string
	c.Registry().RegisterProgram("provider", func(args []byte) Program {
		return func(ctx *PCtx) {
			ns, err := ctx.ServiceLink("namesvc")
			if err != nil {
				panic(err)
			}
			mine := ctx.CreateLink(ChanRequest, 42)
			_ = ctx.Send(ns, demos.EncodeNameReq(&demos.NameReq{Register: true, Name: "oracle"}), mine)
			m := ctx.Receive(ChanRequest)
			got = append(got, string(m.Body))
			if m.Link != NoLink {
				_ = ctx.Send(m.Link, []byte("the answer is 42"), NoLink)
			}
		}
	})
	c.Registry().RegisterProgram("consumer", func(args []byte) Program {
		return func(ctx *PCtx) {
			ns, err := ctx.ServiceLink("namesvc")
			if err != nil {
				panic(err)
			}
			ctx.Compute(2 * simtime.Second) // let the provider register first
			reply := ctx.CreateLink(ChanReply, 0)
			_ = ctx.Send(ns, demos.EncodeNameReq(&demos.NameReq{Name: "oracle"}), reply)
			m := ctx.Receive(ChanReply)
			if m.Link == NoLink {
				got = append(got, "LOOKUP FAILED")
				return
			}
			back := ctx.CreateLink(ChanRequest, 0)
			_ = ctx.Send(m.Link, []byte("question"), back)
			ans := ctx.Receive(ChanRequest)
			got = append(got, "answer: "+string(ans.Body))
		}
	})

	c.Run(5 * simtime.Second)
	if _, err := c.Spawn(0, ProcSpec{Name: "provider", Recoverable: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Spawn(1, ProcSpec{Name: "consumer", Recoverable: true}); err != nil {
		t.Fatal(err)
	}
	// Crash the name server after registration but before lookup.
	namesvc := ProcID{Node: 0, Local: 1}
	c.Scheduler().At(6500*simtime.Millisecond, func() { c.CrashProcess(namesvc) })
	c.Run(5 * simtime.Minute)

	if len(got) != 2 {
		t.Fatalf("exchange incomplete: %v", got)
	}
	if got[0] != "question" || got[1] != "answer: the answer is 42" {
		t.Fatalf("exchange = %v", got)
	}
}

// Each system process is checkpointed, crashed and recovered from its
// checkpoint, and the services still work: the name server still holds the
// links deposited before its checkpoint, and the process manager and the
// memory scheduler still place processes on every node. The name table and
// the scheduler's kernel-link table are maps, and two same-seed runs leave
// byte-identical stores, checkpoints included.
func TestSystemProcsCheckpointAndRecover(t *testing.T) {
	first := systemProcsRun(t)
	if again := systemProcsRun(t); first != again {
		t.Fatal("two same-seed runs left different stores")
	}
}

// systemProcsRun runs the scenario once and returns its stores' text.
func systemProcsRun(t *testing.T) string {
	t.Helper()
	const nodes = 4
	cfg := DefaultConfig(nodes)
	cfg.SystemProcs = true
	c := New(cfg)
	defer c.Close()

	names := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	var placed, resolved int
	done := false
	c.Registry().RegisterProgram("child", func(args []byte) Program {
		return func(ctx *PCtx) { ctx.Receive() }
	})
	c.Registry().RegisterProgram("client", func(args []byte) Program {
		return func(ctx *PCtx) {
			ns, err := ctx.ServiceLink("namesvc")
			if err != nil {
				panic(err)
			}
			pm, err := ctx.ServiceLink("procmgr")
			if err != nil {
				panic(err)
			}
			place := func() {
				for node := range NodeID(nodes) {
					if _, _, err := ctx.CreateProcess(pm, ProcSpec{Name: "child", Recoverable: true}, node); err == nil {
						placed++
					}
				}
			}
			for i, name := range names {
				_ = ctx.Send(ns, demos.EncodeNameReq(&demos.NameReq{Register: true, Name: name}), ctx.CreateLink(ChanRequest, uint32(i)))
			}
			place()
			ctx.Compute(30 * simtime.Second) // the system processes are checkpointed and crashed meanwhile
			for _, name := range names {
				reply := ctx.CreateLink(ChanReply, 0)
				_ = ctx.Send(ns, demos.EncodeNameReq(&demos.NameReq{Name: name}), reply)
				if m := ctx.Receive(ChanReply); m.Link != NoLink && string(m.Body) == name {
					resolved++
				}
			}
			place()
			done = true
		}
	})

	c.Run(5 * simtime.Second) // let the system processes boot
	if _, err := c.Spawn(1, ProcSpec{Name: "client", Recoverable: true}); err != nil {
		t.Fatal(err)
	}
	// Boot order on node 0: namesvc=1, memsched=2, procmgr=3.
	sys := []ProcID{{Node: 0, Local: 1}, {Node: 0, Local: 2}, {Node: 0, Local: 3}}
	c.Scheduler().At(15*simtime.Second, func() {
		for _, p := range sys {
			if img, err := c.Kernel(0).CheckpointNow(p); err != nil || img == nil {
				t.Errorf("checkpoint of %s: image of %d bytes, err %v", p, len(img), err)
			}
		}
	})
	for i, p := range sys {
		c.Scheduler().At(simtime.Time(17+3*i)*simtime.Second, func() { c.CrashProcess(p) })
	}
	c.Run(5 * simtime.Minute)

	if !done || resolved != len(names) || placed != 2*nodes {
		t.Fatalf("done=%v, %d of %d names resolved, %d of %d children placed", done, resolved, len(names), placed, 2*nodes)
	}
	if got := c.Recorder().Stats().RecoveriesCompleted; got < uint64(len(sys)) {
		t.Fatalf("recoveries completed = %d, want %d", got, len(sys))
	}
	var stores strings.Builder
	for _, s := range c.Fingerprint().Sections()[2:] {
		stores.WriteString(s.Text)
	}
	return stores.String()
}

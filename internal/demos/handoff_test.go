package demos

// Kernel↔process hand-off semantics. A program runs on a coroutine
// (iter.Pull): every way it can end — return, Exit, a fault, a kill while
// parked, a kill before it ever ran — must leave the kernel-visible outcome
// the rest of the stack is built on, run the program's deferred functions
// exactly once, and release the coroutine. Run under -race (make race).

import (
	"runtime"
	"testing"
	"time"

	"publishing/internal/frame"
	"publishing/internal/simtime"
)

// handoffEnv is a one-node kernel with a collector process standing in for
// the recorder, so crash/destroy notices can be observed.
type handoffEnv struct {
	*tenv
	k       *Kernel
	notices []*Notice
}

func newHandoffEnv(t *testing.T) *handoffEnv {
	t.Helper()
	h := &handoffEnv{tenv: newTenv(t, 1, true, frame.ProcID{Node: 0, Local: 1})}
	h.k = h.kernels[0]
	t.Cleanup(h.k.Shutdown)
	h.reg.RegisterMachine("collector", func(args []byte) Machine {
		return &funcMachine{handle: func(ctx *PCtx, m Msg) {
			if n, err := DecodeNotice(m.Body); err == nil {
				h.notices = append(h.notices, n)
			}
		}}
	})
	if id, err := h.k.Spawn(ProcSpec{Name: "collector"}, SpawnOptions{}); err != nil || id != h.k.env.RecorderProc {
		t.Fatalf("collector spawn: id %v err %v", id, err)
	}
	return h
}

// spawn registers body under name and spawns it recoverable, returning the
// kernel's process record for white-box checks.
func (h *handoffEnv) spawn(t *testing.T, name string, body Program) *process {
	t.Helper()
	h.reg.RegisterProgram(name, func(args []byte) Program { return body })
	id, err := h.k.Spawn(ProcSpec{Name: name, Recoverable: true}, SpawnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return h.k.procs[id]
}

// noticed reports how many notices of kind the collector has seen about id.
func (h *handoffEnv) noticed(kind NoticeKind, id frame.ProcID) int {
	n := 0
	for _, x := range h.notices {
		if x.Kind == kind && x.Proc == id {
			n++
		}
	}
	return n
}

// waitGoroutines waits for the goroutine count to come back down to want;
// a coroutine is gone when stop() returns, so the wait only absorbs
// runtime-internal stragglers.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if got := runtime.NumGoroutine(); got > want {
		t.Fatalf("%d goroutines, want at most %d", got, want)
	}
}

func TestHandoffOutcomes(t *testing.T) {
	cases := []struct {
		name string
		// body is the program; it must defer done() first.
		body func(ctx *PCtx, done func())
		// act drives the kernel after the spawn.
		act func(t *testing.T, h *handoffEnv, p *process)

		wantStarted  bool
		wantFinal    yieldKind
		wantState    ProcState
		wantDeferred int
		wantNotice   NoticeKind // 0: neither crashed nor destroyed is sent
		wantCrashed  uint64
		wantGone     uint64
	}{
		{
			name: "return",
			body: func(ctx *PCtx, done func()) {
				defer done()
				ctx.Compute(simtime.Millisecond)
			},
			act:         func(t *testing.T, h *handoffEnv, p *process) { h.run(simtime.Second) },
			wantStarted: true, wantFinal: yExit, wantState: StateUnknown,
			wantDeferred: 1, wantNotice: NoticeDestroyed, wantGone: 1,
		},
		{
			name: "Exit",
			body: func(ctx *PCtx, done func()) {
				defer done()
				ctx.Compute(simtime.Millisecond)
				ctx.Exit()
				panic("unreachable: Exit returned")
			},
			act:         func(t *testing.T, h *handoffEnv, p *process) { h.run(simtime.Second) },
			wantStarted: true, wantFinal: yExit, wantState: StateUnknown,
			wantDeferred: 1, wantNotice: NoticeDestroyed, wantGone: 1,
		},
		{
			name: "panic in user code",
			body: func(ctx *PCtx, done func()) {
				defer done()
				ctx.Compute(simtime.Millisecond)
				panic("alpha particle")
			},
			act:         func(t *testing.T, h *handoffEnv, p *process) { h.run(simtime.Second) },
			wantStarted: true, wantFinal: yFault, wantState: StateCrashed,
			wantDeferred: 1, wantNotice: NoticeCrashed, wantCrashed: 1,
		},
		{
			name: "kill while parked in Receive",
			body: func(ctx *PCtx, done func()) {
				defer done()
				ctx.Receive()
				panic("unreachable: nothing was sent")
			},
			act: func(t *testing.T, h *handoffEnv, p *process) {
				h.run(simtime.Second)
				if p.state != psBlocked {
					t.Fatalf("state %d, want blocked in Receive", p.state)
				}
				h.k.CrashProcess(p.id, "injected")
				h.run(simtime.Second)
			},
			wantStarted: true, wantFinal: yKilled, wantState: StateCrashed,
			wantDeferred: 1, wantNotice: NoticeCrashed, wantCrashed: 1,
		},
		{
			name: "kill while parked in Compute",
			body: func(ctx *PCtx, done func()) {
				defer done()
				ctx.Compute(simtime.Minute)
				panic("unreachable: killed before the minute was up")
			},
			act: func(t *testing.T, h *handoffEnv, p *process) {
				h.run(simtime.Second)
				if p.state != psReady || !p.started {
					t.Fatalf("state %d started %v, want parked in Compute", p.state, p.started)
				}
				h.k.Destroy(p.id)
				h.run(2 * simtime.Minute)
			},
			wantStarted: true, wantFinal: yKilled, wantState: StateUnknown,
			wantDeferred: 1, wantNotice: NoticeDestroyed, wantGone: 1,
		},
		{
			name: "kill before first dispatch",
			body: func(ctx *PCtx, done func()) {
				defer done()
				panic("unreachable: never dispatched")
			},
			act: func(t *testing.T, h *handoffEnv, p *process) {
				h.k.Destroy(p.id)
				h.run(simtime.Second)
			},
			wantStarted: false, wantState: StateUnknown,
			wantDeferred: 0, wantNotice: NoticeDestroyed, wantGone: 1,
		},
		{
			name: "kill of a finished process is a no-op",
			body: func(ctx *PCtx, done func()) {
				defer done()
				panic("alpha particle")
			},
			act: func(t *testing.T, h *handoffEnv, p *process) {
				h.run(simtime.Second)
				h.k.CrashProcess(p.id, "again") // already crashed: ignored
				h.k.terminate(p, psCrashed)     // finished: nothing to unwind
				h.run(simtime.Second)
			},
			wantStarted: true, wantFinal: yFault, wantState: StateCrashed,
			wantDeferred: 1, wantNotice: NoticeCrashed, wantCrashed: 1,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := newHandoffEnv(t)
			base := runtime.NumGoroutine() // the collector is not started yet
			deferred := 0
			p := h.spawn(t, "subject", func(ctx *PCtx) { c.body(ctx, func() { deferred++ }) })
			c.act(t, h, p)

			if p.started != c.wantStarted {
				t.Errorf("started = %v, want %v", p.started, c.wantStarted)
			}
			if p.started && !p.finished {
				t.Error("coroutine not finished")
			}
			if p.started && p.final.kind != c.wantFinal {
				t.Errorf("final = %d, want %d", p.final.kind, c.wantFinal)
			}
			if c.wantFinal == yFault && p.final.err == nil {
				t.Error("fault recorded without its error")
			}
			if st := h.k.ProcState(p.id); st != c.wantState {
				t.Errorf("state = %v, want %v", st, c.wantState)
			}
			if deferred != c.wantDeferred {
				t.Errorf("deferred functions ran %d times, want %d", deferred, c.wantDeferred)
			}
			for _, kind := range []NoticeKind{NoticeCrashed, NoticeDestroyed} {
				want := 0
				if kind == c.wantNotice {
					want = 1
				}
				if got := h.noticed(kind, p.id); got != want {
					t.Errorf("%d notices of kind %d, want %d", got, kind, want)
				}
			}
			if got := h.k.stats.ProcsCrashed; got != c.wantCrashed {
				t.Errorf("ProcsCrashed = %d, want %d", got, c.wantCrashed)
			}
			if got := h.k.stats.ProcsDestroyed; got != c.wantGone {
				t.Errorf("ProcsDestroyed = %d, want %d", got, c.wantGone)
			}
			// Only the collector's coroutine may remain.
			waitGoroutines(t, base+1)
		})
	}
}

// A kernel call made by a deferred function while the program is being
// killed must not park again: it re-panics with the kill sentinel and the
// unwinding continues.
func TestKernelCallDuringKillUnwind(t *testing.T) {
	h := newHandoffEnv(t)
	after := false
	p := h.spawn(t, "stubborn", func(ctx *PCtx) {
		defer func() {
			ctx.Compute(simtime.Second)
			after = true
		}()
		ctx.Receive()
	})
	h.run(simtime.Second)
	h.k.Destroy(p.id)
	if !p.finished || p.final.kind != yKilled {
		t.Fatalf("finished=%v final=%d, want a completed kill", p.finished, p.final.kind)
	}
	if after {
		t.Fatal("a kernel call returned normally during a kill")
	}
}

// CrashNode sweeps processes in every hand-off state at once.
func TestCrashNodeOverMixedStates(t *testing.T) {
	h := newHandoffEnv(t)
	base := runtime.NumGoroutine()
	deferred := map[string]int{}
	prog := func(name string, body func(ctx *PCtx)) *process {
		return h.spawn(t, name, func(ctx *PCtx) {
			defer func() { deferred[name]++ }()
			body(ctx)
		})
	}
	receiving := prog("receiving", func(ctx *PCtx) { ctx.Receive() })
	exited := prog("exited", func(ctx *PCtx) {})
	faulted := prog("faulted", func(ctx *PCtx) { panic("alpha particle") })
	h.run(simtime.Second)
	// Compute holds the node's CPU, so nothing spawned after this one is
	// dispatched before the crash.
	computing := prog("computing", func(ctx *PCtx) { ctx.Compute(simtime.Minute) })
	h.run(simtime.Second)
	unstarted := prog("unstarted", func(ctx *PCtx) {})

	h.k.CrashNode()

	for _, c := range []struct {
		p         *process
		started   bool
		final     yieldKind
		wantDefer int
	}{
		{receiving, true, yKilled, 1},
		{computing, true, yKilled, 1},
		{exited, true, yExit, 1},
		{faulted, true, yFault, 1},
		{unstarted, false, 0, 0},
	} {
		name := c.p.spec.Name
		if c.p.started != c.started || (c.started && !c.p.finished) {
			t.Errorf("%s: started=%v finished=%v", name, c.p.started, c.p.finished)
		}
		if c.started && c.p.final.kind != c.final {
			t.Errorf("%s: final = %d, want %d", name, c.p.final.kind, c.final)
		}
		if deferred[name] != c.wantDefer {
			t.Errorf("%s: deferred functions ran %d times, want %d", name, deferred[name], c.wantDefer)
		}
		if st := h.k.ProcState(c.p.id); st != StateUnknown {
			t.Errorf("%s: state %v survived the node crash", name, st)
		}
	}
	// The collector lived on the crashed node too.
	waitGoroutines(t, base)

	// Nothing runs on a crashed node, and the rebooted node starts clean.
	h.run(2 * simtime.Minute)
	h.k.Reboot()
	fresh := prog("fresh", func(ctx *PCtx) {})
	h.run(simtime.Second)
	if !fresh.finished || fresh.final.kind != yExit || deferred["fresh"] != 1 {
		t.Errorf("rebooted node: finished=%v final=%d deferred=%d", fresh.finished, fresh.final.kind, deferred["fresh"])
	}
}

// Recreating a process under its old id — after a crash, and over a live
// incarnation — starts a fresh coroutine from the top of the program and
// unwinds the old one.
func TestRecreateStartsFreshCoroutine(t *testing.T) {
	h := newHandoffEnv(t)
	incarnations, unwound := 0, 0
	first := h.spawn(t, "phoenix", func(ctx *PCtx) {
		incarnations++
		defer func() { unwound++ }()
		ctx.Receive()
	})
	id := first.id
	h.run(simtime.Second)
	h.k.CrashProcess(id, "injected")

	respawn := func() *process {
		t.Helper()
		if _, err := h.k.Spawn(first.spec, SpawnOptions{FixedID: &id, Quiet: true}); err != nil {
			t.Fatal(err)
		}
		h.run(simtime.Second)
		return h.k.procs[id]
	}
	second := respawn()
	if second == first || !second.started || second.finished || incarnations != 2 || unwound != 1 {
		t.Fatalf("after crash+recreate: same=%v started=%v finished=%v incarnations=%d unwound=%d",
			second == first, second.started, second.finished, incarnations, unwound)
	}
	// "If the process already exists, it is destroyed" (§4.7).
	third := respawn()
	if !second.finished || second.final.kind != yKilled || unwound != 2 {
		t.Fatalf("recreate over a live process: old finished=%v final=%d unwound=%d", second.finished, second.final.kind, unwound)
	}
	if third == second || third.state != psBlocked || incarnations != 3 {
		t.Fatalf("third incarnation: same=%v state=%d incarnations=%d", third == second, third.state, incarnations)
	}
}

// Shutdown releases every coroutine, is idempotent, and leaves a kernel
// that dispatches nothing — not even a process that never started.
func TestShutdown(t *testing.T) {
	h := newHandoffEnv(t)
	base := runtime.NumGoroutine()
	unwound, ran := 0, false
	h.spawn(t, "parked", func(ctx *PCtx) {
		defer func() { unwound++ }()
		ctx.Receive()
	})
	h.run(simtime.Second)
	late := h.spawn(t, "late", func(ctx *PCtx) { ran = true })
	h.k.Shutdown()
	h.k.Shutdown()
	h.run(simtime.Second)
	if unwound != 1 || ran || late.started {
		t.Fatalf("unwound=%d ran=%v late.started=%v", unwound, ran, late.started)
	}
	waitGoroutines(t, base)
}

// newSpinKernel boots a publishing-off kernel with every CPU cost zero, so
// the virtual clock never moves and a kernel call costs host time only.
func newSpinKernel(tb testing.TB, body Program) (*tenv, *Kernel, *process) {
	tb.Helper()
	e := newTenv(tb, 1, false, frame.NilProc)
	k := e.kernels[0]
	tb.Cleanup(k.Shutdown)
	k.env.Costs = Costs{}
	e.reg.RegisterProgram("spin", func(args []byte) Program { return body })
	id, err := k.Spawn(ProcSpec{Name: "spin"}, SpawnOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	return e, k, k.procs[id]
}

// The hand-off itself — resume the program, run it to its next kernel call,
// take the request — allocates nothing once the coroutine exists.
func TestKernelCallHandoffAllocatesNothing(t *testing.T) {
	body := []byte("x")
	_, _, p := newSpinKernel(t, func(ctx *PCtx) {
		for {
			ctx.Compute(0)
			_ = ctx.Send(NoLink, body, NoLink)
			ctx.Receive()
		}
	})
	// Stepped by hand: the kernel never handles the calls, which keeps the
	// scheduler's and the message path's allocations out of the count.
	p.step()
	calls := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if y := p.step(); y.kind != yCall {
			t.Fatalf("program ended: %+v", y)
		}
		calls++
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per kernel-call hand-off, want 0", allocs)
	}
	if calls < 1000 {
		t.Fatalf("only %d hand-offs measured", calls)
	}
}

// BenchmarkKernelCall prices one kernel call end to end — dispatch event,
// hand-off into the program and back, the call's handling — with every
// simulated CPU cost zero. compute is the cheapest call there is; sendrecv
// is a local Send + Receive round trip (two calls) through the input queue.
func BenchmarkKernelCall(b *testing.B) {
	body := []byte("ping")
	for _, bc := range []struct {
		name string
		prog Program
	}{
		{"compute", func(ctx *PCtx) {
			for {
				ctx.Compute(0)
			}
		}},
		{"sendrecv", func(ctx *PCtx) {
			l := ctx.CreateLink(0, 0)
			for {
				_ = ctx.Send(l, body, NoLink)
				ctx.Receive()
			}
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			e, k, _ := newSpinKernel(b, bc.prog)
			drive := func(calls uint64) {
				for target := k.stats.KernelCalls + calls; k.stats.KernelCalls < target; {
					if !e.sched.Step() {
						b.Fatal("simulation ran dry")
					}
				}
			}
			drive(64) // start the coroutine, size the queues
			b.ReportAllocs()
			b.ResetTimer()
			drive(uint64(b.N))
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/call")
		})
	}
}

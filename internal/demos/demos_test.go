package demos

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"strings"
	"testing"

	"publishing/internal/frame"
	"publishing/internal/lan"
	"publishing/internal/simtime"
	"publishing/internal/trace"
	"publishing/internal/transport"
)

// tenv assembles a miniature cluster for kernel tests.
type tenv struct {
	sched   *simtime.Scheduler
	med     lan.Medium
	log     *trace.Log
	reg     *Registry
	kernels map[frame.NodeID]*Kernel
}

func newTenv(t testing.TB, nodes int, publishing bool, recorderProc frame.ProcID) *tenv {
	t.Helper()
	e := &tenv{
		sched:   simtime.NewScheduler(),
		reg:     NewRegistry(),
		kernels: make(map[frame.NodeID]*Kernel),
	}
	e.log = trace.New(e.sched.Now)
	rng := simtime.NewRand(99)
	e.med = lan.NewPerfect(lan.DefaultConfig(), e.sched, rng, e.log)
	env := Env{
		Sched:        e.sched,
		Rng:          rng,
		Log:          e.log,
		Registry:     e.reg,
		Costs:        DefaultCosts(),
		Medium:       e.med,
		Transport:    transport.DefaultConfig(),
		Publishing:   publishing,
		RecorderProc: recorderProc,
		Services:     map[string]frame.ProcID{},
	}
	for i := 0; i < nodes; i++ {
		k := NewKernel(frame.NodeID(i), env)
		e.kernels[frame.NodeID(i)] = k
	}
	return e
}

// run advances the simulation by d.
func (e *tenv) run(d simtime.Time) { e.sched.Run(e.sched.Now() + d) }

func TestProgramRunsAndExits(t *testing.T) {
	e := newTenv(t, 1, false, frame.NilProc)
	done := false
	e.reg.RegisterProgram("hello", func(args []byte) Program {
		return func(ctx *PCtx) {
			if string(args) != "world" {
				t.Errorf("args = %q", args)
			}
			done = true
		}
	})
	id, err := e.kernels[0].Spawn(ProcSpec{Name: "hello", Args: []byte("world")}, SpawnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e.run(simtime.Second)
	if !done {
		t.Fatal("program did not run")
	}
	if e.kernels[0].ProcState(id) != StateUnknown {
		t.Fatal("exited process still known")
	}
}

func TestSelfSendReceive(t *testing.T) {
	for _, publishing := range []bool{false, true} {
		t.Run(fmt.Sprintf("publishing=%v", publishing), func(t *testing.T) {
			e := newTenv(t, 1, publishing, frame.NilProc)
			var got string
			e.reg.RegisterProgram("selfsend", func(args []byte) Program {
				return func(ctx *PCtx) {
					l := ctx.CreateLink(3, 77)
					if err := ctx.Send(l, []byte("loopback"), NoLink); err != nil {
						t.Errorf("send: %v", err)
					}
					m := ctx.Receive()
					if m.Channel != 3 || m.Code != 77 {
						t.Errorf("channel/code = %d/%d", m.Channel, m.Code)
					}
					got = string(m.Body)
				}
			})
			if _, err := e.kernels[0].Spawn(ProcSpec{Name: "selfsend", Recoverable: true}, SpawnOptions{}); err != nil {
				t.Fatal(err)
			}
			e.run(simtime.Second)
			if got != "loopback" {
				t.Fatalf("got %q", got)
			}
		})
	}
}

// Intranode messages go over the network exactly when publishing demands it
// (§4.4.1): the recorder must see them, so the wire carries them even
// within one node.
func TestIntranodePublishingUsesNetwork(t *testing.T) {
	cases := []struct {
		publishing  bool
		recoverable bool
		recorder    frame.ProcID
		wantWire    bool
	}{
		{false, true, frame.NilProc, false},
		{true, true, frame.ProcID{Node: 0, Local: 99}, true},
		{true, false, frame.ProcID{Node: 0, Local: 99}, false}, // §6.6.1
	}
	for i, c := range cases {
		e := newTenv(t, 1, c.publishing, c.recorder)
		e.reg.RegisterProgram("p", func(args []byte) Program {
			return func(ctx *PCtx) {
				l := ctx.CreateLink(0, 0)
				_ = ctx.Send(l, []byte("x"), NoLink)
				ctx.Receive()
			}
		})
		if _, err := e.kernels[0].Spawn(ProcSpec{Name: "p", Recoverable: c.recoverable}, SpawnOptions{}); err != nil {
			t.Fatal(err)
		}
		e.run(simtime.Second)
		onWire := e.med.Stats().FramesSent > 0
		if onWire != c.wantWire {
			t.Errorf("case %d: frames on wire = %v, want %v", i, onWire, c.wantWire)
		}
	}
}

func TestCrossNodeMessaging(t *testing.T) {
	e := newTenv(t, 2, true, frame.NilProc)
	var got []string
	e.reg.RegisterMachine("server", func(args []byte) Machine {
		return &funcMachine{
			handle: func(ctx *PCtx, m Msg) {
				got = append(got, string(m.Body))
				if m.Link != NoLink {
					_ = ctx.Send(m.Link, []byte("reply:"+string(m.Body)), NoLink)
				}
			},
		}
	})
	var replies []string
	e.reg.RegisterProgram("client", func(args []byte) Program {
		return func(ctx *PCtx) {
			// args carry the raw server ProcID; mint a link via the service
			// facility to keep the test honest about capabilities.
			sl, err := ctx.ServiceLink("server")
			if err != nil {
				t.Errorf("service link: %v", err)
				return
			}
			for i := 0; i < 3; i++ {
				m := ctx.Request(sl, []byte(fmt.Sprintf("req%d", i)), ChanReply, 0)
				replies = append(replies, string(m.Body))
			}
		}
	})
	srv, err := e.kernels[1].Spawn(ProcSpec{Name: "server", Recoverable: true}, SpawnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Publish the server's address as a well-known service for the client.
	for _, k := range e.kernels {
		k.env.Services["server"] = srv
	}
	if _, err := e.kernels[0].Spawn(ProcSpec{Name: "client", Recoverable: true}, SpawnOptions{}); err != nil {
		t.Fatal(err)
	}
	e.run(10 * simtime.Second)
	if len(got) != 3 || len(replies) != 3 {
		t.Fatalf("server got %v, client got %v", got, replies)
	}
	for i := 0; i < 3; i++ {
		if replies[i] != fmt.Sprintf("reply:req%d", i) {
			t.Fatalf("replies out of order: %v", replies)
		}
	}
}

// funcMachine adapts closures to the Machine interface for tests.
type funcMachine struct {
	init   func(ctx *PCtx)
	handle func(ctx *PCtx, m Msg)
	snap   func() ([]byte, error)
	rest   func(b []byte) error
}

func (f *funcMachine) Init(ctx *PCtx) {
	if f.init != nil {
		f.init(ctx)
	}
}
func (f *funcMachine) Handle(ctx *PCtx, m Msg) { f.handle(ctx, m) }
func (f *funcMachine) Snapshot() ([]byte, error) {
	if f.snap != nil {
		return f.snap()
	}
	return nil, nil
}
func (f *funcMachine) Restore(b []byte) error {
	if f.rest != nil {
		return f.rest(b)
	}
	return nil
}

// Selective receive via channels must deliver out of queue order and, with
// publishing on, advise the recorder (§4.4.2).
func TestChannelsOutOfOrderReadAdvisory(t *testing.T) {
	recorder := frame.ProcID{Node: 1, Local: 1}
	e := newTenv(t, 2, true, recorder)

	var notices []*Notice
	e.reg.RegisterMachine("collector", func(args []byte) Machine {
		return &funcMachine{handle: func(ctx *PCtx, m Msg) {
			if n, err := DecodeNotice(m.Body); err == nil {
				notices = append(notices, n)
			}
		}}
	})
	if _, err := e.kernels[1].Spawn(ProcSpec{Name: "collector"}, SpawnOptions{}); err != nil {
		t.Fatal(err)
	}

	var order []string
	e.reg.RegisterProgram("selective", func(args []byte) Program {
		return func(ctx *PCtx) {
			urgent := ctx.CreateLink(ChanUrgent, 0)
			normal := ctx.CreateLink(ChanRequest, 0)
			_ = ctx.Send(normal, []byte("normal"), NoLink)
			_ = ctx.Send(urgent, []byte("urgent"), NoLink)
			m1 := ctx.Receive(ChanUrgent) // reads past the queue head
			m2 := ctx.Receive()
			order = append(order, string(m1.Body), string(m2.Body))
		}
	})
	if _, err := e.kernels[0].Spawn(ProcSpec{Name: "selective", Recoverable: true}, SpawnOptions{}); err != nil {
		t.Fatal(err)
	}
	e.run(10 * simtime.Second)
	if len(order) != 2 || order[0] != "urgent" || order[1] != "normal" {
		t.Fatalf("order = %v", order)
	}
	var adv *Notice
	for _, n := range notices {
		if n.Kind == NoticeReadOrder {
			adv = n
		}
	}
	if adv == nil {
		t.Fatalf("no read-order advisory among %d notices", len(notices))
	}
	if adv.ReadID == adv.HeadID {
		t.Fatal("advisory read/head ids equal")
	}
	if e.kernels[0].Stats().Advisories != 1 {
		t.Fatalf("advisories = %d", e.kernels[0].Stats().Advisories)
	}
}

func TestLinkPassingMovesLink(t *testing.T) {
	e := newTenv(t, 1, false, frame.NilProc)
	var sawBadLink bool
	e.reg.RegisterProgram("mover", func(args []byte) Program {
		return func(ctx *PCtx) {
			self := ctx.CreateLink(0, 1)
			carrier := ctx.CreateLink(2, 2)
			// Pass `self` to ourselves over `carrier`.
			if err := ctx.Send(carrier, nil, self); err != nil {
				t.Errorf("send: %v", err)
			}
			// The passed link left our table (§4.2.2.3).
			if err := ctx.Send(self, nil, NoLink); err != ErrBadLink {
				t.Errorf("expected ErrBadLink, got %v", err)
			} else {
				sawBadLink = true
			}
			m := ctx.Receive(2)
			if m.Link == NoLink {
				t.Error("passed link not delivered")
			}
			// The reinstalled link works again.
			if err := ctx.Send(m.Link, []byte("via reinstalled"), NoLink); err != nil {
				t.Errorf("reinstalled link send: %v", err)
			}
			m2 := ctx.Receive(0)
			if string(m2.Body) != "via reinstalled" {
				t.Errorf("body = %q", m2.Body)
			}
		}
	})
	if _, err := e.kernels[0].Spawn(ProcSpec{Name: "mover"}, SpawnOptions{}); err != nil {
		t.Fatal(err)
	}
	e.run(simtime.Second)
	if !sawBadLink {
		t.Fatal("program did not complete")
	}
}

func TestProcessControlChainCreatesAndDestroys(t *testing.T) {
	e := newTenv(t, 2, true, frame.NilProc)
	RegisterSystemImages(e.reg)
	childRan := false
	e.reg.RegisterProgram("child", func(args []byte) Program {
		return func(ctx *PCtx) {
			childRan = true
			ctx.Receive() // park until destroyed
		}
	})
	var createdOn frame.NodeID = -99
	var destroyErr error
	e.reg.RegisterProgram("parent", func(args []byte) Program {
		return func(ctx *PCtx) {
			pm, err := ctx.ServiceLink("procmgr")
			if err != nil {
				t.Errorf("procmgr link: %v", err)
				return
			}
			id, ctl, err := ctx.CreateProcess(pm, ProcSpec{Name: "child", Recoverable: true}, 1)
			if err != nil {
				t.Errorf("create: %v", err)
				return
			}
			createdOn = id.Node
			destroyErr = ctx.DestroyProcess(ctl)
		}
	})

	// Boot the control system on node 0.
	pmID, err := e.kernels[0].Spawn(ProcSpec{Name: SysProcMgr, Recoverable: true}, SpawnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	msID, err := e.kernels[0].Spawn(ProcSpec{Name: SysMemSched, Recoverable: true}, SpawnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range e.kernels {
		k.env.Services["procmgr"] = pmID
		k.env.Services["memsched"] = msID
	}
	if _, err := e.kernels[0].Spawn(ProcSpec{Name: "parent", Recoverable: true}, SpawnOptions{}); err != nil {
		t.Fatal(err)
	}
	e.run(30 * simtime.Second)
	if !childRan {
		t.Fatal("child never ran")
	}
	if createdOn != 1 {
		t.Fatalf("child created on node %d, want 1", createdOn)
	}
	if destroyErr != nil {
		t.Fatalf("destroy: %v", destroyErr)
	}
	if got := e.kernels[1].Stats().ProcsDestroyed; got != 1 {
		t.Fatalf("node1 destroyed %d procs, want 1", got)
	}
}

func TestProcessFaultBecomesCrash(t *testing.T) {
	recorder := frame.ProcID{Node: 0, Local: 99}
	e := newTenv(t, 1, true, recorder)
	e.reg.RegisterProgram("faulty", func(args []byte) Program {
		return func(ctx *PCtx) {
			ctx.Compute(simtime.Millisecond)
			panic("alpha particle")
		}
	})
	id, err := e.kernels[0].Spawn(ProcSpec{Name: "faulty", Recoverable: true}, SpawnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e.run(simtime.Second)
	if st := e.kernels[0].ProcState(id); st != StateCrashed {
		t.Fatalf("state = %v, want crashed", st)
	}
	if e.kernels[0].Stats().ProcsCrashed != 1 {
		t.Fatal("crash not counted")
	}
}

func TestInjectedProcessCrashAndRefusal(t *testing.T) {
	e := newTenv(t, 2, true, frame.NilProc)
	e.reg.RegisterMachine("sink", func(args []byte) Machine {
		return &funcMachine{handle: func(ctx *PCtx, m Msg) {}}
	})
	var sendErr error
	e.reg.RegisterProgram("talker", func(args []byte) Program {
		return func(ctx *PCtx) {
			sl, _ := ctx.ServiceLink("sink")
			for i := 0; ; i++ {
				sendErr = ctx.Send(sl, []byte("x"), NoLink)
				ctx.Compute(100 * simtime.Millisecond)
			}
		}
	})
	sink, err := e.kernels[1].Spawn(ProcSpec{Name: "sink", Recoverable: true}, SpawnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range e.kernels {
		k.env.Services["sink"] = sink
	}
	if _, err := e.kernels[0].Spawn(ProcSpec{Name: "talker", Recoverable: true}, SpawnOptions{}); err != nil {
		t.Fatal(err)
	}
	e.run(2 * simtime.Second)
	e.kernels[1].CrashProcess(sink, "injected")
	if e.kernels[1].ProcState(sink) != StateCrashed {
		t.Fatal("sink not crashed")
	}
	e.run(2 * simtime.Second)
	if e.kernels[1].Stats().MsgsRefused == 0 {
		t.Fatal("messages to crashed process were not refused")
	}
	if sendErr != nil {
		t.Fatalf("sender saw an error: %v", sendErr)
	}
}

func TestNodeCrashAndReboot(t *testing.T) {
	e := newTenv(t, 2, true, frame.NilProc)
	e.reg.RegisterProgram("idle", func(args []byte) Program {
		return func(ctx *PCtx) { ctx.Receive() }
	})
	id, err := e.kernels[1].Spawn(ProcSpec{Name: "idle", Recoverable: true}, SpawnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e.run(simtime.Second)
	epoch := e.kernels[1].BootEpoch()
	e.kernels[1].CrashNode()
	if !e.kernels[1].Crashed() {
		t.Fatal("node not crashed")
	}
	if e.kernels[1].ProcState(id) != StateUnknown {
		t.Fatal("process survived node crash")
	}
	e.run(simtime.Second)
	e.kernels[1].Reboot()
	if e.kernels[1].Crashed() {
		t.Fatal("node still crashed after reboot")
	}
	if e.kernels[1].BootEpoch() != epoch+1 {
		t.Fatal("boot epoch did not advance")
	}
	// The rebooted node works again.
	if _, err := e.kernels[1].Spawn(ProcSpec{Name: "idle"}, SpawnOptions{}); err != nil {
		t.Fatal(err)
	}
	e.run(simtime.Second)
}

// Recreate + replay + suppression: the §3.3.3 recovery steps performed
// manually (the recorder package automates them).
func TestRecreateReplaySuppression(t *testing.T) {
	e := newTenv(t, 2, true, frame.NilProc)

	// echo: for every message received, sends one reply to a fixed target.
	var echoed []string
	e.reg.RegisterMachine("witness", func(args []byte) Machine {
		return &funcMachine{handle: func(ctx *PCtx, m Msg) {
			echoed = append(echoed, string(m.Body))
		}}
	})
	e.reg.RegisterMachine("echo", func(args []byte) Machine {
		st := &echoState{}
		return &funcMachine{
			handle: func(ctx *PCtx, m Msg) {
				if !st.HasOut {
					// The first message carries the witness link.
					if m.Link != NoLink {
						st.Out = m.Link
						st.HasOut = true
					}
					return
				}
				st.N++
				_ = ctx.Send(st.Out, []byte(fmt.Sprintf("echo-%d-%s", st.N, m.Body)), NoLink)
			},
			snap: func() ([]byte, error) { return gobBytes(st) },
			rest: func(b []byte) error { return gobInto(b, st) },
		}
	})

	witness, err := e.kernels[0].Spawn(ProcSpec{Name: "witness", Recoverable: true}, SpawnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	echoID, err := e.kernels[1].Spawn(ProcSpec{Name: "echo", Recoverable: true}, SpawnOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Drive the echo process directly through the kernels: install the
	// witness link, then send three messages.
	k1 := e.kernels[1]
	p := k1.procs[echoID]
	wl := frame.Link{To: witness, Channel: ChanRequest}
	k1.pushToQueue(p, Msg{ID: mkID(9, 1), From: frame.ProcID{Node: 0, Local: 9}, Body: nil}, &wl)
	for i := uint64(2); i <= 4; i++ {
		k1.pushToQueue(p, Msg{ID: mkID(9, i), From: frame.ProcID{Node: 0, Local: 9}, Body: []byte{byte('a' + i)}}, nil)
	}
	e.run(10 * simtime.Second)
	if len(echoed) != 3 {
		t.Fatalf("witness got %d messages before crash, want 3", len(echoed))
	}
	lastSent := k1.procs[echoID].sendSeq

	// Crash the echo process, then recover it manually: recreate from the
	// initial image, replay the same four messages, declare recovery done.
	k1.CrashProcess(echoID, "test")
	if _, err := k1.Spawn(ProcSpec{Name: "echo", Recoverable: true}, SpawnOptions{
		FixedID:         &echoID,
		Recovering:      true,
		SuppressThrough: lastSent,
		Quiet:           true,
	}); err != nil {
		t.Fatal(err)
	}
	p = k1.procs[echoID]
	k1.pushToQueue(p, Msg{ID: mkID(9, 1), From: frame.ProcID{Node: 0, Local: 9}, Body: nil}, &wl)
	for i := uint64(2); i <= 4; i++ {
		k1.pushToQueue(p, Msg{ID: mkID(9, i), From: frame.ProcID{Node: 0, Local: 9}, Body: []byte{byte('a' + i)}}, nil)
	}
	e.run(10 * simtime.Second)
	if len(echoed) != 3 {
		t.Fatalf("suppression failed: witness has %d messages, want still 3", len(echoed))
	}
	if k1.Stats().Suppressed != 3 {
		t.Fatalf("suppressed = %d, want 3", k1.Stats().Suppressed)
	}

	// Post-recovery, a genuinely new message produces a new echo.
	p.recovering = false
	k1.pushToQueue(p, Msg{ID: mkID(9, 5), From: frame.ProcID{Node: 0, Local: 9}, Body: []byte("new")}, nil)
	e.run(10 * simtime.Second)
	if len(echoed) != 4 || echoed[3] != "echo-4-new" {
		t.Fatalf("post-recovery echo wrong: %v", echoed)
	}
}

type echoState struct {
	Out    LinkID
	HasOut bool
	N      int
}

func mkID(local uint32, seq uint64) frame.MsgID {
	return frame.MsgID{Sender: frame.ProcID{Node: 0, Local: local}, Seq: seq}
}

func TestCheckpointRoundTrip(t *testing.T) {
	e := newTenv(t, 1, true, frame.ProcID{Node: 0, Local: 99})
	type counterState struct{ N int }
	e.reg.RegisterMachine("counter", func(args []byte) Machine {
		st := &counterState{}
		return &funcMachine{
			handle: func(ctx *PCtx, m Msg) { st.N++ },
			snap:   func() ([]byte, error) { return gobBytes(st) },
			rest:   func(b []byte) error { return gobInto(b, st) },
		}
	})
	id, err := e.kernels[0].Spawn(ProcSpec{Name: "counter", Recoverable: true}, SpawnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	k := e.kernels[0]
	p := k.procs[id]
	for i := uint64(1); i <= 5; i++ {
		k.pushToQueue(p, Msg{ID: mkID(9, i)}, nil)
	}
	e.run(10 * simtime.Second)

	ok, err := k.CheckpointNow(id)
	if err != nil || !ok {
		t.Fatalf("checkpoint: ok=%v err=%v", ok, err)
	}
	if p.readCount != 5 {
		t.Fatalf("readCount = %d", p.readCount)
	}

	// Capture the checkpoint from the kernel's notice by re-snapshotting.
	mb, _ := p.machine.Snapshot()
	blob := mustGob(&checkpointImage{Machine: mb, Links: p.links.snapshot()})

	// Recreate from the checkpoint; counters restored.
	if _, err := k.Spawn(ProcSpec{Name: "counter", Recoverable: true}, SpawnOptions{
		FixedID:    &id,
		Checkpoint: blob,
		SendSeq:    p.sendSeq,
		ReadCount:  p.readCount,
		Recovering: true,
		Quiet:      true,
	}); err != nil {
		t.Fatal(err)
	}
	p2 := k.procs[id]
	if p2 == p {
		t.Fatal("process not replaced")
	}
	if p2.readCount != 5 {
		t.Fatalf("restored readCount = %d", p2.readCount)
	}
	if !p2.restored {
		t.Fatal("not marked restored")
	}
	// Replay one more message; handler resumes from restored state.
	p2.recovering = false
	k.pushToQueue(p2, Msg{ID: mkID(9, 6)}, nil)
	e.run(10 * simtime.Second)
	snap, _ := p2.machine.Snapshot()
	var st counterState
	if err := gobInto(snap, &st); err != nil {
		t.Fatal(err)
	}
	if st.N != 6 {
		t.Fatalf("restored counter = %d, want 6", st.N)
	}
}

func TestDeterministicExecution(t *testing.T) {
	run := func() string {
		e := newTenv(t, 3, true, frame.NilProc)
		e.reg.RegisterMachine("pong", func(args []byte) Machine {
			return &funcMachine{handle: func(ctx *PCtx, m Msg) {
				if m.Link != NoLink {
					_ = ctx.Send(m.Link, m.Body, NoLink)
				}
			}}
		})
		var transcript []string
		e.reg.RegisterProgram("ping", func(args []byte) Program {
			return func(ctx *PCtx) {
				sl, _ := ctx.ServiceLink("pong")
				for i := 0; i < 5; i++ {
					m := ctx.Request(sl, []byte(fmt.Sprintf("%s-%d", args, i)), ChanReply, 0)
					transcript = append(transcript, fmt.Sprintf("%v:%s", ctx.RealTime(), m.Body))
				}
			}
		})
		pong, _ := e.kernels[2].Spawn(ProcSpec{Name: "pong", Recoverable: true}, SpawnOptions{})
		for _, k := range e.kernels {
			k.env.Services["pong"] = pong
		}
		_, _ = e.kernels[0].Spawn(ProcSpec{Name: "ping", Args: []byte("a"), Recoverable: true}, SpawnOptions{})
		_, _ = e.kernels[1].Spawn(ProcSpec{Name: "ping", Args: []byte("b"), Recoverable: true}, SpawnOptions{})
		e.run(60 * simtime.Second)
		return fmt.Sprintf("%v|%v", transcript, e.sched.Now())
	}
	if run() != run() {
		t.Fatal("cluster execution is not deterministic")
	}
}

func TestWatchdogPingPong(t *testing.T) {
	e := newTenv(t, 2, true, frame.NilProc)
	var pongs int
	probe := e.kernels[0].Endpoint()
	probe.Deliver = func(f *frame.Frame) bool {
		if len(f.Body) > 0 && f.Body[0] == PongBody[0] {
			pongs++
		}
		return true
	}
	ping := &frame.Frame{Dst: 1, From: frame.ProcID{Node: 0, Local: 50}, To: frame.ProcID{Node: 1, Local: 0}, Body: PingBody}
	probe.SendUnguaranteed(ping)
	e.run(simtime.Second)
	if pongs != 1 {
		t.Fatalf("pongs = %d, want 1", pongs)
	}
	// A crashed node does not answer.
	e.kernels[1].CrashNode()
	probe.SendUnguaranteed(ping)
	e.run(simtime.Second)
	if pongs != 1 {
		t.Fatalf("crashed node answered (pongs=%d)", pongs)
	}
}

func TestStopStartProcess(t *testing.T) {
	e := newTenv(t, 1, false, frame.NilProc)
	var handled int
	e.reg.RegisterMachine("svc", func(args []byte) Machine {
		return &funcMachine{handle: func(ctx *PCtx, m Msg) { handled++ }}
	})
	id, err := e.kernels[0].Spawn(ProcSpec{Name: "svc"}, SpawnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	k := e.kernels[0]
	e.run(simtime.Second)
	p := k.procs[id]
	p.stopped = true
	k.pushToQueue(p, Msg{ID: mkID(9, 1)}, nil)
	e.run(simtime.Second)
	if handled != 0 {
		t.Fatal("stopped process handled a message")
	}
	p.stopped = false
	k.wake(p)
	e.run(simtime.Second)
	if handled != 1 {
		t.Fatalf("handled = %d after restart, want 1", handled)
	}
}

func TestQueueSemantics(t *testing.T) {
	var q msgQueue
	mk := func(seq uint64, ch uint16) Msg {
		return Msg{ID: mkID(1, seq), Channel: ch}
	}
	q.push(mk(1, 0), nil)
	q.push(mk(2, 5), nil)
	q.push(mk(3, 0), nil)
	if q.len() != 3 {
		t.Fatal("len")
	}
	// Selective pop skips the head.
	item, head, ooo, ok := q.pop([]uint16{5})
	if !ok || !ooo || head.Seq != 1 || item.msg.ID.Seq != 2 {
		t.Fatalf("selective pop: %+v head=%v ooo=%v", item.msg.ID, head, ooo)
	}
	// In-order pop is not flagged.
	item, _, ooo, ok = q.pop(nil)
	if !ok || ooo || item.msg.ID.Seq != 1 {
		t.Fatal("in-order pop misflagged")
	}
	if !q.anyMatch(nil) || q.anyMatch([]uint16{7}) {
		t.Fatal("anyMatch")
	}
	if _, _, _, ok := q.pop([]uint16{7}); ok {
		t.Fatal("pop on empty channel succeeded")
	}
}

func TestLinkTableSnapshotRestore(t *testing.T) {
	lt := newLinkTable()
	a := lt.insert(frame.Link{To: frame.ProcID{Node: 1, Local: 2}, Channel: 3})
	b := lt.insert(frame.Link{To: frame.ProcID{Node: 4, Local: 5}, Code: 9})
	lt.remove(a)
	blob := lt.snapshot()
	lt2, err := restoreLinkTable(blob)
	if err != nil {
		t.Fatal(err)
	}
	if lt2.size() != 1 {
		t.Fatalf("restored size = %d", lt2.size())
	}
	if l, ok := lt2.get(b); !ok || l.Code != 9 {
		t.Fatal("restored link wrong")
	}
	// Next id continues, so restored tables never reuse ids.
	c := lt2.insert(frame.Link{})
	if c != b+1 {
		t.Fatalf("next id = %d, want %d", c, b+1)
	}
}

func TestControlCodecs(t *testing.T) {
	ctl := &CtlMsg{Op: OpRecreate, Proc: frame.ProcID{Node: 1, Local: 2}, FirstSendSeq: 5, LastSentSeq: 9}
	got, err := DecodeCtl(EncodeCtl(ctl))
	if err != nil || got.Op != OpRecreate || got.FirstSendSeq != 5 {
		t.Fatalf("ctl round trip: %+v err=%v", got, err)
	}
	if _, err := DecodeCtl([]byte("garbage")); err == nil {
		t.Fatal("garbage decoded")
	}
	n := &Notice{Kind: NoticeCheckpoint, SendSeq: 3, StateKB: 7}
	gn, err := DecodeNotice(EncodeNotice(n))
	if err != nil || gn.Kind != NoticeCheckpoint || gn.StateKB != 7 {
		t.Fatal("notice round trip")
	}
	q := &QueryResponse{RestartNumber: 2, Node: 3, Procs: []ProcReport{{State: StateCrashed}}}
	gq, err := DecodeQuery(EncodeQuery(q))
	if err != nil || gq.RestartNumber != 2 || gq.Procs[0].State != StateCrashed {
		t.Fatal("query round trip")
	}
	r := &CtlReply{OK: true, Proc: frame.ProcID{Node: 1, Local: 1}}
	gr, err := DecodeReply(EncodeReply(r))
	if err != nil || !gr.OK {
		t.Fatal("reply round trip")
	}
}

// Control replies go through a cached codec, but the wire contract is still
// one self-contained gob stream per reply: EncodeReply's bytes are a fresh
// encoder's, in any order of calls, and DecodeReply takes a fresh encoder's.
func TestReplyCodecMatchesOneShot(t *testing.T) {
	replies := []CtlReply{
		{},
		{OK: true, Proc: frame.ProcID{Node: 1, Local: 1}},
		{OK: true, Proc: frame.ProcID{Node: 2, Local: 7}, AckedBatch: 1},
		{OK: true, Proc: frame.ProcID{Node: 1, Local: 2}, AckedBatch: ^uint64(0), RestartNumber: ^uint64(0)},
		{Err: "demos: checkpoint for n1.p2 incomplete (1/3 chunks)"},
		{Err: "процесс не найден — 找不到进程", RestartNumber: 3},
		{OK: true, Err: strings.Repeat("x", 5000), AckedBatch: 474},
	}
	for round := 0; round < 2; round++ {
		for i := range replies {
			r := &replies[i]
			var oneShot bytes.Buffer
			if err := gob.NewEncoder(&oneShot).Encode(r); err != nil {
				t.Fatal(err)
			}
			if got := EncodeReply(r); !bytes.Equal(got, oneShot.Bytes()) {
				t.Fatalf("reply %d: EncodeReply\n %x\none-shot gob\n %x", i, got, oneShot.Bytes())
			}
			got, err := DecodeReply(oneShot.Bytes())
			if err != nil || *got != *r {
				t.Fatalf("reply %d: decoded %+v (err %v), want %+v", i, got, err, r)
			}
		}
	}
	// Garbage, and a reply cut short inside its value message (which gets as
	// far as the cached decoder), fail as before and leave the codec usable.
	valid := EncodeReply(&replies[3])
	for _, bad := range [][]byte{[]byte("garbage"), valid[:len(valid)-3]} {
		_, err := DecodeReply(bad)
		if err == nil || !strings.HasPrefix(err.Error(), "demos: bad control reply: ") || errors.Unwrap(err) == nil {
			t.Fatalf("DecodeReply(%q): err = %v, want a wrapped bad-control-reply error", bad, err)
		}
		if got, err := DecodeReply(valid); err != nil || *got != replies[3] {
			t.Fatalf("after a bad reply: decoded %+v (err %v)", got, err)
		}
	}
}

func TestProcStateString(t *testing.T) {
	if StateCrashed.String() != "crashed" || ProcState(99).String() == "" {
		t.Fatal("ProcState strings")
	}
}

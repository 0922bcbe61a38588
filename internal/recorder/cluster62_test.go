package recorder_test

import (
	"fmt"
	"testing"

	"publishing/internal/demos"
	"publishing/internal/frame"
	"publishing/internal/lan"
	"publishing/internal/recorder"
	"publishing/internal/simtime"
	"publishing/internal/stablestore"
	"publishing/internal/trace"
	"publishing/internal/transport"
)

// The §6.2 cluster configuration: two broadcast LANs joined by a
// store-and-forward gateway, one autonomous recorder per cluster. Cross-
// cluster request/reply traffic flows through the bridge; a crash on one
// side is recovered by that side's recorder alone; severing the bridge
// (the partition §3.6 worries about) merely delays cross-cluster messages
// — each cluster keeps operating and nothing is duplicated.
func TestClustersOfLANsWithPerClusterRecorders(t *testing.T) {
	sched := simtime.NewScheduler()
	log := trace.New(sched.Now)
	rng := simtime.NewRand(3)

	// Cluster A: nodes 0,1 + recorder node 2. Cluster B: nodes 10,11 +
	// recorder node 12.
	lanA := lan.NewPerfect(lan.DefaultConfig(), sched, rng.Fork(), log)
	lanB := lan.NewPerfect(lan.DefaultConfig(), sched, rng.Fork(), log)
	lan.NewBridge(sched, lanA, lanB,
		[]frame.NodeID{0, 1, 2}, []frame.NodeID{10, 11, 12}, 5*simtime.Millisecond)

	reg := demos.NewRegistry()
	services := map[string]frame.ProcID{}
	mkEnv := func(med lan.Medium, recProc frame.ProcID) demos.Env {
		return demos.Env{
			Sched: sched, Rng: rng.Fork(), Log: log, Registry: reg,
			Costs: demos.DefaultCosts(), Medium: med,
			Transport:    transport.DefaultConfig(),
			RecorderProc: recProc, Services: services,
		}
	}
	recAProc := frame.ProcID{Node: 2, Local: 1}
	recBProc := frame.ProcID{Node: 12, Local: 1}
	kernels := map[frame.NodeID]*demos.Kernel{
		0:  demos.NewKernel(0, mkEnv(lanA, recAProc)),
		1:  demos.NewKernel(1, mkEnv(lanA, recAProc)),
		10: demos.NewKernel(10, mkEnv(lanB, recBProc)),
		11: demos.NewKernel(11, mkEnv(lanB, recBProc)),
	}

	mkRec := func(med lan.Medium, node frame.NodeID, watched []frame.NodeID) *recorder.Recorder {
		cfg := recorder.DefaultConfig(node, watched)
		r := recorder.New(cfg, sched, rng.Fork(), log, med, stablestore.New(), transport.DefaultConfig())
		r.Start()
		return r
	}
	recA := mkRec(lanA, 2, []frame.NodeID{0, 1})
	recB := mkRec(lanB, 12, []frame.NodeID{10, 11})

	// Workload: a client in cluster A calls a server in cluster B.
	var replies []string
	reg.RegisterMachine("server", func(args []byte) demos.Machine {
		return &echoServer{}
	})
	reg.RegisterProgram("client", func(args []byte) demos.Program {
		return func(ctx *demos.PCtx) {
			sl, err := ctx.ServiceLink("server")
			if err != nil {
				panic(err)
			}
			for i := 1; i <= 8; i++ {
				m := ctx.Request(sl, []byte(fmt.Sprintf("req%d", i)), demos.ChanReply, 0)
				replies = append(replies, string(m.Body))
			}
		}
	})
	server, err := kernels[10].Spawn(demos.ProcSpec{Name: "server", Recoverable: true}, demos.SpawnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	services["server"] = server
	if _, err := kernels[0].Spawn(demos.ProcSpec{Name: "client", Recoverable: true}, demos.SpawnOptions{}); err != nil {
		t.Fatal(err)
	}

	// Crash the server mid-stream; cluster B's recorder must recover it.
	sched.At(800*simtime.Millisecond, func() { kernels[10].CrashProcess(server, "injected") })
	sched.Run(60 * simtime.Second)

	if len(replies) != 8 {
		t.Fatalf("client got %d replies: %v", len(replies), replies)
	}
	for i, r := range replies {
		if r != fmt.Sprintf("echo:req%d #%d", i+1, i+1) {
			t.Fatalf("reply %d = %q (exactly-once across the bridge broken)", i, r)
		}
	}
	if got := recB.Stats().RecoveriesCompleted; got != 1 {
		t.Fatalf("cluster B recoveries = %d, want 1", got)
	}
	if got := recA.Stats().RecoveriesStarted; got != 0 {
		t.Fatalf("cluster A recovered a foreign process (%d)", got)
	}
	// Autonomy in storage too: B's recorder holds the server's stream; A's
	// recorder may have overheard crossing frames but never registered the
	// foreign process for recovery.
	if known, _, _, _, _ := recB.Entry(server); !known {
		t.Fatal("cluster B recorder does not know its own server")
	}
}

// Severing the bridge partitions the clusters; traffic resumes after the
// link heals, exactly once.
func TestBridgeOutageDelaysButNeverDuplicates(t *testing.T) {
	sched := simtime.NewScheduler()
	log := trace.New(sched.Now)
	rng := simtime.NewRand(9)
	lanA := lan.NewPerfect(lan.DefaultConfig(), sched, rng.Fork(), log)
	lanB := lan.NewPerfect(lan.DefaultConfig(), sched, rng.Fork(), log)
	bridge := lan.NewBridge(sched, lanA, lanB,
		[]frame.NodeID{0, 2}, []frame.NodeID{10, 12}, 2*simtime.Millisecond)

	reg := demos.NewRegistry()
	services := map[string]frame.ProcID{}
	env := func(med lan.Medium, rec frame.ProcID) demos.Env {
		return demos.Env{Sched: sched, Rng: rng.Fork(), Log: log, Registry: reg,
			Costs: demos.DefaultCosts(), Medium: med, Transport: transport.DefaultConfig(),
			RecorderProc: rec, Services: services}
	}
	kA := demos.NewKernel(0, env(lanA, frame.ProcID{Node: 2, Local: 1}))
	kB := demos.NewKernel(10, env(lanB, frame.ProcID{Node: 12, Local: 1}))
	recorder.New(recorder.DefaultConfig(2, []frame.NodeID{0}), sched, rng.Fork(), log, lanA, stablestore.New(), transport.DefaultConfig()).Start()
	recorder.New(recorder.DefaultConfig(12, []frame.NodeID{10}), sched, rng.Fork(), log, lanB, stablestore.New(), transport.DefaultConfig()).Start()

	// Not publishing.Stream: a Stream runs on one Cluster's LAN, and §6.2
	// joins two LANs by a bridge, built here from kernels directly.
	var got []string
	reg.RegisterMachine("sink", func(args []byte) demos.Machine {
		return &collector{out: &got}
	})
	reg.RegisterProgram("gen", func(args []byte) demos.Program {
		return func(ctx *demos.PCtx) {
			sl, _ := ctx.ServiceLink("sink")
			for i := 1; i <= 6; i++ {
				_ = ctx.Send(sl, []byte(fmt.Sprintf("m%d", i)), demos.NoLink)
				ctx.Compute(100 * simtime.Millisecond)
			}
		}
	})
	sink, err := kB.Spawn(demos.ProcSpec{Name: "sink", Recoverable: true}, demos.SpawnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	services["sink"] = sink
	if _, err := kA.Spawn(demos.ProcSpec{Name: "gen", Recoverable: true}, demos.SpawnOptions{}); err != nil {
		t.Fatal(err)
	}

	sched.At(250*simtime.Millisecond, func() { bridge.SetDown(true) })
	sched.Run(3 * simtime.Second)
	during := len(got)
	if during >= 6 {
		t.Fatal("all messages crossed a severed bridge")
	}
	bridge.SetDown(false)
	sched.Run(60 * simtime.Second)
	if len(got) != 6 {
		t.Fatalf("after healing: %v", got)
	}
	for i, s := range got {
		if s != fmt.Sprintf("m%d", i+1) {
			t.Fatalf("order/duplication broken: %v", got)
		}
	}
}

type echoServer struct{ n int }

func (e *echoServer) Init(ctx *demos.PCtx) {}
func (e *echoServer) Handle(ctx *demos.PCtx, m demos.Msg) {
	e.n++
	if m.Link != demos.NoLink {
		_ = ctx.Send(m.Link, []byte(fmt.Sprintf("echo:%s #%d", m.Body, e.n)), demos.NoLink)
	}
}
func (e *echoServer) Snapshot() ([]byte, error) { return []byte{byte(e.n)}, nil }
func (e *echoServer) Restore(b []byte) error    { e.n = int(b[0]); return nil }

type collector struct{ out *[]string }

func (c *collector) Init(ctx *demos.PCtx)                {}
func (c *collector) Handle(ctx *demos.PCtx, m demos.Msg) { *c.out = append(*c.out, string(m.Body)) }
func (c *collector) Snapshot() ([]byte, error)           { return nil, nil }
func (c *collector) Restore(b []byte) error              { return nil }

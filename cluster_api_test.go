package publishing

import (
	"bytes"
	"strings"
	"testing"

	"publishing/internal/demos"
	"publishing/internal/simtime"
)

func TestClusterAccessors(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Spares = 1
	c := New(cfg)
	nodes := c.Nodes()
	// 2 processing (0,1) + 1 spare (3; id 2 belongs to the recorder).
	if len(nodes) != 3 || nodes[0] != 0 || nodes[1] != 1 || nodes[2] != 3 {
		t.Fatalf("nodes = %v", nodes)
	}
	if c.Kernel(0) == nil || c.Kernel(2) != nil {
		t.Fatal("Kernel lookup wrong")
	}
	if c.Recorder() == nil || c.RecorderAt(1) != nil || c.Recorders() != 1 {
		t.Fatal("recorder accessors wrong")
	}
	if c.Store() == nil || c.Medium() == nil || c.Trace() == nil || c.Scheduler() == nil {
		t.Fatal("nil plumbing accessor")
	}
	if _, err := c.Spawn(9, ProcSpec{Name: "x"}); err == nil {
		t.Fatal("spawn on missing node succeeded")
	}
	if c.ProcState(ProcID{Node: 0, Local: 42}) != demos.StateUnknown {
		t.Fatal("ghost process has a state")
	}
}

func TestRunUntil(t *testing.T) {
	c := New(DefaultConfig(1))
	fired := false
	c.Scheduler().At(3*simtime.Second, func() { fired = true })
	if c.RunUntil(func() bool { return fired }, 10*simtime.Second) != true {
		t.Fatal("RunUntil missed the event")
	}
	if c.Now() > 4*simtime.Second {
		t.Fatalf("RunUntil overshot: %v", c.Now())
	}
	if c.RunUntil(func() bool { return false }, simtime.Second) {
		t.Fatal("RunUntil invented success")
	}
}

func TestTraceWriterStreams(t *testing.T) {
	var buf bytes.Buffer
	c := New(DefaultConfig(2))
	c.Trace().SetSink(&buf)
	c.Registry().RegisterProgram("p", func(args []byte) Program {
		return func(ctx *PCtx) {
			l := ctx.CreateLink(0, 0)
			_ = ctx.Send(l, []byte("x"), NoLink)
			ctx.Receive()
		}
	})
	if _, err := c.Spawn(0, ProcSpec{Name: "p", Recoverable: true}); err != nil {
		t.Fatal(err)
	}
	c.Run(5 * simtime.Second)
	out := buf.String()
	if !strings.Contains(out, "created") || !strings.Contains(out, "published") {
		t.Fatalf("trace stream missing expected events:\n%s", out)
	}
}

func TestDebugSessionRequiresPublishing(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Publishing = false
	c := New(cfg)
	if _, err := c.DebugSession(ProcID{Node: 0, Local: 1}, false); err == nil {
		t.Fatal("debug session without publishing")
	}
	cfg2 := DefaultConfig(1)
	c2 := New(cfg2)
	if _, err := c2.DebugSession(ProcID{Node: 0, Local: 42}, false); err == nil {
		t.Fatal("debug session for unknown process")
	}
}

func TestCrashAccessorsAreIdempotent(t *testing.T) {
	c := New(DefaultConfig(2))
	c.CrashRecorder()
	c.CrashRecorder() // no-op
	if err := c.RestartRecorder(); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartRecorder(); err != nil { // no-op
		t.Fatal(err)
	}
	c.CrashNode(0)
	c.CrashNode(0)
	c.RebootNode(0)
	c.RebootNode(0)
	c.CrashProcess(ProcID{Node: 0, Local: 99}) // ghost: no-op
	c.Run(simtime.Second)
}

func TestNewPanicsWithoutNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0 nodes) did not panic")
		}
	}()
	New(Config{})
}

// A recorder setting below its minimum is refused, not replaced by a
// default: a zero WatchInterval would re-arm the watchdog at one instant
// forever, and a zero replay window or batch budget would never send a
// replay batch. With publishing off no recorder reads them.
func TestNewPanicsOnUnrunnableRecorderSettings(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*Config)
	}{
		{"WatchInterval", func(c *Config) { c.WatchInterval = 0 }},
		{"MissThreshold", func(c *Config) { c.MissThreshold = 0 }},
		{"ReplayWindow", func(c *Config) { c.ReplayWindow = 0 }},
		{"ReplayBatchBytes", func(c *Config) { c.ReplayBatchBytes = 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(1)
			tc.set(&cfg)
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("New with %s unset did not panic", tc.name)
					}
				}()
				New(cfg)
			}()
			cfg.Publishing = false
			New(cfg).Close()
		})
	}
}

package recorder_test

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"testing"

	"publishing"
	"publishing/internal/recorder"
	"publishing/internal/simtime"
)

// oracleWorker accumulates integers and reports each step to the witness.
type oracleWorker struct {
	Witness publishing.LinkID
	HasOut  bool
	Count   int
	Sum     int
}

func (w *oracleWorker) Init(ctx *publishing.PCtx) {
	if lid, err := ctx.ServiceLink("witness"); err == nil {
		w.Witness, w.HasOut = lid, true
	}
}

func (w *oracleWorker) Handle(ctx *publishing.PCtx, m publishing.Msg) {
	w.Count++
	w.Sum += int(m.Body[0])
	if w.HasOut {
		_ = ctx.Send(w.Witness, []byte(fmt.Sprintf("step=%d sum=%d", w.Count, w.Sum)), publishing.NoLink)
	}
}

func (w *oracleWorker) Snapshot() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(w)
	return buf.Bytes(), err
}

func (w *oracleWorker) Restore(b []byte) error { return gob.NewDecoder(bytes.NewReader(b)).Decode(w) }

type oracleWitness struct{ got *[]string }

func (m oracleWitness) Init(*publishing.PCtx) {}
func (m oracleWitness) Handle(_ *publishing.PCtx, g publishing.Msg) {
	*m.got = append(*m.got, string(g.Body))
}
func (m oracleWitness) Snapshot() ([]byte, error) { return nil, nil }
func (m oracleWitness) Restore([]byte) error      { return nil }

// The recovery-database oracle, on the whole cluster: a producer streams 16
// integers through a checkpointed worker to a witness, the worker crashes at
// 1.2 s, and the recorder crashes at 2.5 s and restarts at 4 s. The database
// Restart rebuilds from stable storage equals, field for field, the one the
// recorder held just before its crash, and the run still ends exactly once.
func TestClusterRestartRebuildsDatabaseFieldForField(t *testing.T) {
	const msgs = 16
	cfg := publishing.DefaultConfig(3)
	cfg.Medium = publishing.MediumEther
	cfg.Seed = 42
	// Periodic checkpoints put checkpoint records and invalidated message
	// prefixes in the store the rebuild reads.
	cfg.CheckpointPolicy = publishing.CheckpointBound
	cfg.CheckpointTick = 300 * simtime.Millisecond
	c := publishing.New(cfg)
	defer c.Close()
	var got []string
	c.Registry().RegisterMachine("witness", func([]byte) publishing.Machine { return oracleWitness{&got} })
	c.Registry().RegisterMachine("worker", func([]byte) publishing.Machine { return &oracleWorker{} })
	c.Registry().RegisterProgram("producer", func([]byte) publishing.Program {
		return func(ctx *publishing.PCtx) {
			link, err := ctx.ServiceLink("worker")
			if err != nil {
				return
			}
			for i := 1; i <= msgs; i++ {
				_ = ctx.Send(link, []byte{byte(i)}, publishing.NoLink)
				ctx.Compute(200 * simtime.Millisecond)
			}
		}
	})
	spawn := func(node publishing.NodeID, spec publishing.ProcSpec) publishing.ProcID {
		t.Helper()
		p, err := c.Spawn(node, spec)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	c.SetService("witness", spawn(2, publishing.ProcSpec{Name: "witness", Recoverable: true}))
	worker := spawn(1, publishing.ProcSpec{Name: "worker", Recoverable: true, RecoveryTimeBound: 400 * simtime.Millisecond})
	c.SetService("worker", worker)
	spawn(0, publishing.ProcSpec{Name: "producer", Recoverable: true})

	rec := c.Recorder()
	before := recorder.DatabaseView(rec) // retaken just before the crash
	c.Scheduler().At(1200*simtime.Millisecond, func() { c.CrashProcess(worker) })
	c.Scheduler().At(2500*simtime.Millisecond, func() {
		before = recorder.DatabaseView(rec)
		c.CrashRecorder()
	})
	c.Run(4 * simtime.Second)
	if w := before[worker]; w.Checkpoint == nil || len(w.Arrivals) == 0 {
		t.Fatalf("scenario drifted: the worker held checkpoint %v and %d arrivals at the crash", w.Checkpoint != nil, len(w.Arrivals))
	}
	if err := c.RestartRecorder(); err != nil {
		t.Fatal(err)
	}
	recorder.DiffDatabase(t, before, recorder.DatabaseView(rec))

	c.Run(120 * simtime.Second)
	if len(got) != msgs {
		t.Fatalf("witness saw %d messages, want %d: %v", len(got), msgs, got)
	}
	for i, m := range got {
		if k := i + 1; m != fmt.Sprintf("step=%d sum=%d", k, k*(k+1)/2) {
			t.Fatalf("witness[%d] = %q (full: %v)", i, m, got)
		}
	}
}

package publishing

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"publishing/internal/chaos"
	"publishing/internal/simtime"
)

// A body is read-only from the sender's Send through every receiver and the
// recorder's tap (demos.Msg.Body): the wire, the receivers and the tap's
// pending queue share one body, and the recorder's store page holds the one
// copy a replay after a crash reads in place. bodyWatch checks that rule the
// way TestSentFramesAreImmutable checks the wire's: it hashes every body a
// program is handed, keeps it, and hashes it again at quiescence.
type bodyWatch struct {
	bodies [][]byte
	sums   [][32]byte
}

func (w *bodyWatch) handed(b []byte) {
	w.bodies = append(w.bodies, b)
	w.sums = append(w.sums, sha256.Sum256(b))
}

// written counts the bodies whose bytes changed after they were handed over.
func (w *bodyWatch) written() int {
	n := 0
	for i, b := range w.bodies {
		if sha256.Sum256(b) != w.sums[i] {
			n++
		}
	}
	return n
}

// bodyMisuse is a program that breaks the rule, for the watch's own test.
type bodyMisuse int

const (
	bodiesIntact bodyMisuse = iota
	// receiverWrites: the witness writes to the body it was handed.
	receiverWrites
	// senderReuses: the producer sends every message from one buffer.
	senderReuses
)

// watchedMsgs is how many messages the watched pipeline's producer sends.
const watchedMsgs = 12

// watchedPipeline builds the producer → worker → witness pipeline with every
// body a program is handed watched. The worker forwards each body it
// receives to the witness as is, so one body crosses two hops and is logged
// twice. Transport retries and the watchdog are sized as ChaosScenario
// sizes them, and the three processes sit on Pipeline's nodes, so
// ApplyChaos can aim a fault schedule at the worker. It returns the
// cluster, the watch, the worker and a count of the bodies the witness
// received.
func watchedPipeline(t *testing.T, medium MediumKind, seed uint64, misuse bodyMisuse) (*Cluster, *bodyWatch, ProcID, *int) {
	t.Helper()
	cfg := DefaultConfig(3)
	cfg.Medium = medium
	cfg.Seed = seed
	cfg.MissThreshold = 20
	cfg.Transport.MaxRetries = 600
	c := New(cfg)
	t.Cleanup(c.Close)
	// Not Pipeline: these images misuse bodies on purpose, and
	// watch every body they are handed.
	w := &bodyWatch{}
	witnessed := new(int)
	c.Registry().RegisterMachine("witness", func([]byte) Machine {
		return &testMachine{handle: func(_ *PCtx, m Msg) {
			w.handed(m.Body)
			*witnessed++
			if misuse == receiverWrites {
				m.Body[0] ^= 0xff
			}
		}}
	})
	c.Registry().RegisterMachine("worker", func([]byte) Machine {
		var out LinkID
		return &testMachine{
			init: func(ctx *PCtx) { out, _ = ctx.ServiceLink("witness") },
			handle: func(ctx *PCtx, m Msg) {
				w.handed(m.Body)
				_ = ctx.Send(out, m.Body, NoLink)
			},
		}
	})
	c.Registry().RegisterProgram("producer", func([]byte) Program {
		return func(ctx *PCtx) {
			l, err := ctx.ServiceLink("worker")
			if err != nil {
				return
			}
			buf := make([]byte, 8)
			for i := 1; i <= watchedMsgs; i++ {
				body := fmt.Appendf(nil, "msg %3d", i)
				if misuse == senderReuses {
					body = fmt.Appendf(buf[:0], "msg %3d", i)
				}
				_ = ctx.Send(l, body, NoLink)
				ctx.Compute(200 * simtime.Millisecond)
			}
		}
	})
	var worker ProcID
	for _, s := range []struct {
		node NodeID
		name string
	}{{witnessNode, "witness"}, {workerNode, "worker"}, {producerNode, "producer"}} {
		id, err := c.Spawn(s.node, ProcSpec{Name: s.name, Recoverable: true})
		if err != nil {
			t.Fatal(err)
		}
		c.SetService(s.name, id)
		if s.name == "worker" {
			worker = id
		}
	}
	return c, w, worker, witnessed
}

// TestDeliveredBodiesAreImmutable runs the watched pipeline on every medium
// with the worker crashed mid-stream, so its recovery replays bodies from
// the recorder's log, and then under generated chaos schedules (node and
// process crashes, partitions, loss, tap misses, recorder crashes). No body
// any program was handed may change by quiescence.
func TestDeliveredBodiesAreImmutable(t *testing.T) {
	for _, medium := range []MediumKind{MediumPerfect, MediumEther, MediumAckEther, MediumRing, MediumStar} {
		t.Run(string(medium), func(t *testing.T) {
			c, w, worker, witnessed := watchedPipeline(t, medium, 1, bodiesIntact)
			c.Scheduler().At(1200*simtime.Millisecond, func() { c.CrashProcess(worker) })
			c.Run(60 * simtime.Second)
			if *witnessed != watchedMsgs || c.Recorder().Stats().MessagesReplayed == 0 {
				t.Fatalf("witness got %d of %d bodies, %d replayed: the run does not exercise what it checks",
					*witnessed, watchedMsgs, c.Recorder().Stats().MessagesReplayed)
			}
			if n := w.written(); n != 0 {
				t.Errorf("%d of %d bodies handed to programs were written to by quiescence", n, len(w.bodies))
			}
		})
	}
	t.Run("chaos", func(t *testing.T) {
		for seed := uint64(1); seed <= 20; seed++ {
			medium := ChaosSeedVariant(seed).Medium
			if medium == "" {
				medium = MediumPerfect
			}
			c, w, worker, _ := watchedPipeline(t, medium, seed, bodiesIntact)
			s := chaos.Generate(seed, chaos.DefaultLimits())
			ApplyChaos(c, &PipelineRun{Worker: worker}, s)
			if busy := SettleChaos(c, s); busy != nil {
				t.Fatalf("seed %d (%s): not settled: %v", seed, medium, busy)
			}
			if n := w.written(); n != 0 {
				t.Errorf("seed %d (%s): %d of %d bodies handed to programs were written to by quiescence",
					seed, medium, n, len(w.bodies))
			}
		}
	})
}

// TestBodyWatchCatchesMisuse: the watch fails a receiver that writes to a
// body it was handed and a sender that reuses its buffer after Send.
func TestBodyWatchCatchesMisuse(t *testing.T) {
	for _, misuse := range []struct {
		name string
		m    bodyMisuse
	}{{"receiver-writes", receiverWrites}, {"sender-reuses", senderReuses}} {
		t.Run(misuse.name, func(t *testing.T) {
			c, w, _, witnessed := watchedPipeline(t, MediumAckEther, 1, misuse.m)
			c.Run(30 * simtime.Second)
			if *witnessed == 0 {
				t.Fatal("nothing reached the witness")
			}
			if w.written() == 0 {
				t.Errorf("no handed body changed by quiescence: the watch misses a program that %s", misuse.name)
			}
		})
	}
}

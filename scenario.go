package publishing

import (
	"fmt"

	"publishing/internal/frame"
	"publishing/internal/simtime"
)

// This file holds the two traffic shapes every cluster scenario outside
// bench/ and examples/ is built from: the producer → worker → witness
// Pipeline, whose witness transcript checks §3.3.3's transparent recovery,
// and the gen → sink Stream, which only moves messages. A scenario is a
// value; Start registers its images on a cluster and spawns them.

// Pipeline is the recovery scenario: a producer on node 0 sends Msgs
// messages to a worker on node 1, which sums the first byte of each and
// reports every step to a witness on node 2 as "step=k sum=s". The worker
// checkpoints its state, so a crash at any point, replayed, must leave the
// witness with each step exactly once.
type Pipeline struct {
	// Msgs is how many messages the producer sends.
	Msgs int
	// Bytes is each body's size (at least 1). Body i, for i = 1..Msgs,
	// starts with byte(i).
	Bytes int
	// Pace is the compute time the producer spends after each send.
	Pace Time
	// WorkerBound is the worker's RecoveryTimeBound (0: none).
	WorkerBound Time
	// Prefix starts the three process and service names: Prefix+"producer",
	// Prefix+"worker", Prefix+"witness". Names are stored with every
	// process record, so they are part of a run's timing and digests.
	Prefix string
}

// PipelineRun is a started Pipeline: the witness transcript, the worker's
// live state and the two ids a fault schedule aims at. It is the scenario's
// chaos.Workload.
type PipelineRun struct {
	Worker, Witness ProcID

	n    int
	msgs []string
	// st points at the current worker incarnation's state; recovery builds a
	// fresh machine through the registry factory, which re-points it.
	st *workerState
}

// Done reports whether the witness has seen every step.
func (r *PipelineRun) Done() bool { return len(r.msgs) >= r.n }

// Output returns a copy of the witness transcript.
func (r *PipelineRun) Output() []string { return append([]string(nil), r.msgs...) }

// State returns the live worker's state, encoded as its checkpoint is.
func (r *PipelineRun) State() ([]byte, error) { return frame.AppendBody(nil, r.st, codeWorker), nil }

// Check returns an error unless the witness saw steps 1..Msgs exactly once,
// in order, each with the running sum of the bytes the producer sent.
func (r *PipelineRun) Check() error {
	if len(r.msgs) != r.n {
		return fmt.Errorf("witness saw %d messages, want %d: %v", len(r.msgs), r.n, r.msgs)
	}
	sum := 0
	for i, got := range r.msgs {
		sum += int(byte(i + 1))
		if want := fmt.Sprintf("step=%d sum=%d", i+1, sum); got != want {
			return fmt.Errorf("witness[%d] = %q, want %q (full: %v)", i, got, want, r.msgs)
		}
	}
	return nil
}

// Start registers the pipeline's images on c and spawns the witness, the
// worker and the producer, in that order.
func (p Pipeline) Start(c *Cluster) *PipelineRun {
	r := p.register(c)
	r.Witness = mustSpawn(c, 2, ProcSpec{Name: p.Prefix + "witness", Recoverable: true})
	c.SetService(p.Prefix+"witness", r.Witness)
	r.Worker = mustSpawn(c, 1, ProcSpec{Name: p.Prefix + "worker", Recoverable: true, RecoveryTimeBound: p.WorkerBound})
	c.SetService(p.Prefix+"worker", r.Worker)
	mustSpawn(c, 0, ProcSpec{Name: p.Prefix + "producer", Recoverable: true})
	return r
}

// register registers the three images without spawning them, for tests
// that spawn the worker differently.
func (p Pipeline) register(c *Cluster) *PipelineRun {
	r := &PipelineRun{n: p.Msgs}
	c.Registry().RegisterMachine(p.Prefix+"witness", func([]byte) Machine { return pipelineWitness{r} })
	c.Registry().RegisterMachine(p.Prefix+"worker", func([]byte) Machine {
		r.st = &workerState{}
		return &pipelineWorker{st: r.st, witness: p.Prefix + "witness"}
	})
	c.Registry().RegisterProgram(p.Prefix+"producer", func([]byte) Program {
		return func(ctx *PCtx) {
			link, err := ctx.ServiceLink(p.Prefix + "worker")
			if err != nil {
				return
			}
			for i := 1; i <= p.Msgs; i++ {
				// A fresh body per send: a body is read-only from Send on.
				body := make([]byte, max(p.Bytes, 1))
				body[0] = byte(i)
				_ = ctx.Send(link, body, NoLink)
				if p.Pace > 0 {
					ctx.Compute(p.Pace)
				}
			}
		}
	})
	return r
}

// pipelineWitness appends every message body to the transcript. It is never
// a fault target: its output escapes the simulation, so replaying it would
// duplicate external effects.
type pipelineWitness struct{ r *PipelineRun }

func (m pipelineWitness) Init(*PCtx)                {}
func (m pipelineWitness) Handle(_ *PCtx, g Msg)     { m.r.msgs = append(m.r.msgs, string(g.Body)) }
func (m pipelineWitness) Snapshot() ([]byte, error) { return nil, nil }
func (m pipelineWitness) Restore([]byte) error      { return nil }

// workerState is the worker's checkpointable state.
type workerState struct {
	Witness LinkID
	HasOut  bool
	Count   int
	Sum     int
}

func codeWorker(c *frame.Coder, st *workerState) {
	frame.Int(c, &st.Witness)
	c.Bool(&st.HasOut)
	frame.Int(c, &st.Count)
	frame.Int(c, &st.Sum)
}

// pipelineWorker accumulates integers and reports each step to the witness:
// the recoverable process whose exactly-once, state and output guarantees
// a scenario checks.
type pipelineWorker struct {
	st      *workerState
	witness string
}

func (m *pipelineWorker) Init(ctx *PCtx) {
	if lid, err := ctx.ServiceLink(m.witness); err == nil {
		m.st.Witness = lid
		m.st.HasOut = true
	}
}

func (m *pipelineWorker) Handle(ctx *PCtx, g Msg) {
	m.st.Count++
	m.st.Sum += int(g.Body[0])
	if m.st.HasOut {
		_ = ctx.Send(m.st.Witness, []byte(fmt.Sprintf("step=%d sum=%d", m.st.Count, m.st.Sum)), NoLink)
	}
}

func (m *pipelineWorker) Snapshot() ([]byte, error) {
	return frame.AppendBody(nil, m.st, codeWorker), nil
}

func (m *pipelineWorker) Restore(b []byte) error { return frame.DecodeBody(b, m.st, codeWorker) }

// Stream is the one-way traffic shape: gen on node 0 sends Msgs messages of
// Bytes bytes, Pace apart, to a sink on node 1. Body j, for j = 0..Msgs-1,
// starts with byte(j).
type Stream struct {
	Msgs  int
	Bytes int
	Pace  Time
}

// StreamRun is a started Stream: what the sink has seen.
type StreamRun struct {
	// Got counts the sink's deliveries.
	Got int
	// Last is the virtual time the latest delivery landed.
	Last Time
}

// Start registers the stream's images on c and spawns the sink, then gen.
func (s Stream) Start(c *Cluster) *StreamRun {
	r := &StreamRun{}
	c.Registry().RegisterMachine("sink", func([]byte) Machine { return streamSink{r, c.Now} })
	c.Registry().RegisterProgram("gen", func([]byte) Program {
		return func(ctx *PCtx) {
			link, err := ctx.ServiceLink("sink")
			if err != nil {
				return
			}
			for j := 0; j < s.Msgs; j++ {
				body := make([]byte, max(s.Bytes, 1))
				body[0] = byte(j)
				_ = ctx.Send(link, body, NoLink)
				if s.Pace > 0 {
					ctx.Compute(s.Pace)
				}
			}
		}
	})
	c.SetService("sink", mustSpawn(c, 1, ProcSpec{Name: "sink", Recoverable: true}))
	mustSpawn(c, 0, ProcSpec{Name: "gen", Recoverable: true})
	return r
}

// streamSink counts deliveries and stamps the latest.
type streamSink struct {
	r   *StreamRun
	now func() Time
}

func (m streamSink) Init(*PCtx) {}
func (m streamSink) Handle(*PCtx, Msg) {
	m.r.Got++
	m.r.Last = m.now()
}
func (m streamSink) Snapshot() ([]byte, error) { return nil, nil }
func (m streamSink) Restore([]byte) error      { return nil }

func mustSpawn(c *Cluster, node NodeID, spec ProcSpec) ProcID {
	p, err := c.Spawn(node, spec)
	if err != nil {
		panic(fmt.Sprintf("publishing: spawn %s on node %d: %v", spec.Name, node, err))
	}
	return p
}

// FastLAN gives cfg a modern fast LAN: 100 Mb/s with a 50 µs interframe
// gap. The recorder pings every processing node each watch tick, so
// watchdog traffic alone is ~2N frames per watch interval. On the paper's
// 10 Mb/s Ethernet (~2 ms per small frame with its 1.6 ms gap) that
// saturates the bus near N ≈ 128, and a wide scenario would measure
// congestion rather than what it sets out to; on the fast LAN ping load
// stays under ~10 % of the channel.
func FastLAN(cfg *Config) {
	cfg.LAN.BitsPerSecond = 100_000_000
	cfg.LAN.InterframeGap = 50 * simtime.Microsecond
}

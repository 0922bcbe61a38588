// Package debugger implements §6.5, "Debugging using published messages":
// because the recorder holds a process's checkpoint and its complete,
// correctly ordered message history, a programmer can re-execute the
// process in a sandbox, stepping one message at a time and watching every
// output it produces — "back up a process to the point where the problem
// originally occurred".
//
// The history is the recorder's records (Recorder.StreamMessages), each a
// frame.BundleRec read from its stable store; a step hands one to the
// process as a recovery's replay would (demos.RecMsg) and reports it as
// StepResult.Delivered. The sandbox is a single isolated node with
// publishing off; the debugged process's outgoing messages are intercepted
// before transmission and reported as step results instead of being
// delivered anywhere, so the re-execution cannot perturb the live system.
package debugger

import (
	"errors"
	"fmt"

	"publishing/internal/demos"
	"publishing/internal/frame"
	"publishing/internal/lan"
	"publishing/internal/recorder"
	"publishing/internal/simtime"
	"publishing/internal/trace"
	"publishing/internal/transport"
)

// Output is one message the debugged process (re-)sent.
type Output struct {
	To      frame.ProcID
	Channel uint16
	Code    uint32
	Seq     uint64
	Body    []byte
	// Resend marks outputs the original execution had already sent before
	// its crash (seq ≤ the recorded last-sent id); during real recovery the
	// kernel suppresses exactly these.
	Resend bool
}

// String formats the output.
func (o Output) String() string {
	tag := ""
	if o.Resend {
		tag = " (resend)"
	}
	return fmt.Sprintf("-> %s ch=%d #%d %q%s", o.To, o.Channel, o.Seq, o.Body, tag)
}

// StepResult reports one debugging step.
type StepResult struct {
	// Delivered is the replayed message (zero on Boot).
	Delivered frame.BundleRec
	// Outputs are the messages the step provoked.
	Outputs []Output
	// State is the machine state after the step (nil for Program images or
	// when the process is mid-execution).
	State []byte
	// Position is the stream index after the step.
	Position int
}

// Options tune a session.
type Options struct {
	// Checkpoint restores the process from a snapshot instead of the
	// initial image; SendSeq/ReadCount are its counters.
	Checkpoint []byte
	SendSeq    uint64
	ReadCount  uint64
	// OriginalLastSent marks which outputs are resends of pre-crash
	// messages (recorder.LastSentOf).
	OriginalLastSent uint64
	// Services resolves well-known service names exactly as the live
	// cluster did, so re-executed ServiceLink calls behave identically.
	Services map[string]frame.ProcID
}

// Session is one interactive replay.
type Session struct {
	sched  *simtime.Scheduler
	kernel *demos.Kernel
	pid    frame.ProcID
	stream []frame.BundleRec
	pos    int
	opts   Options

	pending []Output
	booted  bool
}

// ErrExhausted is returned by Step when the stream is fully replayed.
var ErrExhausted = errors.New("debugger: published stream exhausted")

// New builds a sandboxed session replaying spec against stream.
func New(reg *demos.Registry, spec demos.ProcSpec, pid frame.ProcID, stream []frame.BundleRec, opts Options) (*Session, error) {
	sched := simtime.NewScheduler()
	log := trace.New(sched.Now)
	rng := simtime.NewRand(1)
	med := lan.NewPerfect(lan.DefaultConfig(), sched, rng, log)
	env := demos.Env{
		Sched:     sched,
		Rng:       rng,
		Log:       log,
		Registry:  reg,
		Costs:     demos.ZeroCosts(),
		Medium:    med,
		Transport: transport.DefaultConfig(),
		Services:  opts.Services,
	}
	k := demos.NewKernel(pid.Node, env)
	s := &Session{sched: sched, kernel: k, pid: pid, stream: stream, opts: opts}
	k.SetEmitFilter(func(f *frame.Frame) bool {
		if f.From != pid {
			return false // not the debugged process; let it through
		}
		if f.To == pid {
			return false // self-sends must loop back for determinism
		}
		s.pending = append(s.pending, Output{
			To:      f.To,
			Channel: f.Channel,
			Code:    f.Code,
			Seq:     f.ID.Seq,
			Body:    append([]byte(nil), f.Body...),
			Resend:  f.ID.Seq <= opts.OriginalLastSent,
		})
		return true
	})
	_, err := k.Spawn(spec, demos.SpawnOptions{
		FixedID:    &pid,
		Checkpoint: opts.Checkpoint,
		SendSeq:    opts.SendSeq,
		ReadCount:  opts.ReadCount,
		Quiet:      true,
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// FromRecorder builds a session for a live cluster's process, pulling the
// stream, spec, and latest checkpoint from the recorder. services must be
// the cluster's well-known service map (publishing.Cluster.DebugSession
// wires this up).
func FromRecorder(reg *demos.Registry, rec *recorder.Recorder, pid frame.ProcID, useCheckpoint bool, services map[string]frame.ProcID) (*Session, error) {
	spec, ok := rec.SpecOf(pid)
	if !ok {
		return nil, fmt.Errorf("debugger: recorder knows no process %s", pid)
	}
	opts := Options{OriginalLastSent: rec.LastSentOf(pid), Services: services}
	if useCheckpoint {
		if blob, sendSeq, readCount, ok := rec.CheckpointOf(pid); ok {
			opts.Checkpoint = blob
			opts.SendSeq = sendSeq
			opts.ReadCount = readCount
		}
	}
	return New(reg, spec, pid, rec.StreamMessages(pid), opts)
}

// Remaining reports how many messages are left to replay.
func (s *Session) Remaining() int { return len(s.stream) - s.pos }

// Position reports the current stream index.
func (s *Session) Position() int { return s.pos }

// settle runs the sandbox until the process parks, then harvests outputs.
func (s *Session) settle() StepResult {
	s.sched.RunAll(1_000_000)
	res := StepResult{Outputs: s.pending, Position: s.pos}
	s.pending = nil
	if st, ok := s.kernel.MachineSnapshot(s.pid); ok {
		res.State = st
	}
	return res
}

// Boot runs the process up to its first receive (Init code and any output
// it produces) without delivering a message. Step calls it implicitly.
func (s *Session) Boot() StepResult {
	if s.booted {
		return StepResult{Position: s.pos}
	}
	s.booted = true
	return s.settle()
}

// Step delivers the next published message and runs the process until it
// waits for input again, returning everything it did.
func (s *Session) Step() (StepResult, error) {
	if !s.booted {
		boot := s.Boot()
		if len(boot.Outputs) > 0 {
			// Surface boot activity as its own step.
			return boot, nil
		}
	}
	if s.pos >= len(s.stream) {
		return StepResult{Position: s.pos}, ErrExhausted
	}
	rec := &s.stream[s.pos]
	s.pos++
	m, link := demos.RecMsg(rec)
	if err := s.kernel.Inject(s.pid, m, link); err != nil {
		return StepResult{}, err
	}
	res := s.settle()
	res.Delivered = *rec
	res.Position = s.pos
	return res, nil
}

// RunUntil steps until pred is satisfied or the stream ends. It reports the
// matching step and whether pred ever held — the §6.5 breakpoint.
func (s *Session) RunUntil(pred func(StepResult) bool) (StepResult, bool) {
	for {
		res, err := s.Step()
		if err != nil {
			return res, false
		}
		if pred(res) {
			return res, true
		}
	}
}

// RunAll replays the remaining stream and returns every step.
func (s *Session) RunAll() []StepResult {
	var out []StepResult
	for {
		res, err := s.Step()
		if err != nil {
			return out
		}
		out = append(out, res)
	}
}

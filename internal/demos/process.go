package demos

import (
	"errors"
	"fmt"
	"iter"

	"publishing/internal/frame"
	"publishing/internal/simtime"
)

// Kernel-call errors returned to processes.
var (
	// ErrBadLink is returned for operations on unknown link ids.
	ErrBadLink = errors.New("demos: no such link")
	// ErrNoMessage is returned by TryReceive when nothing matches.
	ErrNoMessage = errors.New("demos: no message")
	// ErrDiverged reports a replay determinism violation: the recovering
	// process asked for channels that exclude the next replayed message.
	ErrDiverged = errors.New("demos: recovery diverged from published history")
)

// runState is a process's scheduling condition.
type runState uint8

const (
	psReady runState = iota
	psRunning
	psBlocked // waiting in Receive
	psStopped // suspended by OpStop
	psCrashed // halted on a fault, awaiting recovery
	psDead    // exited or destroyed
)

// yieldKind classifies how a process coroutine handed control back.
type yieldKind uint8

const (
	yCall yieldKind = iota
	yExit
	yFault
	yKilled
)

// callOp enumerates kernel calls.
type callOp uint8

const (
	opSend callOp = iota
	opReceive
	opTryReceive
	opCreateLink
	opDestroyLink
	opCompute
	opRealTime
	opRunTime
	opServiceLink
	opKernelLink
)

type callReq struct {
	op       callOp
	link     LinkID
	pass     LinkID
	body     []byte
	name     string // opServiceLink's service
	channels []uint16
	dur      simtime.Time
	channel  uint16
	code     uint32
	toKernel bool
}

type callResp struct {
	msg Msg
	ok  bool
	lid LinkID
	err error
	t   simtime.Time
}

type yieldMsg struct {
	kind yieldKind
	req  callReq
	err  error
}

// sentinels used to unwind a process coroutine.
type unwind uint8

const (
	unwindKill unwind = iota
	unwindExit
)

// process is the kernel-resident representation of one process: its control
// record, save area (link table), and input queue (§4.4.3 lists exactly
// these as the kernel-resident state).
type process struct {
	id   frame.ProcID
	spec ProcSpec
	k    *Kernel

	prog    Program
	machine Machine

	links *linkTable
	queue msgQueue

	// sendSeq numbers outgoing messages; readCount counts messages read.
	sendSeq   uint64
	readCount uint64

	state    runState
	onRunq   bool
	restored bool

	// recovering marks replay mode: direct messages are refused and output
	// messages with seq <= suppressThrough are suppressed (§3.3.3).
	recovering      bool
	suppressThrough uint64
	// recoveryGen is the recorder's recovery-attempt generation this
	// incarnation was recreated under; replay batches and recovery-done
	// frames from other generations are stale and dropped (§3.5).
	recoveryGen uint64
	// replayBatch is the cumulative replay-batch acknowledgement: the
	// highest batch sequence applied in order.
	replayBatch uint64
	// marks are the acceptance marks: per sender, the highest seq taken into
	// the queue, directly or by replay. Checkpoints carry them, so a copy a
	// rebooted transport cannot recognize is still consumed, not queued.
	marks frame.Marks

	// Coroutine hand-off (iter.Pull). The program runs only inside next() or
	// stop(), so exactly one of (kernel, process) executes at any instant.
	// pending is what the parked kernel call returns; final is how the
	// program ended, set before its last hand-back.
	started  bool
	finished bool
	next     func() (callReq, bool)
	stop     func()
	final    yieldMsg
	pending  callResp
	want     []uint16 // channels a blocked Receive is waiting for
	// pendingReceiveRetry marks a receive to complete at next dispatch.
	pendingReceiveRetry bool
	// stopped suspends scheduling (OpStop) without losing state.
	stopped bool

	// Recovery-bound bookkeeping (§3.2.3), reset at each checkpoint.
	msgsSinceCk  uint64
	bytesSinceCk uint64
	cpuSinceCk   simtime.Time
	lastCkAt     simtime.Time
	stateKB      int
}

// run is the process coroutine body.
func (p *process) run(yield func(callReq) bool) {
	defer func() {
		switch r := recover(); r {
		case nil, unwindExit:
			p.final = yieldMsg{kind: yExit}
		case unwindKill:
			p.final = yieldMsg{kind: yKilled}
		default:
			// A panic in user code is a detected process fault (§1.1.2).
			p.final = yieldMsg{kind: yFault, err: fmt.Errorf("process fault: %v", r)}
		}
	}()
	p.prog(&PCtx{p: p, yield: yield})
}

// step runs the program up to its next kernel call (or its end), starting
// the coroutine on first use. The parked call returns with p.pending.
func (p *process) step() yieldMsg {
	if !p.started {
		p.started = true
		p.next, p.stop = iter.Pull(p.run)
	}
	req, ok := p.next()
	p.pending = callResp{}
	if !ok {
		p.finished = true
		return p.final
	}
	return yieldMsg{kind: yCall, req: req}
}

// kill unwinds a parked program synchronously: its yield returns false and
// the kernel call panics with unwindKill, running the program's defers.
func (p *process) kill() {
	if p.started && !p.finished {
		p.stop()
		p.finished = true
	}
}

// machineProgram adapts a Machine to the Program execution model.
func machineProgram(m Machine) Program {
	return func(ctx *PCtx) {
		if !ctx.Restored() {
			m.Init(ctx)
		}
		for {
			m.Handle(ctx, ctx.Receive())
		}
	}
}

// PCtx is the kernel-call interface handed to a running process. Every
// method is a scheduling point: the process yields to the kernel, which
// performs the operation, charges its cost on the virtual clock, and
// resumes the process on a later dispatch — the deterministic round-robin
// quantum of §6.6.2.
//
// Its methods must be called from the program's own goroutine — the one the
// kernel runs the Program or Machine on. A kernel call parks that coroutine;
// from a goroutine the program spawned it would corrupt the hand-off.
type PCtx struct {
	p     *process
	yield func(callReq) bool
}

// call hands req to the kernel and parks until the next dispatch; the kernel
// leaves the response in the process record. A false yield is a kill.
func (c *PCtx) call(req callReq) callResp {
	if !c.yield(req) {
		panic(unwindKill)
	}
	return c.p.pending
}

// Self returns the process's network-wide id (§4.3.1).
func (c *PCtx) Self() frame.ProcID { return c.p.id }

// Args returns the creation arguments from the process's spec.
func (c *PCtx) Args() []byte { return c.p.spec.Args }

// Restored reports whether this incarnation was restored from a checkpoint
// rather than started from the initial image.
func (c *PCtx) Restored() bool { return c.p.restored }

// Recovering reports whether the process is replaying published messages.
// Exposed for tests and instrumentation; transparent programs never need it.
func (c *PCtx) Recovering() bool { return c.p.recovering }

// CreateLink creates a link to the calling process with the given channel
// and code and returns its id (§4.2.2.1: "For a process to receive
// messages, it must create a link to itself").
func (c *PCtx) CreateLink(channel uint16, code uint32) LinkID {
	r := c.call(callReq{op: opCreateLink, channel: channel, code: code})
	return r.lid
}

// DestroyLink removes a link from the process's table.
func (c *PCtx) DestroyLink(id LinkID) error {
	r := c.call(callReq{op: opDestroyLink, link: id})
	return r.err
}

// Send sends body over the link with id link. pass, if not NoLink, names a
// link to move into the message (§4.2.2.3); it leaves the sender's table.
// Send does not copy body: the wire, the receivers and the recorder's log
// share it, so the caller must not write to it after the call (Msg.Body).
// Forwarding a received Msg.Body as is is fine.
func (c *PCtx) Send(link LinkID, body []byte, pass LinkID) error {
	r := c.call(callReq{op: opSend, link: link, body: body, pass: pass})
	return r.err
}

// Receive blocks until a message arrives on one of the given channels
// (none: any channel) and returns it. A link passed in the message is
// installed in the caller's table and its id set in Msg.Link. Msg.Body is
// read-only.
func (c *PCtx) Receive(channels ...uint16) Msg {
	r := c.call(callReq{op: opReceive, channels: channels})
	if r.err != nil {
		// Replay divergence surfaces as a fault: the process is not
		// deterministic on its inputs and cannot be transparently recovered.
		panic(r.err)
	}
	return r.msg
}

// TryReceive returns the next matching message without blocking. Programs
// that branch on its failure are timing-dependent and therefore not
// deterministic on their inputs; recoverable processes should prefer
// Receive (§1.1.1 discusses exactly this class of non-determinism).
func (c *PCtx) TryReceive(channels ...uint16) (Msg, bool) {
	r := c.call(callReq{op: opTryReceive, channels: channels})
	return r.msg, r.ok
}

// Compute consumes d of virtual CPU time, modelling computation between
// messages.
func (c *PCtx) Compute(d simtime.Time) {
	c.call(callReq{op: opCompute, dur: d})
}

// Exit terminates the process normally.
func (c *PCtx) Exit() {
	panic(unwindExit)
}

// Crash halts the process as if a fault were detected (test/fault-injection
// aid; a real fault is any panic in process code).
func (c *PCtx) Crash(reason string) {
	panic("injected fault: " + reason)
}

// RealTime returns the virtual wall clock — Get_Real_Time in the Fig 5.6
// measurement program. Reading the clock directly is a device interaction
// the recorder cannot see, so processes that use it are non-deterministic
// on replay; measurement programs are not recovered. Deterministic programs
// should ask a clock *process* instead (its replies are published).
func (c *PCtx) RealTime() simtime.Time {
	return c.call(callReq{op: opRealTime}).t
}

// RunTime returns the node's accumulated kernel CPU time — Get_Run_Time in
// Fig 5.6 ("the CPU time that the kernel spends outside of the idle loop").
// The same non-determinism caveat as RealTime applies.
func (c *PCtx) RunTime() simtime.Time {
	return c.call(callReq{op: opRunTime}).t
}

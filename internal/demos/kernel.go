package demos

import (
	"fmt"
	"maps"
	"slices"

	"publishing/internal/frame"
	"publishing/internal/lan"
	"publishing/internal/metrics"
	"publishing/internal/simtime"
	"publishing/internal/trace"
	"publishing/internal/transport"
)

// Env bundles the shared plumbing a kernel runs on.
type Env struct {
	Sched    *simtime.Scheduler
	Rng      *simtime.Rand
	Log      *trace.Log
	Registry *Registry
	Costs    Costs
	Medium   lan.Medium
	// Transport configures each node's endpoint.
	Transport transport.Config
	// RecorderProc is where bookkeeping notices go (the recording software,
	// §4.5). Set, it turns publishing on: every recoverable process's
	// messages — intranode included — go through the network so the
	// recorder can store them (§4.4.1). Zero means no recorder is listening,
	// the unmodified DEMOS/MP baseline measured in Fig 5.7/5.8.
	RecorderProc frame.ProcID
	// Services maps well-known service names ("procmgr", "namesvc") to
	// process ids; PCtx.ServiceLink mints links to them. This is the
	// kernel-granted initial-link rendezvous of §4.2.2.1 in shortcut form.
	Services map[string]frame.ProcID
	// Metrics, when non-nil, receives each kernel's counters, the total
	// input-queue depth gauge, and the checkpoint-size histogram under
	// subsystem "kernel".
	Metrics *metrics.Registry
}

// KernelStats counts per-node kernel activity.
type KernelStats struct {
	KernelCalls        uint64
	MsgsSent           uint64
	MsgsLocal          uint64 // delivered without touching the network
	MsgsDelivered      uint64
	MsgsRefused        uint64 // refused because target crashed/recovering
	MsgsForwarded      uint64 // refused for a moved process, its sender told where
	MsgsDiscarded      uint64 // addressed to dead/unknown processes
	Suppressed         uint64 // output messages squelched during re-execution
	Advisories         uint64 // §4.4.2 read-order notices
	Checkpoints        uint64
	ProcsCreated       uint64
	ProcsDestroyed     uint64
	ProcsCrashed       uint64
	Replayed           uint64       // messages injected by recovery processes
	ReplayBatches      uint64       // replay batch frames applied
	StaleReplayDropped uint64       // replay frames from an abandoned recovery generation
	ReplayDupsDropped  uint64       // direct copies at or below the acceptance mark consumed
	KernelCPU          simtime.Time // kernel-mode busy time (Get_Run_Time, Fig 5.6)
	UserCPU            simtime.Time // process execution time
}

// Kernel is one node's message kernel plus its kernel process (§4.2.1). It
// must only be touched from simulation events (single-threaded).
type Kernel struct {
	env  Env
	node frame.NodeID
	ep   *transport.Endpoint

	procs     map[frame.ProcID]*process
	nextLocal uint32
	bootEpoch uint32
	// replies is what the kernel process's replies are carved from (reply).
	replies frame.Slab
	// ckImage and ckQueued are CheckpointNow's scratch: the image and the
	// queued ids it encodes into a notice, which copies them.
	ckImage  []byte
	ckQueued []frame.MsgID

	// kpSendSeq numbers messages the kernel process sends as itself. It is
	// salted with the boot epoch so ids never collide across reboots (the
	// kernel process is not recovered by replay; see package recorder).
	kpSendSeq uint64

	runq            []*process
	dispatchPending bool
	// dispatchFn is the scheduled-dispatch callback, rebuilt only when the
	// boot epoch changes: one dispatch event fires per quantum, so capturing
	// the epoch in a fresh closure each time was a per-quantum allocation.
	dispatchFn      func()
	dispatchFnEpoch uint32
	// sendCPU carries each network send to the endpoint when its send-CPU
	// work completes. Every send waits the same fixed cost (Costs does not
	// change for the kernel's life), so hand-off times never decrease, which
	// is the condition a Pipe relies on.
	sendCPU *simtime.Pipe[cpuSend]
	// cpuFree is when the node CPU finishes its current work.
	cpuFree simtime.Time

	crashed bool
	// shut is set by Shutdown: no process is dispatched here again.
	shut bool

	// routing overrides the home-node rule for migrated/recovered processes
	// (§4.3.3 route-through).
	routing map[frame.ProcID]frame.NodeID
	// routes counts SetRoute calls (see handOff).
	routes uint32

	// chargeTo attributes CPU charges to the process whose kernel call is
	// being handled (nil outside handleCall).
	chargeTo *process

	// emitFilter, when set, inspects every outgoing message frame before
	// transmission; returning true consumes the frame (it is not sent).
	// The replay debugger (§6.5) uses this to capture a process's outputs
	// in a sandbox.
	emitFilter func(f *frame.Frame) bool

	// ckStage assembles checkpoint blobs that arrive chunked ahead of their
	// OpRecreate (too big for one MTU-sized frame). Keyed by the recovering
	// process; a new generation supersedes a stale partial assembly.
	ckStage map[frame.ProcID]*ckAssembly

	stats KernelStats
	// qDepth tracks messages sitting in this node's process input queues;
	// ckBytes observes checkpoint blob sizes.
	qDepth  *metrics.Gauge
	ckBytes *metrics.Histogram
}

// ckAssembly is one in-progress chunked checkpoint transfer.
type ckAssembly struct {
	gen  uint64
	next uint64 // next expected chunk seq
	data []byte
}

// NewKernel boots a kernel for node and attaches its network endpoint.
func NewKernel(node frame.NodeID, env Env) *Kernel {
	k := &Kernel{
		env:       env,
		node:      node,
		procs:     make(map[frame.ProcID]*process),
		nextLocal: 1, // local id 0 is the kernel process
		routing:   make(map[frame.ProcID]frame.NodeID),
	}
	k.sendCPU = simtime.NewPipe(env.Sched, k.handOff)
	if reg := env.Metrics; reg != nil {
		n := int(node)
		k.qDepth = reg.Gauge(n, "kernel", "queue_depth")
		k.ckBytes = reg.Histogram(n, "kernel", "checkpoint_bytes")
		reg.AddStats(n, "kernel", &k.stats)
	}
	k.ep = transport.New(node, env.Medium, env.Sched, env.Log, env.Transport)
	k.ep.Deliver = k.deliverFrame
	k.ep.HoldUndelivered = func(f *frame.Frame) bool {
		// A refusal is transient only while the destination process exists
		// here and is being recovered; an unknown process is dead as far as
		// this node can tell, and the stream must not wait for it.
		if k.crashed {
			return false
		}
		p := k.procs[f.To]
		return p != nil && (p.state == psCrashed || p.recovering)
	}
	return k
}

// Node returns the kernel's node id.
func (k *Kernel) Node() frame.NodeID { return k.node }

// KernelProc returns the id of this node's kernel process.
func (k *Kernel) KernelProc() frame.ProcID { return frame.ProcID{Node: k.node, Local: 0} }

// Stats returns the kernel counters.
func (k *Kernel) Stats() *KernelStats { return &k.stats }

// Endpoint exposes the transport endpoint (recorder and tests use it).
func (k *Kernel) Endpoint() *transport.Endpoint { return k.ep }

// Crashed reports whether the node is down.
func (k *Kernel) Crashed() bool { return k.crashed }

// BootEpoch returns the current boot count.
func (k *Kernel) BootEpoch() uint32 { return k.bootEpoch }

// --- CPU accounting --------------------------------------------------------

// charge accounts kernel and user CPU and pushes the node's free time out.
// While a kernel call is being handled, chargeTo attributes the time to the
// calling process's execution-since-checkpoint accumulator (feeding the
// §3.2.3 recovery-time bound).
func (k *Kernel) charge(kernel, user simtime.Time) {
	now := k.env.Sched.Now()
	if k.cpuFree < now {
		k.cpuFree = now
	}
	k.cpuFree += kernel + user
	k.stats.KernelCPU += kernel
	k.stats.UserCPU += user
	if k.chargeTo != nil {
		k.chargeTo.cpuSinceCk += kernel + user
	}
}

// --- Process lifecycle -----------------------------------------------------

// SpawnOptions control process creation.
type SpawnOptions struct {
	// FixedID recreates a process under its old identity (recovery and
	// migration); nil allocates a fresh id.
	FixedID *frame.ProcID
	// InitialLink, if non-nil, is installed as the new process's first link
	// (the rendezvous mechanism of §4.2.2.1).
	InitialLink *frame.Link
	// Checkpoint, with Restored counters below, restores a machine.
	Checkpoint []byte
	SendSeq    uint64
	ReadCount  uint64
	// Recovering starts the process in replay mode with output suppression
	// through SuppressThrough; RecoveryGen stamps the attempt so stale
	// replay traffic can be recognized (§3.5).
	Recovering      bool
	SuppressThrough uint64
	RecoveryGen     uint64
	// Quiet skips the recorder creation notice (used for recreation, where
	// the recorder already owns the process's state).
	Quiet bool
}

// Spawn creates a process on this node from spec. It is the kernel-process
// primitive beneath OpCreate/OpRecreate; tests and the cluster boot path
// call it directly.
func (k *Kernel) Spawn(spec ProcSpec, opt SpawnOptions) (frame.ProcID, error) {
	if k.crashed {
		return frame.NilProc, fmt.Errorf("demos: node %d is down", k.node)
	}
	var id frame.ProcID
	var ring msgQueue
	if opt.FixedID != nil {
		id = *opt.FixedID
		if old := k.procs[id]; old != nil {
			// "If the process already exists, it is destroyed" (§4.7). The
			// new incarnation inherits its queue's ring: a replay refills
			// it about as deep as the last one did.
			k.terminate(old, psDead)
			ring = old.queue.release()
		}
		if id.Node == k.node && id.Local >= k.nextLocal {
			k.nextLocal = id.Local + 1
		}
	} else {
		id = frame.ProcID{Node: k.node, Local: k.nextLocal}
		k.nextLocal++
	}

	p := &process{
		id:    id,
		spec:  spec,
		k:     k,
		links: newLinkTable(),
		queue: ring,
		state: psReady,
	}
	switch {
	case k.env.Registry.machines[spec.Name] != nil:
		p.machine = k.env.Registry.machines[spec.Name](spec.Args)
		p.prog = machineProgram(p.machine)
	case k.env.Registry.programs[spec.Name] != nil:
		p.prog = k.env.Registry.programs[spec.Name](spec.Args)
	default:
		return frame.NilProc, fmt.Errorf("demos: no image %q", spec.Name)
	}

	if opt.Checkpoint != nil {
		if p.machine == nil {
			return frame.NilProc, fmt.Errorf("demos: %q is not checkpointable", spec.Name)
		}
		img := new(checkpointImage)
		if err := frame.DecodeBody(opt.Checkpoint, img, codeImage); err != nil {
			return frame.NilProc, fmt.Errorf("demos: bad checkpoint for %s: %w", id, err)
		}
		if err := p.machine.Restore(img.Machine); err != nil {
			return frame.NilProc, fmt.Errorf("demos: restore %s: %w", id, err)
		}
		p.links = &img.Links
		p.marks = img.Marks
		p.restored = true
	}
	p.sendSeq = opt.SendSeq
	p.readCount = opt.ReadCount
	p.recovering = opt.Recovering
	p.suppressThrough = opt.SuppressThrough
	p.recoveryGen = opt.RecoveryGen
	if opt.InitialLink != nil {
		p.links.insert(*opt.InitialLink)
	}
	p.lastCkAt = k.env.Sched.Now()
	p.stateKB = 1

	k.procs[id] = p
	k.stats.ProcsCreated++
	k.charge(k.env.Costs.CreateCPU, 0)
	k.env.Log.Add(trace.KindControl, int(k.node), id.String(), "created %q recovering=%v", spec.Name, opt.Recovering)

	if !opt.Quiet && k.publishingFor(p) {
		k.notify(&Notice{Kind: NoticeCreated, Proc: id, Spec: spec})
	}
	k.wake(p)
	return id, nil
}

// publishingFor reports whether messages of p are published.
func (k *Kernel) publishingFor(p *process) bool {
	return p.spec.Recoverable && !k.env.RecorderProc.IsNil()
}

// terminate tears a process down into the given terminal state. The
// coroutine, if parked, is unwound synchronously.
func (k *Kernel) terminate(p *process, final runState) {
	p.kill()
	p.state = final
	if final == psDead {
		k.qDepth.Add(-int64(p.queue.len()))
		delete(k.procs, p.id)
	}
}

// Destroy removes a process (normal destruction, with recorder notice).
func (k *Kernel) Destroy(id frame.ProcID) {
	p := k.procs[id]
	if p == nil {
		return
	}
	pub := k.publishingFor(p)
	k.terminate(p, psDead)
	k.stats.ProcsDestroyed++
	k.charge(k.env.Costs.DestroyCPU, 0)
	k.env.Log.Add(trace.KindControl, int(k.node), id.String(), "destroyed")
	if pub {
		k.notify(&Notice{Kind: NoticeDestroyed, Proc: id})
	}
}

// CrashProcess halts one process on a detected fault (§3.3.2): the process
// stops and the recovery manager is told. Used by fault injection; panics in
// process code take the same path.
func (k *Kernel) CrashProcess(id frame.ProcID, reason string) {
	p := k.procs[id]
	if p == nil || p.state == psCrashed {
		return
	}
	k.terminate(p, psCrashed)
	k.stats.ProcsCrashed++
	k.env.Log.Add(trace.KindCrash, int(k.node), id.String(), "process crash: %s", reason)
	if k.publishingFor(p) {
		k.notify(&Notice{Kind: NoticeCrashed, Proc: id})
	}
}

// CrashNode is a processor crash: every process crashes, all kernel and
// transport state is lost, and the network interface goes silent (§1.1.2:
// the system "rounds up" faults to crashes of everything affected).
func (k *Kernel) CrashNode() {
	if k.crashed {
		return
	}
	k.env.Log.Add(trace.KindCrash, int(k.node), "node", "processor crash")
	for _, p := range k.procs { //det:ok order-free: each kill stops its own coroutine
		p.kill()
	}
	k.procs = make(map[frame.ProcID]*process)
	k.qDepth.Set(0)
	k.runq = nil
	k.dispatchPending = false
	k.ckStage = nil
	k.crashed = true
	k.ep.Reset()
	k.env.Medium.Faults().SetDown(k.node, true)
}

// Shutdown is teardown, not a simulated fault: it unwinds every program
// still parked on this kernel, releasing its coroutine (and running its
// deferred functions), and dispatches nothing afterwards. Counters, queues
// and the network are left as they are. Idempotent.
func (k *Kernel) Shutdown() {
	k.shut = true
	for _, p := range k.procs { //det:ok order-free: each kill stops its own coroutine
		p.kill()
	}
}

// Reboot brings a crashed node back with empty tables. Processes are not
// restored here — that is the recovery manager's job (§3.3.3).
func (k *Kernel) Reboot() {
	if !k.crashed {
		return
	}
	k.crashed = false
	k.bootEpoch++
	k.nextLocal = 1
	k.kpSendSeq = 0
	k.cpuFree = k.env.Sched.Now()
	k.routing = make(map[frame.ProcID]frame.NodeID)
	k.env.Medium.Faults().SetDown(k.node, false)
	k.env.Log.Add(trace.KindControl, int(k.node), "node", "reboot (epoch %d)", k.bootEpoch)
}

// ProcState reports a process's externally visible state (§3.3.4 queries).
func (k *Kernel) ProcState(id frame.ProcID) ProcState {
	p := k.procs[id]
	if p == nil {
		return StateUnknown
	}
	switch {
	case p.state == psCrashed:
		return StateCrashed
	case p.recovering:
		return StateRecovering
	case p.state == psDead:
		return StateUnknown
	default:
		return StateFunctioning
	}
}

// Procs lists the ids of processes the kernel knows, sorted by node, then
// local id.
func (k *Kernel) Procs() []frame.ProcID {
	return slices.SortedFunc(maps.Keys(k.procs), frame.ProcID.Compare)
}

// SetEmitFilter installs the sandbox output hook (see emitFilter).
func (k *Kernel) SetEmitFilter(f func(fr *frame.Frame) bool) { k.emitFilter = f }

// Inject places a message directly into a process's input queue, bypassing
// the network — the debugger's replay feed (§6.5) and a test aid.
func (k *Kernel) Inject(id frame.ProcID, m Msg, link *frame.Link) error {
	p := k.procs[id]
	if p == nil {
		return fmt.Errorf("demos: inject: no process %s", id)
	}
	k.pushToQueue(p, m, link)
	return nil
}

// MachineSnapshot returns a quiescent machine's serialized state without
// notifying the recorder (the debugger's state inspector).
func (k *Kernel) MachineSnapshot(id frame.ProcID) ([]byte, bool) {
	p := k.procs[id]
	if p == nil || p.machine == nil {
		return nil, false
	}
	if !(p.started && !p.finished && (p.state == psBlocked || (p.state == psReady && p.pendingReceiveRetry))) {
		return nil, false
	}
	b, err := p.machine.Snapshot()
	if err != nil {
		return nil, false
	}
	return b, true
}

// Quiescent reports whether a process is parked waiting for messages.
func (k *Kernel) Quiescent(id frame.ProcID) bool {
	p := k.procs[id]
	if p == nil {
		return false
	}
	return p.state == psBlocked || p.state == psDead
}

// SetRoute records that proc now lives on node (migration/recovery
// elsewhere); the kernel routes future sends there and re-targets frames
// already queued in the transport toward the old location, in send order.
func (k *Kernel) SetRoute(proc frame.ProcID, node frame.NodeID) {
	k.routes++
	if node == proc.Node {
		delete(k.routing, proc)
	} else {
		k.routing[proc] = node
	}
	moved := k.ep.Abort(func(f *frame.Frame) bool {
		return f.To == proc && f.Dst != node
	})
	for _, f := range moved {
		f.Dst = node
		k.ep.SendGuaranteed(f)
	}
}

// locate returns the node a process lives on.
func (k *Kernel) locate(proc frame.ProcID) frame.NodeID {
	if k.procs[proc] != nil {
		return k.node
	}
	if n, ok := k.routing[proc]; ok {
		return n
	}
	return proc.Node
}

// --- Scheduling -------------------------------------------------------------

// wake makes a process runnable and schedules a dispatch.
func (k *Kernel) wake(p *process) {
	if p.state != psReady || p.onRunq || p.stopped {
		return
	}
	p.onRunq = true
	k.runq = append(k.runq, p)
	k.maybeDispatch()
}

func (k *Kernel) maybeDispatch() {
	if k.crashed || k.shut || k.dispatchPending || len(k.runq) == 0 {
		return
	}
	k.dispatchPending = true
	at := k.env.Sched.Now()
	if k.cpuFree > at {
		at = k.cpuFree
	}
	if epoch := k.bootEpoch; k.dispatchFn == nil || k.dispatchFnEpoch != epoch {
		k.dispatchFnEpoch = epoch
		k.dispatchFn = func() {
			if k.bootEpoch != epoch || k.crashed {
				return
			}
			k.dispatch()
		}
	}
	k.env.Sched.At(at, k.dispatchFn)
}

// dispatch runs one scheduling quantum: the head of the run queue executes
// until its next kernel call (§6.6.2's round-robin, with kernel calls as the
// counted unit).
func (k *Kernel) dispatch() {
	k.dispatchPending = false
	if k.crashed || k.shut || len(k.runq) == 0 {
		return
	}
	p := k.runq[0]
	// Pop by shifting down rather than reslicing: runq[1:] bleeds capacity
	// off the front, so the next wake's append reallocates every quantum.
	n := copy(k.runq, k.runq[1:])
	k.runq[n] = nil
	k.runq = k.runq[:n]
	p.onRunq = false
	if p.state != psReady || p.stopped {
		k.maybeDispatch()
		return
	}

	// A process re-attempting a blocked receive completes it before running.
	// The completion is its own quantum: its cost is charged now — while
	// the process was blocked the CPU really was idle, which is what
	// separates wire time from kernel CPU in the Fig 5.7 measurement — and
	// the process resumes on a later dispatch, after the CPU frees.
	if len(p.want) != 0 || p.pendingReceiveRetry {
		resp, ok := k.completeReceive(p, p.want)
		if !ok {
			p.state = psBlocked
			k.maybeDispatch()
			return
		}
		p.pending = resp
		p.want = nil
		p.pendingReceiveRetry = false
		k.chargeTo = p
		k.charge(k.env.Costs.ReceiveCPU, k.env.Costs.UserPerCall)
		k.chargeTo = nil
		k.wake(p)
		k.maybeDispatch()
		return
	}

	p.state = psRunning
	k.handleYield(p, p.step())
	k.maybeDispatch()
}

func (k *Kernel) handleYield(p *process, y yieldMsg) {
	switch y.kind {
	case yExit:
		p.state = psDead
		k.qDepth.Add(-int64(p.queue.len()))
		delete(k.procs, p.id)
		k.stats.ProcsDestroyed++
		k.charge(k.env.Costs.DestroyCPU, 0)
		k.env.Log.Add(trace.KindControl, int(k.node), p.id.String(), "exited")
		if k.publishingFor(p) {
			k.notify(&Notice{Kind: NoticeDestroyed, Proc: p.id})
		}
	case yFault:
		p.state = psCrashed
		k.stats.ProcsCrashed++
		k.env.Log.Add(trace.KindCrash, int(k.node), p.id.String(), "%v", y.err)
		if k.publishingFor(p) {
			k.notify(&Notice{Kind: NoticeCrashed, Proc: p.id})
		}
	case yCall:
		k.stats.KernelCalls++
		k.handleCall(p, y.req)
	}
}

// handleCall performs one kernel call and prepares the process's response.
func (k *Kernel) handleCall(p *process, req callReq) {
	costs := &k.env.Costs
	k.chargeTo = p
	defer func() { k.chargeTo = nil }()
	ready := true
	switch req.op {
	case opCreateLink:
		lid := p.links.insert(frame.Link{To: p.id, Channel: req.channel, Code: req.code, DeliverToKernel: req.toKernel})
		p.pending = callResp{lid: lid}
		k.charge(costs.LinkCPU, costs.UserPerCall)

	case opDestroyLink:
		_, ok := p.links.remove(req.link)
		var err error
		if !ok {
			err = ErrBadLink
		}
		p.pending = callResp{err: err}
		k.charge(costs.LinkCPU, costs.UserPerCall)

	case opSend:
		err := k.doSend(p, req)
		p.pending = callResp{err: err}

	case opReceive:
		resp, ok := k.completeReceive(p, req.channels)
		if ok {
			p.pending = resp
			k.charge(costs.ReceiveCPU, costs.UserPerCall)
		} else {
			// Block without charging; the cost lands when the receive
			// completes (see dispatch).
			p.state = psBlocked
			p.want = req.channels
			p.pendingReceiveRetry = true
			ready = false
		}

	case opTryReceive:
		resp, ok := k.completeReceive(p, req.channels)
		resp.ok = ok
		p.pending = resp
		k.charge(costs.ReceiveCPU, costs.UserPerCall)

	case opCompute:
		p.pending = callResp{}
		k.charge(0, req.dur)

	case opRealTime:
		p.pending = callResp{t: k.env.Sched.Now()}
		k.charge(costs.LinkCPU, costs.UserPerCall)

	case opRunTime:
		p.pending = callResp{t: k.stats.KernelCPU}
		k.charge(costs.LinkCPU, costs.UserPerCall)

	case opServiceLink:
		if svc, ok := k.env.Services[req.name]; ok {
			lid := p.links.insert(frame.Link{To: svc, Channel: ChanRequest})
			p.pending = callResp{lid: lid}
		} else {
			p.pending = callResp{lid: NoLink, err: ErrNoService}
		}
		k.charge(costs.LinkCPU, costs.UserPerCall)

	case opKernelLink:
		node := frame.NodeID(int32(req.code))
		lid := p.links.insert(frame.Link{To: frame.ProcID{Node: node, Local: 0}, Channel: ChanRequest})
		p.pending = callResp{lid: lid}
		k.charge(costs.LinkCPU, costs.UserPerCall)

	default:
		p.pending = callResp{err: fmt.Errorf("demos: bad kernel call %d", req.op)}
	}
	if ready {
		p.state = psReady
		k.wake(p)
	}
}

// completeReceive pops a matching message, installing any passed link, and
// emits the §4.4.2 read-order advisory when channels skipped the head.
func (k *Kernel) completeReceive(p *process, want []uint16) (callResp, bool) {
	item, head, outOfOrder, ok := p.queue.pop(want)
	if !ok {
		return callResp{}, false
	}
	k.qDepth.Add(-1)
	msg := item.msg
	msg.Link = NoLink
	if item.link != nil {
		msg.Link = p.links.insert(*item.link)
	}
	p.readCount++
	if outOfOrder && !p.recovering && k.publishingFor(p) {
		k.stats.Advisories++
		k.notify(&Notice{Kind: NoticeReadOrder, Proc: p.id, ReadID: msg.ID, HeadID: head})
	}
	return callResp{msg: msg}, true
}

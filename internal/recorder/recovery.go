package recorder

import (
	"sort"

	"publishing/internal/demos"
	"publishing/internal/frame"
	"publishing/internal/simtime"
	"publishing/internal/trace"
)

// watchState is one watchdog (§4.6): "its kernel process creates, on the
// recording node, a watch process for each processor in the system".
type watchState struct {
	node    frame.NodeID
	misses  int
	gotPong bool
	down    bool
	// responsible marks that this recorder owns the node's recovery
	// (always true with a single recorder; decided by arbitration with
	// peers, §6.3).
	responsible bool
}

// Start arms the watchdogs and begins periodic stable-store flushing.
func (r *Recorder) Start() {
	for _, n := range r.cfg.Nodes {
		if _, ok := r.watch[n]; !ok {
			r.watch[n] = &watchState{node: n}
		}
	}
	r.initPeerWatch()
	r.armWatchTick()
	r.armFlushTick()
}

func (r *Recorder) armWatchTick() {
	epoch := r.epoch
	r.sched.After(r.cfg.WatchInterval, func() {
		if r.epoch != epoch || r.crashed {
			return
		}
		r.watchTick()
		r.armWatchTick()
	})
}

func (r *Recorder) armFlushTick() {
	epoch := r.epoch
	r.sched.After(simtime.Second, func() {
		if r.epoch != epoch || r.crashed {
			return
		}
		_ = r.store.Flush()
		r.sweepPending(r.sched.Now() - simtime.Minute)
		r.armFlushTick()
	})
}

// watchTick evaluates last interval's pongs and sends the next pings.
// Iteration follows cfg.Nodes (sorted at construction), not the watch map:
// the pings serialize onto the shared medium, so map order here would make
// same-seed runs diverge (caught by the online monitor's event-stream
// fingerprints — deliveries shifted by whole frame slots from t=500 ms on).
func (r *Recorder) watchTick() {
	for _, n := range r.cfg.Nodes {
		w := r.watch[n]
		if w == nil {
			continue
		}
		if w.gotPong {
			w.misses = 0
			if w.down {
				// The node answered again after a crash: it rebooted. The
				// responsible recorder recovers its processes on it (§4.6
				// "recover on the same processor").
				w.down = false
				if w.responsible {
					w.responsible = false
					r.log.Add(trace.KindDetect, int(r.cfg.Node), nodeSubject(w.node), "node is back; recovering its processes")
					r.recoverNode(w.node, w.node)
				}
			}
		} else {
			w.misses++
			if w.misses >= r.cfg.MissThreshold && !w.down {
				r.processorCrash(w)
			}
		}
		w.gotPong = false
		// "Are you alive?" — unguaranteed, like all dated traffic (§4.3.3).
		r.ep.SendUnguaranteed(&frame.Frame{
			Dst:  w.node,
			From: r.cfg.Proc,
			To:   frame.ProcID{Node: w.node, Local: 0},
			Body: demos.PingBody,
		})
	}
	r.tickPeerWatch()
}

func (r *Recorder) handlePong(f *frame.Frame) {
	if len(f.Body) == 0 {
		return
	}
	if len(f.Body) == 1 && f.Body[0] == demos.PingBody[0] {
		// Sharded recorders watch each other; answer the peer's ping the way
		// kernels answer ours. Classic recorders are never pinged.
		if r.cfg.Shards != nil {
			r.ep.SendUnguaranteed(&frame.Frame{Dst: f.Src, From: r.cfg.Proc, To: f.From, Body: demos.PongBody})
		}
		return
	}
	if f.Body[0] != demos.PongBody[0] {
		return
	}
	if w, ok := r.watch[f.Src]; ok {
		w.gotPong = true
	}
	for _, w := range r.peerWatch {
		if w.node == f.Src {
			w.gotPong = true
		}
	}
}

func nodeSubject(n frame.NodeID) string { return frame.ProcID{Node: n, Local: 0}.String() }

// processorCrash reacts to a watchdog timeout (§3.3.2, §4.6): with peers,
// arbitration decides who acts; alone, we act.
func (r *Recorder) processorCrash(w *watchState) {
	w.down = true
	r.stats.ProcessorCrashes++
	r.log.Add(trace.KindDetect, int(r.cfg.Node), nodeSubject(w.node), "processor crash detected by watchdog")
	if r.cfg.Shards != nil {
		// Sharded mode: duty is per shard, not per node, so there is nothing
		// to arbitrate — every recorder acts and startRecovery's ActsFor
		// guard filters the node's processes to this recorder's slots.
		w.responsible = true
		r.actOnCrash(w)
		return
	}
	r.arbitrate(w)
}

// actOnCrash applies the §4.6 operator decision for a node we are
// responsible for.
func (r *Recorder) actOnCrash(w *watchState) {
	w.responsible = true
	dec := Decision{Action: ActionRecoverSame}
	if r.cfg.OnProcessorCrash != nil {
		dec = r.cfg.OnProcessorCrash(w.node)
	}
	switch dec.Action {
	case ActionNoRecover:
		w.responsible = false
		r.log.Add(trace.KindDetect, int(r.cfg.Node), nodeSubject(w.node), "operator chose no recovery")
	case ActionRecoverSpare:
		r.log.Add(trace.KindDetect, int(r.cfg.Node), nodeSubject(w.node), "recovering on spare node %d", dec.Spare)
		r.recoverNode(w.node, dec.Spare)
	default: // ActionRecoverSame
		if r.cfg.RebootFn != nil {
			r.cfg.RebootFn(w.node)
		}
		// Recovery starts when the watchdog sees the node answer again.
	}
}

// recoverNode starts recovery of every process located on failed, placing
// them on target (== failed for same-processor recovery). The entries are
// sorted by process id before launch: map iteration order is randomized,
// and the launch order fixes how the recoveries' batch streams interleave
// on the shared transport, so determinism requires a canonical order. Each
// process gets its own windowed batch sender; their refills alternate as
// acks return, a round-robin interleave rather than one process's full
// stream before the next.
func (r *Recorder) recoverNode(failed, target frame.NodeID) {
	var procs []*procEntry
	for _, e := range r.db {
		if e.Node == failed && !e.Dead {
			procs = append(procs, e)
		}
	}
	sort.Slice(procs, func(i, j int) bool { return lessProc(procs[i].Proc, procs[j].Proc) })
	for _, e := range procs {
		r.startRecovery(e, target)
	}
}

// recoveryProc is one recovery process (§3.3.3, §4.7). It is recorder-
// internal event logic rather than a scheduled DEMOS process, but performs
// exactly the thesis's steps: recreate, replay in read order, declare done.
type recoveryProc struct {
	proc   frame.ProcID
	target frame.NodeID
	gen    uint64 // generation; a recursive crash abandons stale generations
}

// startRecovery launches (or relaunches, §3.5) recovery of one process.
func (r *Recorder) startRecovery(e *procEntry, target frame.NodeID) {
	if e.Dead {
		return
	}
	if r.cfg.Shards != nil && !r.ActsFor(r.cfg.Shards.ShardOf(e.Proc)) {
		return // another replica holds this shard's recovery duty
	}
	rp := r.recovering[e.Proc]
	if rp == nil {
		rp = &recoveryProc{proc: e.Proc}
		if r.cfg.Shards != nil {
			// Salt the generation by rank so two replicas recovering the same
			// process during a handoff overlap can never collide on a
			// generation number: the kernel's exact-generation batch guard
			// then drops the superseded replica's replay cleanly.
			rp.gen = uint64(r.cfg.Rank+1) << 32
		}
		r.recovering[e.Proc] = rp
	}
	// A relaunch supersedes any in-flight replay of the previous attempt:
	// withdraw its unsent batches and orphan its reply waiters before the
	// generation bump makes them stale.
	r.cancelReplay(e.Proc)
	rp.gen++
	rp.target = target
	gen := rp.gen
	e.Recovering = true
	if e.Node != target {
		e.Node = target
		r.persistProcMeta(e)
		r.broadcastRoute(e.Proc, target, r.routeRepeats())
	}
	r.stats.RecoveriesStarted++
	// The log's length is the replay count: reconstruct emits every arrival
	// exactly once (advisories only reorder), so there is no need to build
	// the whole ordered slice just to log its length.
	r.log.Add(trace.KindRecoveryStart, int(r.cfg.Node), e.Proc.String(),
		"recovery started (target n%d, %d messages to replay, checkpoint=%v)",
		target, e.Arrivals.len(), e.Checkpoint != nil)

	epoch := r.epoch
	r.sched.After(replayGrace, func() {
		if r.epoch != epoch || r.crashed || !r.current(rp, gen) {
			return
		}
		r.sendRecreate(e, rp, gen)
	})
	r.armRecoveryRetry(e, rp, gen)
}

// current reports whether gen is still the live attempt for rp.
func (r *Recorder) current(rp *recoveryProc, gen uint64) bool {
	live, ok := r.recovering[rp.proc]
	return ok && live == rp && rp.gen == gen
}

// armRecoveryRetry restarts a recovery from scratch if it has not completed
// after recoveryRetry — covering lost nodes and recursive crashes (§3.5).
func (r *Recorder) armRecoveryRetry(e *procEntry, rp *recoveryProc, gen uint64) {
	epoch := r.epoch
	r.sched.After(recoveryRetry, func() {
		if r.epoch != epoch || r.crashed || !r.current(rp, gen) {
			return
		}
		if e.Recovering {
			r.log.Add(trace.KindRecoveryStart, int(r.cfg.Node), e.Proc.String(), "recovery stalled; reinitiating (§3.5)")
			r.startRecovery(e, rp.target)
		}
	})
}

func (r *Recorder) sendRecreate(e *procEntry, rp *recoveryProc, gen uint64) {
	ctl := &demos.CtlMsg{
		Op:           demos.OpRecreate,
		Spec:         e.Spec,
		Proc:         e.Proc,
		FirstSendSeq: 1,
		LastSentSeq:  e.LastSent,
		RecoveryGen:  gen,
	}
	if e.Checkpoint != nil {
		ctl.FirstSendSeq = e.CkSendSeq + 1
		ctl.ReadCount = e.CkReadCount
		if budget := r.replayBudget(); len(e.Checkpoint) > budget {
			// Catch-up transfer: a checkpoint too big for one frame ships as
			// MTU-sized chunks on the replay channel ahead of the recreate.
			// The transport's per-node-pair FIFO guarantees the kernel has
			// staged every chunk before it sees the recreate that assembles
			// them, so no handshake is needed.
			total := (len(e.Checkpoint) + budget - 1) / budget
			for i := 0; i < total; i++ {
				lo := i * budget
				hi := lo + budget
				if hi > len(e.Checkpoint) {
					hi = len(e.Checkpoint)
				}
				body := demos.EncodeCkChunk(nil, e.Proc, gen, uint64(i), uint32(total), e.Checkpoint[lo:hi])
				r.sendReplay(rp.target, body, nil)
				r.stats.CkChunksSent++
			}
			ctl.CkChunks = uint32(total)
		} else {
			ctl.Checkpoint = e.Checkpoint
		}
	}
	r.sendCtl(rp.target, frame.ProcID{Node: rp.target, Local: 0}, false, ctl, chanCtlReply, func(f *frame.Frame) {
		if r.crashed || !r.current(rp, gen) {
			return
		}
		rep, err := demos.DecodeReply(f.Body)
		if err != nil {
			// An undecodable reply says nothing about the kernel's decision;
			// rep is meaningless here and must not be consulted.
			r.log.Add(trace.KindRecoveryStart, int(r.cfg.Node), e.Proc.String(),
				"recreate reply undecodable: %v", err)
			return // the retry timer will reinitiate
		}
		if !rep.OK {
			r.log.Add(trace.KindRecoveryStart, int(r.cfg.Node), e.Proc.String(),
				"recreate refused by kernel: %s", rep.Err)
			return // the retry timer will reinitiate
		}
		r.startReplay(e, rp, gen)
	})
}

// broadcastRoute tells every kernel where a process now lives (migration /
// recovery on a spare). It is best-effort routing information, so it goes
// out unguaranteed (§4.3.3) and is repeated a few times; kernels that miss
// it still forward through the home node.
func (r *Recorder) broadcastRoute(p frame.ProcID, node frame.NodeID, times int) {
	if times <= 0 {
		return
	}
	body := demos.EncodeRouteUpdate(p, node)
	for i := 0; i < times; i++ {
		delay := simtime.Time(i) * 50 * simtime.Millisecond
		epoch := r.epoch
		r.sched.After(delay, func() {
			if r.epoch != epoch || r.crashed {
				return
			}
			r.ep.SendUnguaranteed(&frame.Frame{Dst: frame.Broadcast, From: r.cfg.Proc, Body: body})
		})
	}
}

// --- Recorder crash and restart (§3.3.4, §3.4) -----------------------------

// Crash takes the recorder down: all volatile state — database, pending
// messages, watchdogs, in-flight recoveries — is lost; stable storage
// survives (its write buffer is battery-backed solid-state memory per
// §3.3.4). While the recorder is down, publish-before-use suspends all
// guaranteed traffic, exactly the paper's availability trade-off.
func (r *Recorder) Crash() {
	if r.crashed {
		return
	}
	r.crashed = true
	r.epoch++
	r.db = make(map[frame.ProcID]*procEntry)
	r.pending = make(map[frame.ProcID]*pendQueue)
	r.pendQueues = nil
	r.preArrivals = make(map[frame.ProcID][]pendingMsg)
	r.preLastSent = make(map[frame.ProcID]uint64)
	r.ackq = r.ackq[:0]
	r.ackTimerSet = false
	r.noticeSeen.Reset()
	r.catchingUp = false
	r.awaitCk = nil
	r.recovering = make(map[frame.ProcID]*recoveryProc)
	r.replaying = make(map[frame.ProcID]*batchSender)
	r.replayOcc.Set(0)
	r.waiters = make(map[uint32]func(*frame.Frame))
	for _, w := range r.watch {
		w.gotPong, w.misses = false, 0
	}
	if r.cfg.Shards != nil {
		r.actingSlots = make(map[int]bool)
		r.handoffPending = make(map[int]bool)
		r.handoffs = make(map[int]*handoffSession)
		r.handoffRx = make(map[uint32]*handoffAssembly)
		r.handoffCrashAfter = 0
		for _, w := range r.peerWatch {
			w.gotPong, w.misses, w.down = false, 0, false
		}
	}
	r.ep.Reset()
	r.med.Faults().SetDown(r.cfg.Node, true)
	r.log.Add(trace.KindCrash, int(r.cfg.Node), "recorder", "recorder crash")
}

// Restart brings the recorder back: bump and persist the restart number
// (§3.4), rebuild the database from stable storage, re-arm watchdogs, and
// run the §3.3.4 state-query protocol against every node.
func (r *Recorder) Restart() error {
	if !r.crashed {
		return nil
	}
	// A database that cannot be rebuilt leaves the recorder crashed: coming
	// up on part of it would serve recoveries from shorter streams.
	if err := r.rebuild(); err != nil {
		return err
	}
	r.crashed = false
	r.epoch++
	r.med.Faults().SetDown(r.cfg.Node, false)
	r.restartNumber++
	r.persistRestartNumber()
	r.sendSeq = 0
	r.Start()
	r.beginCatchUp()
	r.beginHandoff()
	r.log.Add(trace.KindRecorder, int(r.cfg.Node), "recorder", "restart #%d; querying %d nodes", r.restartNumber, len(r.cfg.Nodes))
	for _, n := range r.cfg.Nodes {
		n := n
		r.sendCtl(n, frame.ProcID{Node: n, Local: 0}, false,
			&demos.CtlMsg{Op: demos.OpQueryProcs, RestartNumber: r.restartNumber},
			chanQueryResp, func(f *frame.Frame) { r.handleQueryResponse(f) })
	}
	return nil
}

// handleQueryResponse applies the §3.3.4 decision table to one node's
// report. Responses stamped with a stale restart number are ignored (§3.4).
func (r *Recorder) handleQueryResponse(f *frame.Frame) {
	q, err := demos.DecodeQuery(f.Body)
	if err != nil {
		return
	}
	if q.RestartNumber != r.restartNumber {
		r.log.Add(trace.KindRecorder, int(r.cfg.Node), nodeSubject(q.Node),
			"stale restart response #%d ignored (§3.4)", q.RestartNumber)
		return
	}
	reported := make(map[frame.ProcID]demos.ProcState)
	for _, rep := range q.Procs {
		reported[rep.Proc] = rep.State
	}
	for _, e := range r.db {
		if e.Dead || e.Node != q.Node {
			continue
		}
		st, known := reported[e.Proc]
		if !known {
			st = demos.StateUnknown
		}
		switch st {
		case demos.StateFunctioning:
			// Nothing happened; no action (§3.3.4).
			e.Recovering = false
		case demos.StateCrashed, demos.StateRecovering, demos.StateUnknown:
			// Crashed before/while we were down, a recovery we had started
			// and lost, or a process its node lost: (re)start recovery.
			r.startRecovery(e, e.Node)
		}
	}
}

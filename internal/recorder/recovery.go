package recorder

import (
	"publishing/internal/demos"
	"publishing/internal/frame"
	"publishing/internal/simtime"
	"publishing/internal/trace"
)

// watchState is one watchdog (§4.6): "its kernel process creates, on the
// recording node, a watch process for each processor in the system". The
// same detector watches every sibling recorder (§6.3), so one table keyed
// by station holds both; rank tells them apart.
type watchState struct {
	node frame.NodeID
	// to is whom the ping addresses: the node's kernel, or the sibling
	// recorder's process.
	to frame.ProcID
	// rank is the sibling recorder's rank, -1 for a processing node.
	rank    int
	misses  int
	gotPong bool
	down    bool
	// responsible marks that this recorder recovers the node's processes
	// when it answers again (the operator chose same-processor recovery).
	// startRecovery narrows that to the slots this recorder acts for.
	responsible bool
	// silent marks a sibling recorder the watchdog found silent: this
	// recorder may act for the slots it replicates behind that sibling until
	// the sibling reclaims them with a handoff Commit (ActsFor).
	silent bool
}

// newWatch builds the watchdog table: one entry per processing node and one
// per sibling recorder, keyed by station.
func (r *Recorder) newWatch() map[frame.NodeID]*watchState {
	watch := make(map[frame.NodeID]*watchState, len(r.cfg.Nodes)+len(r.cfg.Recorders))
	for _, n := range r.cfg.Nodes {
		watch[n] = &watchState{node: n, to: frame.ProcID{Node: n, Local: 0}, rank: -1}
	}
	for rank, p := range r.cfg.Recorders {
		if rank != r.cfg.Rank {
			watch[p.Node] = &watchState{node: p.Node, to: p, rank: rank}
		}
	}
	return watch
}

// peerWatch returns the watchdog on the sibling recorder at rank, or nil
// for our own rank and for a rank out of range.
func (r *Recorder) peerWatch(rank int) *watchState {
	p, ok := r.cfg.peerByRank(rank)
	if !ok {
		return nil
	}
	return r.watch[p.Node]
}

// Start arms the watchdog tick over the table New (or Crash) built, and
// begins periodic stable-store flushing.
func (r *Recorder) Start() {
	r.armTick(r.cfg.WatchInterval, (*Recorder).watchTick)
	r.armTick(simtime.Second, (*Recorder).flushTick)
}

// tick is one of the recorder's periodic timers, made once per Start. It
// carries the epoch Start ran in and re-arms itself, so a tick allocates
// nothing: the scheduler holds the same pointer each period. A tick armed
// before a Crash fires once more, sees the epoch moved and stops.
type tick struct {
	r     *Recorder
	epoch uint64
	every simtime.Time
	run   func(*Recorder)
}

// armTick starts a timer that calls run every period until the recorder
// crashes.
func (r *Recorder) armTick(every simtime.Time, run func(*Recorder)) {
	t := &tick{r: r, epoch: r.epoch, every: every, run: run}
	r.sched.AfterHandler(every, t)
}

// Fire runs one period and arms the next.
func (t *tick) Fire() {
	r := t.r
	if r.epoch != t.epoch || r.crashed {
		return
	}
	t.run(r)
	r.sched.AfterHandler(t.every, t)
}

// flushTick seals the store's write buffer and sweeps the tap's stale
// pending entries, once a second.
func (r *Recorder) flushTick() {
	_ = r.store.Flush()
	r.core.Sweep(r.sched.Now() - simtime.Minute)
}

// watchTick evaluates last interval's pongs and sends the next pings: the
// processing nodes in cfg.Nodes order (sorted at construction), then the
// sibling recorders by rank, never in watch-map order. The pings serialize
// onto the shared medium, so map order here would make same-seed runs
// diverge (caught by the online monitor's event-stream fingerprints —
// deliveries shifted by whole frame slots from t=500 ms on).
func (r *Recorder) watchTick() {
	for _, n := range r.cfg.Nodes {
		r.watchOne(r.watch[n])
	}
	for rank := range r.cfg.Recorders {
		if w := r.peerWatch(rank); w != nil {
			r.watchOne(w)
		}
	}
}

// watchOne runs one watchdog for one interval. A silent node is a processor
// crash; a silent sibling recorder is follower promotion's cue.
func (r *Recorder) watchOne(w *watchState) {
	if w.gotPong {
		w.misses = 0
		if w.down {
			w.down = false
			switch {
			case w.rank >= 0:
				// A restarted sibling reclaims its slots through the handoff
				// Commit, not the mere reappearance of pongs.
				r.log.Add(trace.KindDetect, int(r.node), "recorder", "peer recorder rec%d answers again", w.rank)
			case w.responsible:
				// The node answered again after a crash: it rebooted. The
				// responsible recorder recovers its processes on it (§4.6
				// "recover on the same processor").
				w.responsible = false
				r.log.Add(trace.KindDetect, int(r.node), nodeSubject(w.node), "node is back; recovering its processes")
				r.recoverNode(w.node, w.node)
			}
		}
	} else {
		w.misses++
		if w.misses >= r.cfg.MissThreshold && !w.down {
			w.down = true
			if w.rank >= 0 {
				r.onPeerDown(w.rank)
			} else {
				r.processorCrash(w)
			}
		}
	}
	w.gotPong = false
	// "Are you alive?" — unguaranteed, like all dated traffic (§4.3.3).
	r.ep.SendUnguaranteed(&frame.Frame{Dst: w.node, From: r.proc, To: w.to, Body: demos.PingBody})
}

func (r *Recorder) handlePong(f *frame.Frame) {
	if len(f.Body) == 0 {
		return
	}
	if len(f.Body) == 1 && f.Body[0] == demos.PingBody[0] {
		// Recorders watch each other; answer the peer's ping the way kernels
		// answer ours.
		r.ep.SendUnguaranteed(&frame.Frame{Dst: f.Src, From: r.proc, To: f.From, Body: demos.PongBody})
		return
	}
	if f.Body[0] != demos.PongBody[0] {
		return
	}
	if w, ok := r.watch[f.Src]; ok {
		w.gotPong = true
	}
}

func nodeSubject(n frame.NodeID) string { return frame.ProcID{Node: n, Local: 0}.String() }

// processorCrash reacts to a watchdog timeout (§3.3.2, §4.6). Duty is per
// shard slot, not per node, so every recorder acts, and startRecovery's
// ActsFor guard filters the node's processes to the slots it acts for.
func (r *Recorder) processorCrash(w *watchState) {
	r.stats.ProcessorCrashes++
	r.log.Add(trace.KindDetect, int(r.node), nodeSubject(w.node), "processor crash detected by watchdog")
	r.actOnCrash(w)
}

// actOnCrash applies the §4.6 operator decision for a crashed node.
func (r *Recorder) actOnCrash(w *watchState) {
	w.responsible = true
	dec := Decision{Action: ActionRecoverSame}
	if r.cfg.OnProcessorCrash != nil {
		dec = r.cfg.OnProcessorCrash(w.node)
	}
	switch dec.Action {
	case ActionNoRecover:
		w.responsible = false
		r.log.Add(trace.KindDetect, int(r.node), nodeSubject(w.node), "operator chose no recovery")
	case ActionRecoverSpare:
		r.log.Add(trace.KindDetect, int(r.node), nodeSubject(w.node), "recovering on spare node %d", dec.Spare)
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
// launched in sortedProcs order: the launch order fixes how the recoveries'
// batch streams interleave on the shared transport, so determinism requires
// a canonical order. Each process gets its own windowed batch sender; their
// refills alternate as acks return, a round-robin interleave rather than one
// process's full stream before the next.
func (r *Recorder) recoverNode(failed, target frame.NodeID) {
	for _, p := range r.sortedProcs() {
		if e := r.db[p]; e.Node == failed && !e.Dead {
			r.startRecovery(e, target)
		}
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
	if !r.ActsFor(r.cfg.Shards.ShardOf(e.Proc)) {
		return // another replica holds this shard's recovery duty
	}
	rp := r.recovering[e.Proc]
	if rp == nil {
		rp = &recoveryProc{proc: e.Proc}
		if len(r.cfg.Recorders) > 1 {
			// Salt the generation by rank so two replicas recovering the same
			// process during a handoff overlap can never collide on a
			// generation number: the kernel's exact-generation batch guard
			// then drops the superseded replica's replay cleanly. A lone
			// recorder keeps small generations, and short recreate requests.
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
		r.broadcastRoute(e.Proc, target, r.cfg.RouteRepeats)
	}
	r.stats.RecoveriesStarted++
	// The log's length is the replay count: reconstruct emits every arrival
	// exactly once (advisories only reorder), so there is no need to build
	// the whole ordered slice just to log its length.
	r.log.Add(trace.KindRecoveryStart, int(r.node), e.Proc.String(),
		"recovery started (target n%d, %d messages to replay, checkpoint=%v)",
		target, e.Arrivals.Len(), e.Checkpoint != nil)

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
			r.log.Add(trace.KindRecoveryStart, int(r.node), e.Proc.String(), "recovery stalled; reinitiating (§3.5)")
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
		if budget := r.cfg.ReplayBatchBytes; len(e.Checkpoint) > budget {
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
				body := frame.EncodeCkChunk(nil, e.Proc, gen, uint64(i), uint32(total), e.Checkpoint[lo:hi])
				r.sendReplay(rp.target, body, nil, nil)
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
		var rep demos.CtlReply
		if err := demos.DecodeReply(f.Body, &rep); err != nil {
			// An undecodable reply says nothing about the kernel's decision;
			// rep is meaningless here and must not be consulted.
			r.log.Add(trace.KindRecoveryStart, int(r.node), e.Proc.String(),
				"recreate reply undecodable: %v", err)
			return // the retry timer will reinitiate
		}
		if !rep.OK {
			r.log.Add(trace.KindRecoveryStart, int(r.node), e.Proc.String(),
				"recreate refused by kernel: %s", rep.Err)
			return // the retry timer will reinitiate
		}
		r.startReplay(e, rp, gen)
	})
}

// broadcastRoute tells every kernel where a process now lives (migration /
// recovery on a spare). It is best-effort routing information, so it goes
// out unguaranteed (§4.3.3) and is repeated a few times; a kernel that
// misses it learns the route from the home node, which refuses its frames
// and tells it where the process went.
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
			r.ep.SendUnguaranteed(&frame.Frame{Dst: frame.Broadcast, From: r.proc, Body: body})
		})
	}
}

// --- Recorder crash and restart (§3.3.4, §3.4) -----------------------------

// Crash takes the recorder down: all volatile state — database, pending
// messages, the whole watchdog table (which nodes it found down and must
// recover included), in-flight recoveries — is lost; the restart query
// alone decides what a restarted recorder recovers (§3.3.4). Stable storage
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
	r.core.Reset()
	r.ackq = r.ackq[:0]
	r.ackTimerSet = false
	r.noticeSeen.Reset()
	r.catchingUp = false
	r.awaitCk = nil
	r.recovering = make(map[frame.ProcID]*recoveryProc)
	r.replaying = make(map[frame.ProcID]*batchSender)
	r.replayOcc.Set(0)
	r.waiters = make(map[uint32]func(*frame.Frame))
	r.watch = r.newWatch()
	r.resetReplication()
	r.ep.Reset()
	r.med.Faults().SetDown(r.node, true)
	r.log.Add(trace.KindCrash, int(r.node), "recorder", "recorder crash")
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
	r.med.Faults().SetDown(r.node, false)
	r.restartNumber++
	r.persistRestartNumber()
	r.sendSeq = 0
	r.Start()
	r.beginCatchUp()
	r.beginHandoff()
	r.log.Add(trace.KindRecorder, int(r.node), "recorder", "restart #%d; querying %d nodes", r.restartNumber, len(r.cfg.Nodes))
	r.sweepDuties()
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
		r.log.Add(trace.KindRecorder, int(r.node), nodeSubject(q.Node),
			"stale restart response #%d ignored (§3.4)", q.RestartNumber)
		return
	}
	reported := make(map[frame.ProcID]demos.ProcState)
	for _, rep := range q.Procs {
		reported[rep.Proc] = rep.State
	}
	for _, p := range r.sortedProcs() {
		e := r.db[p]
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

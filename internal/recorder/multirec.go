package recorder

import (
	"bytes"
	"encoding/gob"
	"sort"

	"publishing/internal/demos"
	"publishing/internal/frame"
	"publishing/internal/simtime"
	"publishing/internal/trace"
)

// This file implements §6.3, "Multiple recorders for reliability": with n
// recorders all recording all messages, n−1 can fail before the network
// becomes unavailable. Three problems are solved exactly as the thesis
// prescribes:
//
//  1. Coordinating recovery: each node has a priority vector over the
//     recorders; on detecting a node crash, a recorder queries every
//     higher-priority recorder and defers if any is "willing and able to
//     perform recovery"; silence for the claim interval means the duty
//     falls through. A deferring recorder "continues to monitor" and
//     requeries periodically in case the higher recorder dies mid-recovery.
//  2. Ensuring all recorders record each message: the media require a
//     positive verdict from every *reachable* tap before a message (or
//     ack) is usable — the per-recorder acknowledge slots of §6.3.
//  3. Recovering failed recorders: a restarted recorder rebuilds from its
//     own store, then forces every process to checkpoint; once they have,
//     its stale stream suffixes are irrelevant and it resumes accepting
//     recovery responsibilities.

// peerKind discriminates recorder-to-recorder messages.
type peerKind uint8

const (
	peerQuery peerKind = iota + 1 // "willing to recover node N?"
	peerWilling

	// Shard-handoff protocol (sharded mode; see shard.go). A restarted
	// recorder Requests the stream suffixes it missed from the surviving
	// replica of each shared slot; the partner streams per-process blobs as
	// Data chunks and finishes with Done; the requester Commits, at which
	// point the partner stands down from the requester's leader slots.
	peerHandoffReq
	peerHandoffData
	peerHandoffDone
	peerHandoffCommit
)

// procCov is the requester's per-stream coverage statement: how far its
// local basis reaches (BaseReads + recorded arrivals) and its send-side
// suppression watermark. The serving side ships only streams it knows more
// about.
type procCov struct {
	Proc     frame.ProcID
	Dead     bool
	Cov      uint64
	LastSent uint64
}

// peerMsg is the body of recorder-to-recorder traffic (channel chanPeer).
type peerMsg struct {
	Kind peerKind
	Node frame.NodeID
	Code uint32

	// Shard-handoff fields.
	Rank  int          // sender's recorder rank
	Cov   []procCov    // Req: requester's coverage table
	Proc  frame.ProcID // Data: the stream this chunk belongs to
	Chunk uint32       // Data: chunk index within the stream's blob
	Total uint32       // Data: chunk count for the stream's blob
	Data  []byte       // Data: chunk bytes
	Procs int          // Done: streams shipped this session
}

// handoffProc is the per-stream transfer blob: everything the requester
// needs to adopt the partner's basis wholesale — checkpoint, reconstructed
// replay order (advisories pre-applied), the per-sender watermarks (which
// outlive trimming, so late retransmissions stay suppressed), and the
// metadata.
type handoffProc struct {
	Proc        frame.ProcID
	Spec        demos.ProcSpec
	Node        frame.NodeID
	Dead        bool
	LastSent    uint64
	Ck          []byte
	CkSendSeq   uint64
	CkReadCount uint64
	CkStateKB   int
	BaseReads   uint64
	Cov         uint64
	Msgs        []storedMsg
	// Recorded is the watermark table, one id per sender (its highest
	// recorded), sorted so the blob's bytes are deterministic.
	Recorded []frame.MsgID
}

// handoffSession is the requester's side of one transfer (keyed by partner
// rank); a retry supersedes it with a fresh code.
type handoffSession struct {
	partner int
	code    uint32
}

// handoffAssembly reassembles one stream's chunked blob (FIFO transport:
// chunks arrive in order, streams arrive sequentially per session).
type handoffAssembly struct {
	proc  frame.ProcID
	total uint32
	next  uint32
	buf   []byte
}

// handoffChunkBytes bounds one Data chunk so the gob-encoded peerMsg around
// it still fits a frame body.
const handoffChunkBytes = frame.MaxBody - 512

// handoffRetry is how long the requester waits for a session's Done before
// re-requesting from scratch.
const handoffRetry = 3 * simtime.Second

// chanPeer carries recorder-to-recorder arbitration.
const chanPeer = 3

func encodePeer(m *peerMsg) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func decodePeer(b []byte) (*peerMsg, error) {
	var m peerMsg
	err := gob.NewDecoder(bytes.NewReader(b)).Decode(&m)
	return &m, err
}

// higherPeers returns the recorder procs with priority above ours. Every
// node's priority vector is ascending rank, and Peers is in rank order with
// our own slot removed, so they are its first Rank entries.
func (r *Recorder) higherPeers() []frame.ProcID {
	return r.cfg.Peers[:min(r.cfg.Rank, len(r.cfg.Peers))]
}

// peerByRank resolves a rank to a peer's proc id (our own rank resolves to
// nothing — we are not our own peer).
func (c *Config) peerByRank(rank int) (frame.ProcID, bool) {
	if rank == c.Rank {
		return frame.NilProc, false
	}
	// Peers are stored in rank order with our own slot removed; map back.
	idx := rank
	if rank > c.Rank {
		idx = rank - 1
	}
	if idx < 0 || idx >= len(c.Peers) {
		return frame.NilProc, false
	}
	return c.Peers[idx], true
}

// sendPeer ships an arbitration message to another recorder.
func (r *Recorder) sendPeer(to frame.ProcID, m *peerMsg) {
	r.sendSeq++
	r.ep.SendGuaranteed(&frame.Frame{
		Type:    frame.Guaranteed,
		Dst:     to.Node,
		ID:      frame.MsgID{Sender: r.cfg.Proc, Seq: r.restartNumber<<40 | r.sendSeq},
		From:    r.cfg.Proc,
		To:      to,
		Channel: chanPeer,
		Body:    encodePeer(m),
	})
}

// handlePeer serves arbitration traffic.
func (r *Recorder) handlePeer(f *frame.Frame) {
	m, err := decodePeer(f.Body)
	if err != nil {
		return
	}
	switch m.Kind {
	case peerQuery:
		// We are alive; we accept the duty unless still catching up after
		// our own restart (§6.3's "up to date and able to accept recovery
		// responsibilities").
		if r.catchingUp {
			return // silence means "not willing"; the asker's timer decides
		}
		r.sendPeer(f.From, &peerMsg{Kind: peerWilling, Node: m.Node, Code: m.Code})
		// Taking the duty: behave as if our own watchdog found the node.
		if w, ok := r.watch[m.Node]; ok && !w.down {
			w.down = true
			r.stats.ProcessorCrashes++
			r.log.Add(trace.KindDetect, int(r.cfg.Node), nodeSubject(m.Node),
				"accepting recovery duty from %s", f.From)
			r.actOnCrash(w)
		}
	case peerWilling:
		if fn, ok := r.waiters[m.Code]; ok {
			delete(r.waiters, m.Code)
			fn(f)
		}
	case peerHandoffReq:
		r.serveHandoff(f.From, m)
	case peerHandoffData:
		r.handleHandoffData(m)
	case peerHandoffDone:
		r.handleHandoffDone(m)
	case peerHandoffCommit:
		r.handleHandoffCommit(m)
	}
}

// --- Shard handoff (sharded mode) ------------------------------------------

// beginHandoff starts a transfer session with every partner rank that
// co-replicates at least one slot with us. Called on restart, before this
// recorder resumes duty on its leader slots (ActsFor stays false for a slot
// while its follower is a pending partner).
func (r *Recorder) beginHandoff() {
	m := r.cfg.Shards
	if m == nil {
		return
	}
	for rank := 0; rank < m.Recorders(); rank++ {
		if rank == r.cfg.Rank || !m.SharedSlots(r.cfg.Rank, rank) {
			continue
		}
		r.startHandoffSession(rank)
	}
}

// startHandoffSession (re)opens the transfer with one partner: send our
// coverage table for every stream in a shared slot and wait for the blobs.
func (r *Recorder) startHandoffSession(partner int) {
	peer, ok := r.cfg.peerByRank(partner)
	if !ok {
		return
	}
	m := r.cfg.Shards
	if old := r.handoffs[partner]; old != nil {
		delete(r.handoffRx, old.code)
	}
	code := r.nextCode
	r.nextCode++
	r.handoffPending[partner] = true
	r.handoffs[partner] = &handoffSession{partner: partner, code: code}
	var cov []procCov
	for _, p := range r.sortedProcs() {
		s := m.ShardOf(p)
		if !m.Replicates(r.cfg.Rank, s) || !m.Replicates(partner, s) {
			continue
		}
		e := r.db[p]
		cov = append(cov, procCov{
			Proc:     p,
			Dead:     e.Dead,
			Cov:      e.BaseReads + uint64(e.Arrivals.len()),
			LastSent: e.LastSent,
		})
	}
	r.sendPeer(peer, &peerMsg{Kind: peerHandoffReq, Code: code, Rank: r.cfg.Rank, Cov: cov})
	r.log.Add(trace.KindRecorder, int(r.cfg.Node), "recorder",
		"shard handoff requested from rec%d (%d streams known locally)", partner, len(cov))
	epoch := r.epoch
	r.sched.After(handoffRetry, func() {
		if r.epoch != epoch || r.crashed {
			return
		}
		ses := r.handoffs[partner]
		if ses == nil || ses.code != code || !r.handoffPending[partner] {
			return // completed or superseded
		}
		if w := r.peerWatch[partner]; w != nil && w.down {
			return // onPeerDown resumes us with the local basis
		}
		r.log.Add(trace.KindRecorder, int(r.cfg.Node), "recorder",
			"shard handoff from rec%d stalled; re-requesting", partner)
		r.startHandoffSession(partner)
	})
}

// serveHandoff is the partner side: stream every shared-slot process whose
// basis we know more of than the requester, then declare Done. The armed
// chaos counter (ArmHandoffCrash) can kill us between chunks — the exact
// mid-transfer window the I8 invariant is checked under.
func (r *Recorder) serveHandoff(from frame.ProcID, m *peerMsg) {
	sm := r.cfg.Shards
	if sm == nil {
		return
	}
	theirs := make(map[frame.ProcID]procCov, len(m.Cov))
	for _, c := range m.Cov {
		theirs[c.Proc] = c
	}
	shipped := 0
	for _, p := range r.sortedProcs() {
		s := sm.ShardOf(p)
		if !sm.Replicates(r.cfg.Rank, s) || !sm.Replicates(m.Rank, s) {
			continue
		}
		e := r.db[p]
		myCov := e.BaseReads + uint64(e.Arrivals.len())
		tc, known := theirs[p]
		var ship bool
		switch {
		case known && tc.Dead:
			ship = false // terminal; nothing newer can exist
		case e.Dead:
			ship = true // they think it is alive: ship the death certificate
		case !known:
			ship = true
		default:
			ship = myCov > tc.Cov || e.LastSent > tc.LastSent
		}
		if !ship {
			continue
		}
		blob := handoffProc{
			Proc:        p,
			Spec:        e.Spec,
			Node:        e.Node,
			Dead:        e.Dead,
			LastSent:    e.LastSent,
			Ck:          e.Checkpoint,
			CkSendSeq:   e.CkSendSeq,
			CkReadCount: e.CkReadCount,
			CkStateKB:   e.CkStateKB,
			BaseReads:   e.BaseReads,
			Cov:         myCov,
			Msgs:        reconstruct(e.Arrivals, e.Advisories),
		}
		blob.Recorded = make([]frame.MsgID, 0, len(e.recorded))
		for sender, seq := range e.recorded {
			blob.Recorded = append(blob.Recorded, frame.MsgID{Sender: sender, Seq: seq})
		}
		sort.Slice(blob.Recorded, func(i, j int) bool { return lessProc(blob.Recorded[i].Sender, blob.Recorded[j].Sender) })
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&blob); err != nil {
			panic(err)
		}
		data := buf.Bytes()
		total := (len(data) + handoffChunkBytes - 1) / handoffChunkBytes
		if total == 0 {
			total = 1
		}
		for i := 0; i < total; i++ {
			if r.handoffCrashAfter > 0 {
				r.handoffCrashAfter--
				if r.handoffCrashAfter == 0 {
					r.log.Add(trace.KindRecorder, int(r.cfg.Node), "recorder",
						"injected crash mid-handoff (serving %s to rec%d, chunk %d/%d)", p, m.Rank, i, total)
					r.scheduleSelfCrash()
					return
				}
			}
			lo := i * handoffChunkBytes
			hi := lo + handoffChunkBytes
			if hi > len(data) {
				hi = len(data)
			}
			r.sendPeer(from, &peerMsg{
				Kind: peerHandoffData, Code: m.Code, Rank: r.cfg.Rank,
				Proc: p, Chunk: uint32(i), Total: uint32(total), Data: data[lo:hi],
			})
			r.stats.HandoffChunksSent++
		}
		shipped++
		r.stats.HandoffProcsShipped++
	}
	r.sendPeer(from, &peerMsg{Kind: peerHandoffDone, Code: m.Code, Rank: r.cfg.Rank, Procs: shipped})
	r.log.Add(trace.KindRecorder, int(r.cfg.Node), "recorder",
		"served shard handoff to rec%d: %d streams shipped", m.Rank, shipped)
}

// handleHandoffData reassembles one stream's chunked blob on the requester.
func (r *Recorder) handleHandoffData(m *peerMsg) {
	ses := r.handoffs[m.Rank]
	if ses == nil || ses.code != m.Code {
		return // stale session (retry superseded it)
	}
	asm := r.handoffRx[m.Code]
	if m.Chunk == 0 {
		asm = &handoffAssembly{proc: m.Proc, total: m.Total}
		r.handoffRx[m.Code] = asm
	}
	if asm == nil || asm.proc != m.Proc || m.Chunk != asm.next || m.Total != asm.total {
		delete(r.handoffRx, m.Code) // protocol slip; the retry re-syncs
		return
	}
	asm.buf = append(asm.buf, m.Data...)
	asm.next++
	if asm.next < asm.total {
		return
	}
	delete(r.handoffRx, m.Code)
	var blob handoffProc
	if err := gobIntoR(asm.buf, &blob); err != nil {
		r.log.Add(trace.KindRecorder, int(r.cfg.Node), "recorder",
			"handoff blob from rec%d undecodable: %v", m.Rank, err)
		return
	}
	r.installHandoffProc(&blob)
}

// handleHandoffDone closes the session on the requester: commit to the
// partner (it stands down from our leader slots), resume duty, and sweep for
// recoveries that went unserved while the transfer ran.
func (r *Recorder) handleHandoffDone(m *peerMsg) {
	ses := r.handoffs[m.Rank]
	if ses == nil || ses.code != m.Code {
		return
	}
	delete(r.handoffRx, m.Code)
	delete(r.handoffs, m.Rank)
	delete(r.handoffPending, m.Rank)
	r.stats.HandoffsCompleted++
	if peer, ok := r.cfg.peerByRank(m.Rank); ok {
		r.sendPeer(peer, &peerMsg{Kind: peerHandoffCommit, Code: m.Code, Rank: r.cfg.Rank})
	}
	r.log.Add(trace.KindRecorder, int(r.cfg.Node), "recorder",
		"shard handoff from rec%d complete (%d streams shipped); resuming shard duties", m.Rank, m.Procs)
	r.sweepDuties()
}

// handleHandoffCommit demotes this (promoted-follower) recorder from the
// requester's leader slots: the restarted leader's basis is whole again.
// Until this message the follower kept acting — a brief overlap rather than
// a gap, safe because redundant recovery is idempotent (generation-guarded
// batches, §3.5 restart-from-scratch).
func (r *Recorder) handleHandoffCommit(m *peerMsg) {
	sm := r.cfg.Shards
	if sm == nil {
		return
	}
	demoted := 0
	for s := 0; s < sm.Slots(); s++ {
		if sm.Leader(s) == m.Rank && r.actingSlots[s] {
			delete(r.actingSlots, s)
			demoted++
		}
	}
	if demoted > 0 {
		r.log.Add(trace.KindRecorder, int(r.cfg.Node), "recorder",
			"rec%d reclaimed %d shard slots; standing down", m.Rank, demoted)
	}
}

// installHandoffProc merges one transferred stream into the local database.
// If the blob's basis reaches further than ours, adopt it wholesale and keep
// only local arrivals the partner has never seen as a suffix (both replicas
// hear acknowledgements in wire order, so anything we have that the blob
// lacks postdates its encoding). Otherwise just merge the watermarks.
func (r *Recorder) installHandoffProc(blob *handoffProc) {
	e := r.db[blob.Proc]
	if e == nil {
		e = newProcEntry(blob.Proc, blob.Node)
		e.Spec = blob.Spec
		e.LastCkAt = r.sched.Now()
		r.db[blob.Proc] = e
		r.persistProcMeta(e)
	}
	if blob.Dead {
		if !e.Dead {
			e.Dead = true
			e.Arrivals = arrLog{}
			e.Advisories = nil
			r.persistDead(e)
			r.store.Invalidate(e.keys.msg, e.ArrSeqNext)
			r.store.Invalidate(e.keys.adv, e.AdvSeqNext)
		}
		return
	}
	if e.Dead {
		return // we saw the destruction; the blob is stale
	}
	if blob.LastSent > e.LastSent {
		e.LastSent = blob.LastSent
		r.persistLastSent(e)
	}
	localCov := e.BaseReads + uint64(e.Arrivals.len())
	if blob.Cov <= localCov {
		return // our basis reaches at least as far
	}
	r.cancelReplay(blob.Proc) // in-flight batches from the stale basis
	theirs := make(watermarks, len(blob.Recorded))
	for _, id := range blob.Recorded {
		theirs.note(id)
	}
	for i := range blob.Msgs {
		theirs.note(blob.Msgs[i].ID)
	}
	var extras []storedMsg
	for _, lm := range reconstruct(e.Arrivals, e.Advisories) {
		if !theirs.covers(lm.ID) {
			extras = append(extras, lm)
		}
	}
	old := e.Arrivals.seqs()
	e.Checkpoint = blob.Ck
	e.CkSendSeq = blob.CkSendSeq
	e.CkReadCount = blob.CkReadCount
	e.CkStateKB = blob.CkStateKB
	e.BaseReads = blob.BaseReads
	e.LastCkAt = r.sched.Now()
	e.Arrivals = arrLog{}
	for _, src := range [][]storedMsg{blob.Msgs, extras} {
		for i := range src {
			// The record's SeenAt is when this recorder took the message in.
			nm := pendingMsg{storedMsg: src[i], To: e.Proc, SeenAt: r.sched.Now()}
			nm.ArrSeq = e.ArrSeqNext
			e.ArrSeqNext++
			e.Arrivals.push(nm.storedMsg)
			e.recorded.note(nm.ID)
			r.persistMessage(e, &nm)
		}
	}
	for _, id := range blob.Recorded {
		e.recorded.note(id)
	}
	// The adopted Msgs are already in reconstructed read order; advisories
	// would double-apply, so clear them (the checkpoint record's AdvTrim
	// makes the same cut on rebuild).
	e.Advisories = nil
	r.persistCheckpoint(e, old)
	r.stats.HandoffProcsAdopted++
	r.log.Add(trace.KindRecorder, int(r.cfg.Node), blob.Proc.String(),
		"adopted handoff basis (coverage %d -> %d, %d local extras kept)", localCov, blob.Cov, len(extras))
}

// arbitrate decides who recovers a crashed node (§6.3). Without peers the
// duty is ours immediately.
func (r *Recorder) arbitrate(w *watchState) {
	higher := r.higherPeers()
	if len(higher) == 0 {
		w.responsible = true
		r.actOnCrash(w)
		return
	}
	code := r.nextCode
	r.nextCode++
	answered := false
	r.waiters[code] = func(*frame.Frame) {
		answered = true
		w.responsible = false
		r.log.Add(trace.KindDetect, int(r.cfg.Node), nodeSubject(w.node),
			"higher-priority recorder took node %d; monitoring", w.node)
		// "If P_i does not recover in a set interval, R periodically
		// requeries its higher priority nodes" (§6.3).
		epoch := r.epoch
		r.sched.After(recoveryRetry, func() {
			if r.epoch != epoch || r.crashed {
				return
			}
			if w.down {
				r.arbitrate(w)
			}
		})
	}
	for _, p := range higher {
		r.sendPeer(p, &peerMsg{Kind: peerQuery, Node: w.node, Code: code})
	}
	epoch := r.epoch
	r.sched.After(claimTimeout, func() {
		if r.epoch != epoch || r.crashed || answered {
			return
		}
		delete(r.waiters, code)
		if w.down {
			r.log.Add(trace.KindDetect, int(r.cfg.Node), nodeSubject(w.node),
				"no higher-priority recorder answered; taking node %d", w.node)
			w.responsible = true
			r.actOnCrash(w)
		}
	})
}

// beginCatchUp starts the §6.3 restart catch-up: force a checkpoint from
// every live process; until they all land, this recorder declines recovery
// duties (its stream suffixes may be stale from its downtime).
func (r *Recorder) beginCatchUp() {
	if len(r.cfg.Peers) == 0 {
		return // sole recorder: nothing was published while we were down
	}
	r.catchingUp = true
	r.awaitCk = make(map[frame.ProcID]bool)
	for _, p := range r.sortedProcs() {
		if e := r.db[p]; !e.Dead && e.Spec.Recoverable {
			r.awaitCk[p] = true
			r.RequestCheckpoint(p)
		}
	}
	r.log.Add(trace.KindRecorder, int(r.cfg.Node), "recorder",
		"catching up: awaiting %d forced checkpoints", len(r.awaitCk))
	r.checkCaughtUp()
	// Fallback: processes that cannot checkpoint (Program images) never
	// will; cap the catch-up phase.
	epoch := r.epoch
	r.sched.After(10*simtime.Second, func() {
		if r.epoch != epoch || r.crashed {
			return
		}
		if r.catchingUp {
			r.log.Add(trace.KindRecorder, int(r.cfg.Node), "recorder", "catch-up timed out; resuming duties")
			r.finishCatchUp()
		}
	})
}

func (r *Recorder) noteCatchUpProgress(p frame.ProcID) {
	if !r.catchingUp {
		return
	}
	delete(r.awaitCk, p)
	r.checkCaughtUp()
}

func (r *Recorder) checkCaughtUp() {
	if r.catchingUp && len(r.awaitCk) == 0 {
		r.finishCatchUp()
	}
}

func (r *Recorder) finishCatchUp() {
	r.catchingUp = false
	r.awaitCk = nil
	r.log.Add(trace.KindRecorder, int(r.cfg.Node), "recorder", "caught up; accepting recovery duties")
}

package recorder

import (
	"encoding/binary"

	"publishing/internal/demos"
	"publishing/internal/frame"
	"publishing/internal/simtime"
	"publishing/internal/trace"
)

// This file implements the recorder-to-recorder half of §6.3, "Multiple
// recorders for reliability": with n recorders all recording all messages,
// n−1 can fail before the network becomes unavailable. The replica order of
// the shard map (shardmap.go, shard.go) is every node's priority vector, and
// follower promotion is the one failover path. The thesis's three problems:
//
//  1. Coordinating recovery: a replica acts for a slot once every replica
//     ahead of it is silent to its peer watchdog (ActsFor), so exactly one
//     live recorder recovers each stream. No claim query is exchanged.
//  2. Ensuring all recorders record each message: the media require a
//     positive verdict from every *reachable* voting tap before a message (or
//     ack) is usable — the per-recorder acknowledge slots of §6.3.
//  3. Recovering failed recorders: a restarted recorder rebuilds from its
//     own store, pulls the stream suffixes it missed from its partners (the
//     shard handoff below), and forces every process to checkpoint, after
//     which its stale stream suffixes are irrelevant.

// peerKind discriminates recorder-to-recorder messages. Kinds 1 and 2 were
// the deleted claim query and its answer; the handoff kinds keep their wire
// values.
type peerKind uint8

// Shard-handoff protocol. A restarted recorder Requests the stream suffixes
// it missed from the surviving replicas of each shared slot; each partner
// streams per-process blobs as Data chunks and finishes with Done; the
// requester Commits, at which point the partner stands down from the slots
// the requester is ahead of it on.
const (
	peerHandoffReq peerKind = iota + 3
	peerHandoffData
	peerHandoffDone
	peerHandoffCommit
)

// procCov is the requester's per-stream coverage statement: how far its
// local basis reaches (CkReadCount + recorded arrivals) and its send-side
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
	Code uint32

	Rank  int          // sender's recorder rank
	Cov   []procCov    // Req: requester's coverage table
	Proc  frame.ProcID // Data: the stream this chunk belongs to
	Chunk uint32       // Data: chunk index within the stream's blob
	Total uint32       // Data: chunk count for the stream's blob
	Data  []byte       // Data: chunk bytes
	Procs int          // Done: streams shipped this session
}

// codePeer codes a peer message: its kind, code and rank, then the fields
// the kind uses.
func codePeer(c *frame.Coder, m *peerMsg) {
	frame.Uint(c, &m.Kind)
	frame.Uint(c, &m.Code)
	frame.Int(c, &m.Rank)
	switch m.Kind {
	case peerHandoffReq:
		frame.Slice(c, &m.Cov)
		for i := range m.Cov {
			pc := &m.Cov[i]
			c.Proc(&pc.Proc)
			c.Bool(&pc.Dead)
			frame.Uint(c, &pc.Cov)
			frame.Uint(c, &pc.LastSent)
		}
	case peerHandoffData:
		c.Proc(&m.Proc)
		frame.Uint(c, &m.Chunk)
		frame.Uint(c, &m.Total)
		c.Blob(&m.Data)
	case peerHandoffDone:
		frame.Int(c, &m.Procs)
	case peerHandoffCommit:
	default:
		c.Fail()
	}
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
	Cov         uint64
	Msgs        []frame.BundleRec
	// Recorded is the watermark table, one id per sender (its highest
	// recorded), sorted so the blob's bytes are deterministic.
	Recorded []frame.MsgID
}

// codeHandoffProc codes a transfer blob. Each message is its store record
// (codeStoredMsg), which its body's length delimits.
func codeHandoffProc(c *frame.Coder, h *handoffProc) {
	c.Proc(&h.Proc)
	demos.CodeSpec(c, &h.Spec)
	frame.Int(c, &h.Node)
	c.Bool(&h.Dead)
	frame.Uint(c, &h.LastSent)
	c.Blob(&h.Ck)
	frame.Uint(c, &h.CkSendSeq)
	frame.Uint(c, &h.CkReadCount)
	frame.Int(c, &h.CkStateKB)
	frame.Uint(c, &h.Cov)
	frame.Slice(c, &h.Msgs)
	for i := range h.Msgs {
		codeStoredMsg(c, &h.Msgs[i])
	}
	frame.Slice(c, &h.Recorded)
	for i := range h.Recorded {
		c.MsgID(&h.Recorded[i])
	}
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

// handoffChunkBytes bounds one Data chunk so the peerMsg around it still
// fits a frame body. peerDataOverhead is the most codePeer writes for a Data
// message besides the chunk: kind, code, rank, process, chunk index and
// count, and the chunk's length, which is under 2^14 and so two bytes.
const (
	peerDataOverhead  = 1 + binary.MaxVarintLen32 + binary.MaxVarintLen64 + frame.MaxProcIDLen + 2*binary.MaxVarintLen32 + 2
	handoffChunkBytes = frame.MaxBody - peerDataOverhead
)

// handoffRetry is how long the requester waits for a session's Done before
// re-requesting from scratch.
const handoffRetry = 3 * simtime.Second

// chanPeer carries recorder-to-recorder traffic.
const chanPeer = 3

// peerByRank resolves a rank to a peer's proc id (our own rank resolves to
// nothing — we are not our own peer).
func (c *Config) peerByRank(rank int) (frame.ProcID, bool) {
	if rank == c.Rank || rank < 0 || rank >= len(c.Recorders) {
		return frame.NilProc, false
	}
	return c.Recorders[rank], true
}

// sendPeer ships a handoff message to another recorder.
func (r *Recorder) sendPeer(to frame.ProcID, m *peerMsg) {
	r.sendSeq++
	r.ep.SendGuaranteed(&frame.Frame{
		Type:    frame.Guaranteed,
		Dst:     to.Node,
		ID:      frame.MsgID{Sender: r.proc, Seq: r.restartNumber<<40 | r.sendSeq},
		From:    r.proc,
		To:      to,
		Channel: chanPeer,
		Body:    frame.AppendBody(make([]byte, 0, peerDataOverhead+len(m.Data)), m, codePeer),
	})
}

// handlePeer serves handoff traffic.
func (r *Recorder) handlePeer(f *frame.Frame) {
	m := new(peerMsg)
	if frame.DecodeBody(f.Body, m, codePeer) != nil {
		return
	}
	switch m.Kind {
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

// --- Shard handoff ---------------------------------------------------------

// beginHandoff starts a transfer session with every partner rank that
// co-replicates at least one slot with us. Called on restart, before this
// recorder resumes duty on its slots (ActsFor stays false for a slot while a
// replica behind us on it is a pending partner).
func (r *Recorder) beginHandoff() {
	m := r.cfg.Shards
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
			Cov:      e.CkReadCount + uint64(e.Arrivals.Len()),
			LastSent: e.LastSent,
		})
	}
	r.sendPeer(peer, &peerMsg{Kind: peerHandoffReq, Code: code, Rank: r.cfg.Rank, Cov: cov})
	r.log.Add(trace.KindRecorder, int(r.node), "recorder",
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
		if w := r.peerWatch(partner); w != nil && w.down {
			return // onPeerDown resumes us with the local basis
		}
		r.log.Add(trace.KindRecorder, int(r.node), "recorder",
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
		myCov := e.CkReadCount + uint64(e.Arrivals.Len())
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
			Cov:         myCov,
			Msgs:        r.reconstruct(e),
		}
		blob.Recorded = e.Recorded
		data := frame.AppendBody(nil, &blob, codeHandoffProc)
		total := (len(data) + handoffChunkBytes - 1) / handoffChunkBytes
		if total == 0 {
			total = 1
		}
		for i := 0; i < total; i++ {
			if r.handoffCrashAfter > 0 {
				r.handoffCrashAfter--
				if r.handoffCrashAfter == 0 {
					r.log.Add(trace.KindRecorder, int(r.node), "recorder",
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
	r.log.Add(trace.KindRecorder, int(r.node), "recorder",
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
	if err := frame.DecodeBody(asm.buf, &blob, codeHandoffProc); err != nil {
		r.log.Add(trace.KindRecorder, int(r.node), "recorder",
			"handoff blob from rec%d undecodable: %v", m.Rank, err)
		return
	}
	r.installHandoffProc(&blob)
}

// handleHandoffDone closes the session on the requester: commit to the
// partner (it stands down from the slots we are ahead of it on), resume
// duty, and sweep for recoveries that went unserved while the transfer ran.
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
	r.log.Add(trace.KindRecorder, int(r.node), "recorder",
		"shard handoff from rec%d complete (%d streams shipped); resuming shard duties", m.Rank, m.Procs)
	r.sweepDuties()
}

// handleHandoffCommit demotes this (promoted) recorder from the slots the
// requester is ahead of it on: the restarted recorder's basis is whole
// again. Until this message the promoted replica kept acting — a brief
// overlap rather than a gap, safe because redundant recovery is idempotent
// (generation-guarded batches, §3.5 restart-from-scratch).
func (r *Recorder) handleHandoffCommit(m *peerMsg) {
	w := r.peerWatch(m.Rank)
	if w == nil {
		return
	}
	before := r.actingSlots()
	w.silent = false
	if demoted := before - r.actingSlots(); demoted > 0 {
		r.log.Add(trace.KindRecorder, int(r.node), "recorder",
			"rec%d reclaimed %d shard slots; standing down", m.Rank, demoted)
	}
}

// installHandoffProc merges one transferred stream into the local database.
// If the blob's basis reaches further than ours, adopt it wholesale and keep
// only local arrivals neither the partner nor its checkpoint has taken, as a
// suffix (both replicas hear acknowledgements in wire order, so anything we
// have that the blob lacks postdates its encoding). Otherwise just merge the
// watermarks.
func (r *Recorder) installHandoffProc(blob *handoffProc) {
	e := r.db[blob.Proc]
	if e == nil {
		e = r.newProcEntry(blob.Proc, blob.Node)
		e.Spec = blob.Spec
		e.LastCkAt = r.sched.Now()
		r.install(e)
		r.persistProcMeta(e)
	}
	if blob.Dead {
		if !e.Dead {
			r.kill(e)
		}
		return
	}
	if e.Dead {
		return // we saw the destruction; the blob is stale
	}
	r.core.RaiseLastSent(&e.Stream, blob.LastSent)
	localCov := e.CkReadCount + uint64(e.Arrivals.Len())
	if blob.Cov <= localCov {
		return // our basis reaches at least as far
	}
	ckMarks, err := demos.CheckpointMarks(blob.Ck)
	if err != nil {
		r.log.Add(trace.KindRecorder, int(r.node), blob.Proc.String(), "handoff basis refused: %v", err)
		return
	}
	r.cancelReplay(blob.Proc) // in-flight batches from the stale basis
	var theirs frame.Marks
	for _, id := range blob.Recorded {
		theirs.Note(id)
	}
	// The adopted Msgs are in reconstructed read order already; the local
	// arrivals they lack follow them.
	msgs := blob.Msgs
	for i := range msgs {
		theirs.Note(msgs[i].ID)
	}
	for _, lm := range r.reconstruct(e) {
		if !theirs.Covers(lm.ID) && !ckMarks.Covers(lm.ID) {
			msgs = append(msgs, lm)
		}
	}
	old := e.Arrivals.AppendSeqs(nil)
	e.Checkpoint = blob.Ck
	e.CkSendSeq = blob.CkSendSeq
	e.CkStateKB = blob.CkStateKB
	e.LastCkAt = r.sched.Now()
	r.core.Adopt(&e.Stream, ckMarks, blob.CkReadCount, blob.Recorded, msgs)
	// The checkpoint record's AdvTrim cuts the cleared advisories on rebuild.
	r.persistCheckpoint(e, old)
	r.stats.HandoffProcsAdopted++
	r.log.Add(trace.KindRecorder, int(r.node), blob.Proc.String(),
		"adopted handoff basis (coverage %d -> %d, %d local extras kept)", localCov, blob.Cov, len(msgs)-len(blob.Msgs))
}

// beginCatchUp starts the §6.3 restart catch-up: force a checkpoint from
// every live process. Once they all land, the stream suffixes this recorder
// missed while down no longer matter; until then CatchingUp reports true.
func (r *Recorder) beginCatchUp() {
	if len(r.cfg.Recorders) == 1 {
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
	r.log.Add(trace.KindRecorder, int(r.node), "recorder",
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
			r.log.Add(trace.KindRecorder, int(r.node), "recorder", "catch-up timed out; resuming duties")
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
	r.log.Add(trace.KindRecorder, int(r.node), "recorder", "caught up; accepting recovery duties")
}

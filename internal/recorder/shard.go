package recorder

import (
	"slices"

	"publishing/internal/demos"
	"publishing/internal/frame"
	"publishing/internal/recorder/tap"
	"publishing/internal/trace"
)

// This file is the replication half of the multiple-recorder design (§6.3),
// LLFT-style leader-follower replication: each process stream hashes into a
// shard slot whose replicas are an ordered list of recorders (see ShardMap).
// A recorder stores, gates (votes on), and recovers only the streams whose
// slots it replicates. The replay basis for the whole system is then the
// union of the shards — the chaos checker's I8 invariant — and a recorder
// crash leaves every slot with a live replica while one survives. The
// paper's total copy, where "n−1 can fail", is the one-slot map.
//
// Three mechanisms keep the union complete across recorder failures:
//
//  1. Voting taps: gating media need a positive verdict only from the
//     recorders that own a frame's streams; non-owners abstain rather than
//     veto, so one recorder's outage suspends only its shards' traffic.
//  2. Peer watchdogs + follower promotion, the one failover path: each
//     recorder's one watchdog table (recovery.go) holds its sibling
//     recorders beside the processing nodes, so one tick pings both. A
//     replica acts for a slot once every replica ahead of it is silent, and
//     sweeps for recoveries the silent ones left orphaned.
//  3. Shard handoff (multirec.go): a restarted recorder pulls the stream
//     suffixes it missed from the surviving replicas of each shared slot
//     before reclaiming its slots, so duty moves back only once its basis is
//     whole. It also forces every process to checkpoint (§6.3 catch-up).

// ownsProc reports whether this recorder replicates the process's shard.
func (r *Recorder) ownsProc(p frame.ProcID) bool {
	m := r.cfg.Shards
	return m.Total() || m.Replicates(r.cfg.Rank, m.ShardOf(p))
}

// ShardMap exposes the cluster's shard table.
func (r *Recorder) ShardMap() *ShardMap { return r.cfg.Shards }

// Rank returns this recorder's rank in the cluster's recorder order.
func (r *Recorder) Rank() int { return r.cfg.Rank }

// ActsFor reports whether this recorder currently performs recovery duty for
// a shard slot: it replicates the slot, every replica ahead of it is silent
// (found so by the peer watchdog and not yet back through a handoff Commit),
// and it is not mid-handoff with a replica behind it, which keeps acting
// until the Commit.
func (r *Recorder) ActsFor(slot int) bool {
	reps := r.cfg.Shards.Replicas(slot)
	at := slices.Index(reps, r.cfg.Rank)
	if at < 0 {
		return false
	}
	for _, rank := range reps[:at] {
		if !r.peerWatch(rank).silent {
			return false
		}
	}
	for _, rank := range reps[at+1:] {
		if r.handoffPending[rank] {
			return false
		}
	}
	return true
}

// actingSlots counts the slots this recorder acts for.
func (r *Recorder) actingSlots() int {
	n := 0
	for s := 0; s < r.cfg.Shards.Slots(); s++ {
		if r.ActsFor(s) {
			n++
		}
	}
	return n
}

// ObserveVote implements lan.VotingTap: Observe's stored verdict plus an
// ownership vote, read from the same tap records. Abstaining recorders still
// observe the frame — piggybacked acknowledgement records for streams they
// DO own ride on frames they don't. A recorder that replicates every slot
// votes on every frame.
func (r *Recorder) ObserveVote(f *frame.Frame) (stored, voting bool) {
	return r.observe(f, !r.cfg.Shards.Total())
}

// votesOnMsg is the per-message ownership test, given the message's sender
// and destination and their tap records: the destination's owner records
// the arrival, and the sender's owner tracks LastSent — the §4.5
// suppression threshold — so both gate. Recorder-bound traffic (notices,
// control replies) is gated by everyone: every recorder consumes notices.
func (r *Recorder) votesOnMsg(from, to frame.ProcID, fromTap, toTap *tap.Rec) bool {
	return to == r.proc || toTap.Notice || toTap.Owns || from.Local != 0 && fromTap.Owns
}

// BasisSummary is one recorder's view of a stream's replay basis — the
// chaos checker compares these across a shard's replicas (I8).
type BasisSummary struct {
	Known       bool
	Dead        bool
	Recovering  bool
	CkReadCount uint64
	Msgs        int
	LastSent    uint64
}

// Cov is the basis's totally-ordered coverage proxy: reads folded into the
// checkpoint plus recorded arrivals behind it.
func (b BasisSummary) Cov() uint64 { return b.CkReadCount + uint64(b.Msgs) }

// Basis returns this recorder's basis summary for a stream.
func (r *Recorder) Basis(p frame.ProcID) BasisSummary {
	e := r.db[p]
	if e == nil {
		return BasisSummary{}
	}
	return BasisSummary{
		Known:       true,
		Dead:        e.Dead,
		Recovering:  e.Recovering,
		CkReadCount: e.CkReadCount,
		Msgs:        e.Arrivals.Len(),
		LastSent:    e.LastSent,
	}
}

// KnownProcs lists every stream in this recorder's database, sorted.
func (r *Recorder) KnownProcs() []frame.ProcID { return r.sortedProcs() }

// sortedProcs returns the database's keys in canonical order — every
// iteration that emits wire traffic or trace events must use it, never raw
// map order.
func (r *Recorder) sortedProcs() []frame.ProcID {
	out := make([]frame.ProcID, 0, len(r.db))
	for p := range r.db { //det:ok keys sorted below
		out = append(out, p)
	}
	slices.SortFunc(out, frame.ProcID.Compare)
	return out
}

// resetReplication starts the handoff state over, as at boot and after a
// crash: no handoff session.
func (r *Recorder) resetReplication() {
	r.handoffPending = make(map[int]bool)
	r.handoffs = make(map[int]*handoffSession)
	r.handoffRx = make(map[uint32]*handoffAssembly)
	r.handoffCrashAfter = 0
}

// onPeerDown is follower promotion: a replica whose every predecessor on a
// slot is now silent takes the slot over and sweeps for recoveries the
// silent ones left orphaned. If the dead peer was the source of an
// in-progress handoff, the requester abandons the transfer and resumes duty
// with whatever basis it has locally.
func (r *Recorder) onPeerDown(rank int) {
	before := r.actingSlots()
	r.peerWatch(rank).silent = true
	promoted := r.actingSlots() - before
	resumed := false
	if r.handoffPending[rank] {
		delete(r.handoffPending, rank)
		if ses := r.handoffs[rank]; ses != nil {
			delete(r.handoffRx, ses.code)
			delete(r.handoffs, rank)
		}
		resumed = true
		r.log.Add(trace.KindRecorder, int(r.node), "recorder",
			"handoff source rec%d lost mid-transfer; resuming with local basis", rank)
	}
	if promoted > 0 {
		r.stats.FollowerPromotions++
		r.log.Add(trace.KindDetect, int(r.node), "recorder",
			"peer recorder rec%d silent; promoted to leader on %d shard slots", rank, promoted)
	}
	if promoted > 0 || resumed {
		r.sweepDuties()
	}
}

// sweepDuties runs the §3.3.4 state query against every node: at restart,
// and so newly assumed shard duty (promotion, handoff completion) picks up
// crashed or half-recovered processes another recorder left behind.
// startRecovery's ActsFor guard filters the responses to this recorder's
// slots.
func (r *Recorder) sweepDuties() {
	for _, n := range r.cfg.Nodes {
		r.sendCtl(n, frame.ProcID{Node: n, Local: 0}, false,
			&demos.CtlMsg{Op: demos.OpQueryProcs, RestartNumber: r.restartNumber},
			chanQueryResp, func(f *frame.Frame) { r.handleQueryResponse(f) })
	}
}

// ArmHandoffCrash is the chaos hook for the mid-handoff fault: the recorder
// crashes itself after serving n more transfer chunks. One-shot; disarmed by
// the crash. Never fires without a peer (nothing serves chunks).
func (r *Recorder) ArmHandoffCrash(n int) {
	if n < 1 {
		n = 1
	}
	r.handoffCrashAfter = n
}

// scheduleSelfCrash crashes the recorder after the current event completes —
// crashing inline would reset the transport endpoint out from under the
// delivery path that called us.
func (r *Recorder) scheduleSelfCrash() {
	epoch := r.epoch
	r.sched.After(0, func() {
		if r.epoch != epoch || r.crashed {
			return
		}
		r.Crash()
	})
}

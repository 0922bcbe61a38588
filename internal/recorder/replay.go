package recorder

import (
	"publishing/internal/demos"
	"publishing/internal/frame"
	"publishing/internal/trace"
)

// Batched, pipelined recovery replay.
//
// The original replay path sent one guaranteed control frame per published
// message, so recovery time scaled with the message count at roughly one
// wire round-trip each (§5.2's dominant term). This file replaces it: the
// reconstructed stream is consumed through an iterator (no ordered-slice
// materialization per attempt), packed into MTU-sized OpReplayBatch frames,
// and kept ReplayWindow batches deep in the transport so the next batch is
// on the wire the moment the previous one is acknowledged. Loss and
// reordering are the transport's problem — batches ride the same guaranteed
// FIFO stream as everything else — while the kernel's cumulative batch
// acknowledgement (CtlReply.AckedBatch) paces the window end to end.

// replayIter streams a process's published messages in reconstructed read
// order — the same order reconstruct produces, emitted one message at a
// time. Recovery replays each attempt from this iterator instead of
// building the whole ordered slice, which a recursive crash would pay for
// repeatedly.
type replayIter struct {
	// arrivals is a snapshot of the stream (see arrLog): what is recorded or
	// trimmed while the replay runs does not reach it.
	arrivals   arrLog
	advisories []advisory
	// taken marks arrivals already emitted by an advisory's out-of-order
	// read (nil when there are no advisories and order is arrival order).
	taken []bool
	pos   int // next in-order candidate
	ai    int // next advisory to honor
}

func newReplayIter(arrivals arrLog, advisories []advisory) *replayIter {
	it := &replayIter{arrivals: arrivals, advisories: advisories}
	if len(advisories) > 0 {
		it.taken = make([]bool, arrivals.len())
	}
	return it
}

// next returns the next message in replay order. The pointer aliases the
// log; callers must copy what they keep.
func (it *replayIter) next() (*storedMsg, bool) {
	i, ok := it.nextPos()
	if !ok {
		return nil, false
	}
	return it.arrivals.at(i), true
}

// nextPos returns the log position of the next message in replay order.
func (it *replayIter) nextPos() (int, bool) {
	n := it.arrivals.len()
	for it.ai < len(it.advisories) {
		adv := &it.advisories[it.ai]
		it.skipTaken()
		if it.pos < n && it.arrivals.at(it.pos).ID != adv.HeadID {
			// In-order reads precede the advised out-of-order read.
			it.pos++
			return it.pos - 1, true
		}
		// Head reached (or the queue drained without it): honor the advisory.
		it.ai++
		for i := it.pos; i < n; i++ {
			if !it.taken[i] && it.arrivals.at(i).ID == adv.ReadID {
				it.taken[i] = true
				return i, true
			}
		}
		// Advised message absent: the advisory is consumed with no emission.
	}
	it.skipTaken()
	if it.pos < n {
		it.pos++
		return it.pos - 1, true
	}
	return 0, false
}

func (it *replayIter) skipTaken() {
	for it.taken != nil && it.pos < it.arrivals.len() && it.taken[it.pos] {
		it.pos++
	}
}

// batchSender is one recovery's windowed replay pipeline.
type batchSender struct {
	r   *Recorder
	e   *procEntry
	rp  *recoveryProc
	gen uint64
	it  *replayIter

	// staged is the one-message lookahead between iterator and packer (a
	// record that did not fit the previous batch).
	staged     *storedMsg
	haveStaged bool

	nextSeq uint64 // highest batch sequence sent
	acked   uint64 // kernel's cumulative batch acknowledgement
	// ids maps unacked batch sequences to their transport frame ids so a
	// superseding generation can withdraw whatever has not left the node.
	ids map[uint64]frame.MsgID
	// codes are this sender's reply-waiter codes, orphaned on cancel.
	codes    []uint32
	doneSent bool
}

// startReplay reenacts the published stream: "It then reads all the
// published messages and resends them to the process" (§4.7), batched and
// pipelined. Transport ordering (FIFO per node pair) delivers the batches
// in sequence; the kernel unpacks each batch in record order, so the
// process observes exactly the reconstructed read order.
func (r *Recorder) startReplay(e *procEntry, rp *recoveryProc, gen uint64) {
	bs := &batchSender{
		r: r, e: e, rp: rp, gen: gen,
		it:  newReplayIter(e.Arrivals, e.Advisories),
		ids: make(map[uint64]frame.MsgID),
	}
	r.replaying[e.Proc] = bs
	bs.fill()
}

// replayWindow returns the effective batch window (>= 1).
func (r *Recorder) replayWindow() int {
	if r.cfg.ReplayWindow > 1 {
		return r.cfg.ReplayWindow
	}
	return 1
}

// replayBudget returns the effective batch body budget in bytes.
func (r *Recorder) replayBudget() int {
	if r.cfg.ReplayBatchBytes > 0 {
		return r.cfg.ReplayBatchBytes
	}
	return frame.MaxBody
}

// routeRepeats returns the effective routing-update broadcast count: the
// configured knob, defaulting to 3, with negative meaning none.
func (r *Recorder) routeRepeats() int {
	switch {
	case r.cfg.RouteRepeats < 0:
		return 0
	case r.cfg.RouteRepeats == 0:
		return 3
	default:
		return r.cfg.RouteRepeats
	}
}

// peek stages the next record without consuming it.
func (bs *batchSender) peek() (*storedMsg, bool) {
	if !bs.haveStaged {
		bs.staged, bs.haveStaged = bs.it.next()
	}
	return bs.staged, bs.haveStaged
}

// fill tops the window up and, once the stream is exhausted and every batch
// acknowledged, declares recovery done.
func (bs *batchSender) fill() {
	for int(bs.nextSeq-bs.acked) < bs.r.replayWindow() {
		if !bs.sendBatch() {
			break
		}
	}
	if _, more := bs.peek(); !more && bs.acked == bs.nextSeq && !bs.doneSent {
		bs.sendDone()
	}
}

// sendBatch packs records into one batch frame until the byte budget is
// reached (always at least one record) and hands it to the transport. It
// reports whether there was anything left to send.
func (bs *batchSender) sendBatch() bool {
	sm, ok := bs.peek()
	if !ok {
		return false
	}
	r := bs.r
	budget := r.replayBudget()
	seq := bs.nextSeq + 1
	buf := demos.BeginReplayBatch(make([]byte, 0, budget+64), bs.e.Proc, bs.gen, seq)
	count := 0
	for {
		rec := demos.ReplayRec{
			ID: sm.ID, From: sm.From, Channel: sm.Channel,
			Code: sm.Code, Body: sm.Body, Link: sm.Link,
		}
		if count > 0 && len(buf)+rec.EncodedLen() > budget {
			break // does not fit; starts the next batch
		}
		buf = demos.AppendReplayRec(buf, &rec)
		count++
		bs.haveStaged = false
		r.stats.MessagesReplayed++
		if sm, ok = bs.peek(); !ok {
			break
		}
	}
	demos.FinishReplayBatch(buf, count)
	bs.nextSeq = seq
	id, code := r.sendReplay(bs.rp.target, buf, bs.onAck)
	bs.ids[seq] = id
	bs.codes = append(bs.codes, code)
	r.stats.ReplayBatches++
	r.replayOcc.Add(1)
	if r.log.Enabled() {
		r.log.Add(trace.KindReplay, int(r.cfg.Node), bs.e.Proc.String(),
			"replaying batch #%d (%d messages, %d B)", seq, count, len(buf))
	}
	return true
}

// onAck applies one kernel batch acknowledgement and refills the window.
func (bs *batchSender) onAck(f *frame.Frame) {
	r := bs.r
	if r.crashed || !r.current(bs.rp, bs.gen) {
		return
	}
	rep, err := demos.DecodeReply(f.Body)
	if err != nil {
		r.log.Add(trace.KindReplay, int(r.cfg.Node), bs.e.Proc.String(), "batch ack undecodable: %v", err)
		return // the recovery retry timer backstops a wedged window
	}
	if !rep.OK {
		r.log.Add(trace.KindReplay, int(r.cfg.Node), bs.e.Proc.String(), "batch refused: %s", rep.Err)
		return
	}
	if rep.AckedBatch > bs.acked {
		for s := bs.acked + 1; s <= rep.AckedBatch; s++ {
			delete(bs.ids, s)
		}
		r.replayOcc.Add(-int64(rep.AckedBatch - bs.acked))
		bs.acked = rep.AckedBatch
	}
	bs.fill()
}

// sendDone tells the kernel the last published message has been replayed:
// "After the recovery process has sent the last published message, it sends
// a message ... that the process is now recovered" (§4.7).
func (bs *batchSender) sendDone() {
	bs.doneSent = true
	r := bs.r
	e, rp, gen := bs.e, bs.rp, bs.gen
	r.sendCtl(rp.target, frame.ProcID{Node: rp.target, Local: 0}, false,
		&demos.CtlMsg{Op: demos.OpRecoveryDone, Proc: e.Proc, RecoveryGen: gen},
		chanCtlReply, func(f *frame.Frame) {
			if r.crashed || !r.current(rp, gen) {
				return
			}
			e.Recovering = false
			delete(r.recovering, e.Proc)
			delete(r.replaying, e.Proc)
			r.stats.RecoveriesCompleted++
			r.log.Add(trace.KindRecoveryDone, int(r.cfg.Node), e.Proc.String(), "recovered on n%d", rp.target)
		})
}

// sendReplay transmits one ChanReplay body (batch or checkpoint chunk) as
// guaranteed traffic to a node's kernel process, returning the transport
// frame id and the reply-waiter code (zero when no reply is expected).
func (r *Recorder) sendReplay(node frame.NodeID, body []byte, onReply func(*frame.Frame)) (frame.MsgID, uint32) {
	r.sendSeq++
	f := &frame.Frame{
		Type:    frame.Guaranteed,
		Dst:     node,
		ID:      frame.MsgID{Sender: r.cfg.Proc, Seq: r.restartNumber<<40 | r.sendSeq},
		From:    r.cfg.Proc,
		To:      frame.ProcID{Node: node, Local: 0},
		Channel: demos.ChanReplay,
		Body:    body,
	}
	var code uint32
	if onReply != nil {
		code = r.nextCode
		r.nextCode++
		r.waiters[code] = onReply
		f.PassedLink = &frame.Link{To: r.cfg.Proc, Channel: chanCtlReply, Code: code}
	}
	r.ep.SendGuaranteed(f)
	return f.ID, code
}

// cancelReplay tears down a live batch pipeline: unsent batch frames are
// withdrawn from the transport and the reply waiters orphaned, so a
// superseded generation cannot race the attempt that replaces it.
func (r *Recorder) cancelReplay(p frame.ProcID) {
	bs := r.replaying[p]
	if bs == nil {
		return
	}
	delete(r.replaying, p)
	r.replayOcc.Add(-int64(bs.nextSeq - bs.acked))
	for _, code := range bs.codes {
		delete(r.waiters, code)
	}
	if len(bs.ids) > 0 {
		live := make(map[frame.MsgID]bool, len(bs.ids))
		for _, id := range bs.ids {
			live[id] = true
		}
		r.ep.Abort(func(f *frame.Frame) bool { return live[f.ID] })
	}
}

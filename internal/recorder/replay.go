package recorder

import (
	"publishing/internal/demos"
	"publishing/internal/frame"
	"publishing/internal/recorder/tap"
	"publishing/internal/trace"
)

// Batched, pipelined recovery replay.
//
// The original replay path sent one guaranteed control frame per published
// message, so recovery time scaled with the message count at roughly one
// wire round-trip each (§5.2's dominant term). This file replaces it: the
// reconstructed stream is consumed through an iterator (no ordered-slice
// materialization per attempt), packed into MTU-sized replay batch frames
// (frame.ChanReplay), and kept ReplayWindow batches deep in the transport so
// the next batch is on the wire the moment the previous one is
// acknowledged. Loss and reordering are the transport's problem — batches
// ride the same guaranteed FIFO stream as everything else — while the
// kernel's cumulative batch acknowledgement (CtlReply.AckedBatch) paces the
// window end to end.

// batchSender is one recovery's windowed replay pipeline.
type batchSender struct {
	r   *Recorder
	e   *procEntry
	rp  *recoveryProc
	gen uint64
	// order walks a snapshot of the stream (tap.Order), so a recursive
	// crash never pays for an ordered copy; staged is the one-message
	// lookahead between it and the packer (a record that did not fit the
	// previous batch), read back from the store.
	order      tap.Order
	staged     frame.BundleRec
	haveStaged bool

	nextSeq uint64 // highest batch sequence sent
	acked   uint64 // kernel's cumulative batch acknowledgement
	// ids maps unacked batch sequences to their transport frame ids so a
	// superseding generation can withdraw whatever has not left the node.
	ids      map[uint64]frame.MsgID
	doneSent bool
	// link is the reply link every batch passes. Batch acknowledgements
	// are cumulative, so one waiter, its code, takes them all: ack, onAck
	// bound once, which each acknowledgement registers again. rep is the
	// reply each acknowledgement is decoded into.
	link frame.Link
	ack  func(*frame.Frame)
	rep  demos.CtlReply
}

// startReplay reenacts the published stream: "It then reads all the
// published messages and resends them to the process" (§4.7), batched and
// pipelined. Transport ordering (FIFO per node pair) delivers the batches
// in sequence; the kernel unpacks each batch in record order, so the
// process observes exactly the reconstructed read order.
func (r *Recorder) startReplay(e *procEntry, rp *recoveryProc, gen uint64) {
	bs := &batchSender{
		r: r, e: e, rp: rp, gen: gen,
		order: tap.NewOrder(&e.Stream, (*tapFx)(r)),
		ids:   make(map[uint64]frame.MsgID),
	}
	bs.link = frame.Link{To: r.proc, Channel: chanCtlReply, Code: r.nextCode}
	r.nextCode++
	bs.ack = bs.onAck
	r.waiters[bs.link.Code] = bs.ack
	r.replaying[e.Proc] = bs
	bs.fill()
}

// peek stages the next record without consuming it.
func (bs *batchSender) peek() (*frame.BundleRec, bool) {
	if !bs.haveStaged {
		if _, seq, ref, ok := bs.order.Next(); ok {
			bs.staged, bs.haveStaged = readArrival(bs.r.store, bs.e.keys.msg, seq, ref), true
		}
	}
	return &bs.staged, bs.haveStaged
}

// fill tops the window up and, once the stream is exhausted and every batch
// acknowledged, declares recovery done.
func (bs *batchSender) fill() {
	for int(bs.nextSeq-bs.acked) < bs.r.cfg.ReplayWindow {
		if !bs.sendBatch() {
			break
		}
	}
	if _, more := bs.peek(); !more && bs.acked == bs.nextSeq && !bs.doneSent {
		bs.sendDone()
	}
}

// sendBatch packs records into one batch frame until its encoded body
// reaches the byte budget (always at least one record) and hands it to the
// transport. It reports whether there was anything left to send. A record
// shares its body with the store page it was read from, which is never
// written again, the record array is the transport's (BatchRecs) and the
// header is carved from the recorder's slab, so a warm recorder copies no
// body and allocates nothing per batch.
func (bs *batchSender) sendBatch() bool {
	m, ok := bs.peek()
	if !ok {
		return false
	}
	r := bs.r
	budget := r.cfg.ReplayBatchBytes
	seq := bs.nextSeq + 1
	recs := r.ep.BatchRecs()
	n := frame.BatchHdrLen
	for {
		if recs == nil {
			// A new array, sized for a batch of records like the first.
			recs = make([]frame.BundleRec, 0, 1+max(budget-n, 0)/m.ReplayLen())
		}
		if len(recs) > 0 && n+m.ReplayLen() > budget {
			break // does not fit; starts the next batch
		}
		recs = append(recs, *m)
		n += m.ReplayLen()
		bs.haveStaged = false
		r.stats.MessagesReplayed++
		if m, ok = bs.peek(); !ok {
			break
		}
	}
	hdr := r.replayHdrs.Keep(frame.AppendBatchHdr(r.replayHdrs.Room(frame.BatchHdrLen), frame.BatchHdr{
		Kind: frame.BatchRecords, Proc: bs.e.Proc, Gen: bs.gen, Seq: seq, Count: uint32(len(recs)),
	}))
	bs.nextSeq = seq
	bs.ids[seq] = r.sendReplay(bs.rp.target, hdr, recs, &bs.link)
	r.stats.ReplayBatches++
	r.replayOcc.Add(1)
	if r.log.Enabled() {
		r.log.Add(trace.KindReplay, int(r.node), bs.e.Proc.String(),
			"replaying batch #%d (%d messages, %d B)", seq, len(recs), n)
	}
	return true
}

// onAck applies one kernel batch acknowledgement and refills the window.
func (bs *batchSender) onAck(f *frame.Frame) {
	r := bs.r
	if r.crashed || !r.current(bs.rp, bs.gen) {
		return
	}
	r.waiters[bs.link.Code] = bs.ack
	rep := &bs.rep
	if err := demos.DecodeReply(f.Body, rep); err != nil {
		r.log.Add(trace.KindReplay, int(r.node), bs.e.Proc.String(), "batch ack undecodable: %v", err)
		return // the recovery retry timer backstops a wedged window
	}
	if !rep.OK {
		r.log.Add(trace.KindReplay, int(r.node), bs.e.Proc.String(), "batch refused: %s", rep.Err)
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
			delete(r.waiters, bs.link.Code)
			r.stats.RecoveriesCompleted++
			r.log.Add(trace.KindRecoveryDone, int(r.node), e.Proc.String(), "recovered on n%d", rp.target)
		})
}

// sendReplay transmits one ChanReplay message (a batch's header and
// records, or a checkpoint chunk) as guaranteed traffic to a node's kernel
// process, passing reply (nil when no reply is expected), and returns the
// transport frame id.
func (r *Recorder) sendReplay(node frame.NodeID, body []byte, recs []frame.BundleRec, reply *frame.Link) frame.MsgID {
	r.sendSeq++
	f := &frame.Frame{
		Type:       frame.Guaranteed,
		Dst:        node,
		ID:         frame.MsgID{Sender: r.proc, Seq: r.restartNumber<<40 | r.sendSeq},
		From:       r.proc,
		To:         frame.ProcID{Node: node, Local: 0},
		Channel:    frame.ChanReplay,
		Body:       body,
		Recs:       recs,
		PassedLink: reply,
	}
	r.ep.SendGuaranteed(f)
	return f.ID
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
	delete(r.waiters, bs.link.Code)
	if len(bs.ids) > 0 {
		live := make(map[frame.MsgID]bool, len(bs.ids))
		for _, id := range bs.ids { //det:ok order-free: builds a set
			live[id] = true
		}
		r.ep.Abort(func(f *frame.Frame) bool { return live[f.ID] })
	}
}

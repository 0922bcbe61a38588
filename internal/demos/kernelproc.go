package demos

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"

	"publishing/internal/frame"
	"publishing/internal/simtime"
	"publishing/internal/trace"
)

// CtlReply is the body of a kernel-process reply.
type CtlReply struct {
	OK            bool
	Err           string
	Proc          frame.ProcID
	RestartNumber uint64
	// AckedBatch is the cumulative replay-batch acknowledgement: the highest
	// batch sequence applied in order for Proc. The recovery pipeline keeps
	// a window of batches in flight against it.
	AckedBatch uint64
}

// EncodeReply gob-encodes a control reply.
func EncodeReply(r *CtlReply) []byte { return mustEncode(&replyCodec, r) }

// DecodeReply decodes a control reply.
func DecodeReply(b []byte) (*CtlReply, error) {
	var r CtlReply
	if err := replyCodec.Decode(b, &r); err != nil {
		return nil, fmt.Errorf("demos: bad control reply: %w", err)
	}
	return &r, nil
}

// checkpointImage is the serialized form of a full process checkpoint: the
// machine's address-space equivalent plus the kernel-resident link table.
type checkpointImage struct {
	Machine []byte
	Links   []byte
}

func decodeCheckpoint(b []byte) (*checkpointImage, error) {
	var img checkpointImage
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&img); err != nil {
		return nil, fmt.Errorf("demos: bad checkpoint: %w", err)
	}
	return &img, nil
}

// handleControl is the kernel process (§4.2.1): it serves process-control
// requests delivered as messages. Direct requests (To = kernel process)
// carry creation, recovery, and query operations; DELIVERTOKERNEL requests
// (To = a controlled process) carry per-process control, and everything the
// kernel does for them is attributed to the controlled process (§4.4.3).
func (k *Kernel) handleControl(f *frame.Frame) bool {
	if f.Channel == ChanReplay {
		// Replay batches and checkpoint chunks use the fixed binary batch
		// format, not gob (they are the recovery hot path).
		return k.handleReplayFrame(f)
	}
	ctl, err := DecodeCtl(f.Body)
	if err != nil {
		k.env.Log.Add(trace.KindControl, int(k.node), f.From.String(), "undecodable control: %v", err)
		return true
	}
	k.charge(k.env.Costs.LinkCPU, 0)
	k.env.Log.Add(trace.KindControl, int(k.node), f.To.String(), "ctl op=%d from %s", ctl.Op, f.From)

	switch ctl.Op {
	case OpCreate:
		var init *frame.Link
		if !ctl.Spec.InitialLink.IsNil() {
			l := ctl.Spec.InitialLink
			init = &l
		}
		id, err := k.Spawn(ctl.Spec, SpawnOptions{InitialLink: init, SendSeq: 0})
		k.reply(f, nil, replyFor(id, err), controlLinkFor(id, err))

	case OpRecreate:
		var sendSeq uint64
		if ctl.FirstSendSeq > 0 {
			sendSeq = ctl.FirstSendSeq - 1
		}
		ck, err := k.resolveCheckpoint(ctl)
		var id frame.ProcID
		if err == nil {
			id, err = k.Spawn(ctl.Spec, SpawnOptions{
				FixedID:         &ctl.Proc,
				Checkpoint:      ck,
				SendSeq:         sendSeq,
				ReadCount:       ctl.ReadCount,
				Recovering:      true,
				SuppressThrough: ctl.LastSentSeq,
				RecoveryGen:     ctl.RecoveryGen,
				Quiet:           true,
			})
		}
		k.env.Log.Add(trace.KindRecoveryStart, int(k.node), ctl.Proc.String(),
			"recreated (gen=%d first=%d last=%d ck=%dB): err=%v", ctl.RecoveryGen, ctl.FirstSendSeq, ctl.LastSentSeq, len(ck), err)
		k.reply(f, nil, replyFor(id, err), nil)

	case OpQueryProcs:
		resp := &QueryResponse{RestartNumber: ctl.RestartNumber, Node: k.node}
		for id := range k.procs {
			resp.Procs = append(resp.Procs, ProcReport{Proc: id, State: k.ProcState(id)})
		}
		if f.PassedLink != nil {
			_ = k.sendMessage(nil, k.KernelProc(), *f.PassedLink, EncodeQuery(resp), nil)
		}

	case OpReplayMsg:
		p := k.procs[ctl.Proc]
		if p == nil || !p.recovering {
			k.env.Log.Add(trace.KindReplay, int(k.node), ctl.Proc.String(), "replay for non-recovering process dropped")
			return true
		}
		k.stats.Replayed++
		k.noteReplayed(p, ctl.ReplayID)
		// The replay event precedes the delivery it licenses, so an online
		// exactly-once monitor never sees a replayed delivery as a duplicate.
		k.env.Log.AddMsg(trace.KindReplay, int(k.node), ctl.ReplayID.String(), ctl.Proc.String(), "replayed")
		k.pushToQueue(p, Msg{
			ID:      ctl.ReplayID,
			From:    ctl.ReplayFrom,
			Channel: ctl.ReplayChannel,
			Code:    ctl.ReplayCode,
			Body:    ctl.ReplayBody,
		}, ctl.ReplayLink)

	case OpRecoveryDone:
		p := k.procs[ctl.Proc]
		if p == nil {
			return true
		}
		if p.recovering && ctl.RecoveryGen != p.recoveryGen {
			// A recovery-done from an abandoned attempt must not open the
			// process to direct traffic mid-replay of the live attempt.
			k.stats.StaleReplayDropped++
			k.env.Log.Add(trace.KindRecoveryDone, int(k.node), ctl.Proc.String(),
				"stale recovery-done (gen %d, live %d) dropped", ctl.RecoveryGen, p.recoveryGen)
			return true
		}
		p.recovering = false
		k.env.Log.Add(trace.KindRecoveryDone, int(k.node), ctl.Proc.String(),
			"recovery complete; accepting direct traffic")
		// Frames refused during recovery are sitting in the transport's
		// reassembly buffers; deliver them now, in order.
		k.ep.Poke()
		if f.PassedLink != nil {
			k.reply(f, nil, &CtlReply{OK: true, Proc: ctl.Proc}, nil)
		}

	case OpDestroy:
		k.Destroy(f.To)
		if f.PassedLink != nil {
			k.reply(f, nil, &CtlReply{OK: true, Proc: f.To}, nil)
		}

	case OpMoveLink:
		// Fig 4.5: install the link carried by this message into the
		// controlled process's table.
		p := k.procs[f.To]
		if p != nil && f.PassedLink != nil {
			p.links.insert(*f.PassedLink)
			k.env.Log.Add(trace.KindControl, int(k.node), f.To.String(), "movelink %s", f.PassedLink)
		}

	case OpStop:
		if p := k.procs[f.To]; p != nil {
			p.stopped = true
		}

	case OpStart:
		if p := k.procs[f.To]; p != nil && p.stopped {
			p.stopped = false
			k.wake(p)
		}

	case OpCheckpoint:
		_, _ = k.CheckpointNow(f.To)

	default:
		k.env.Log.Add(trace.KindControl, int(k.node), f.To.String(), "unknown ctl op %d", ctl.Op)
	}
	return true
}

// handleReplayFrame dispatches ChanReplay traffic: replay batches and
// checkpoint chunks in the fixed binary batch format.
func (k *Kernel) handleReplayFrame(f *frame.Frame) bool {
	hdr, err := DecodeBatchHdr(f.Body)
	if err != nil {
		k.env.Log.Add(trace.KindReplay, int(k.node), f.From.String(), "undecodable replay frame: %v", err)
		return true
	}
	if hdr.Kind == batchKindCkChunk {
		return k.handleCkChunk(f, hdr)
	}
	return k.handleReplayBatch(f, hdr)
}

// handleReplayBatch unpacks one OpReplayBatch frame into the recovering
// process's input queue, in order, with zero extra copies: the decoded
// record bodies alias the frame body, which belongs to this kernel once the
// transport delivered it (the same discipline as direct delivery in
// enqueueFrame). One batch costs one receive interrupt and one control
// charge however many records it carries — that is the whole point.
func (k *Kernel) handleReplayBatch(f *frame.Frame, hdr ReplayBatchHdr) bool {
	p := k.procs[hdr.Proc]
	if p == nil || !p.recovering || p.state == psCrashed || p.recoveryGen != hdr.Gen {
		// A batch from an abandoned recovery generation (recursive crash,
		// §3.5) or for a process no longer replaying. Ack and discard — the
		// live attempt has its own stream.
		k.stats.StaleReplayDropped++
		if k.env.Log.Enabled() {
			k.env.Log.Add(trace.KindReplay, int(k.node), hdr.Proc.String(),
				"stale replay batch #%d (gen %d) dropped", hdr.Seq, hdr.Gen)
		}
		return true
	}
	k.charge(k.env.Costs.LinkCPU, 0)
	if hdr.Seq != p.replayBatch+1 {
		// Duplicate (or out-of-window) batch: just re-ack cumulatively.
		k.replyBatchAck(f, p)
		return true
	}
	hdr, recs, err := DecodeReplayBatch(f.Body, k.replayRecs[:0])
	k.replayRecs = recs[:0]
	// The queue owns the bodies and links once this returns; the kept
	// scratch must not hold a recovery's last batch reachable until the
	// next recovery.
	defer clear(recs)
	if err != nil {
		k.env.Log.Add(trace.KindReplay, int(k.node), hdr.Proc.String(), "bad replay batch: %v", err)
		return true
	}
	detailed := k.env.Log.Detailed()
	for i := range recs {
		k.stats.Replayed++
		k.noteReplayed(p, recs[i].ID)
		if detailed {
			// Per-record causal event: the replayed message carries its
			// original id, tying the replay back to the pre-crash publish.
			// Emitted before the delivery it licenses, so an online
			// exactly-once monitor never counts a replay as a duplicate.
			k.env.Log.AddMsg(trace.KindReplay, int(k.node), recs[i].ID.String(),
				hdr.Proc.String(), "replayed from batch #%d", hdr.Seq)
		}
		k.pushToQueue(p, Msg{
			ID:      recs[i].ID,
			From:    recs[i].From,
			Channel: recs[i].Channel,
			Code:    recs[i].Code,
			Body:    recs[i].Body,
		}, recs[i].Link)
	}
	p.replayBatch = hdr.Seq
	k.stats.ReplayBatches++
	if k.env.Log.Enabled() {
		k.env.Log.Add(trace.KindReplay, int(k.node), hdr.Proc.String(),
			"replayed batch #%d (%d messages)", hdr.Seq, len(recs))
	}
	k.replyBatchAck(f, p)
	return true
}

// noteReplayed remembers a message id delivered to p via replay, so a late
// direct retransmission of the same message (its ack was lost with the old
// node) is consumed instead of delivered again.
func (k *Kernel) noteReplayed(p *process, id frame.MsgID) {
	if p.replayed == nil {
		p.replayed = make(map[frame.MsgID]bool)
	}
	p.replayed[id] = true
}

// replyBatchAck sends the cumulative batch acknowledgement for p.
func (k *Kernel) replyBatchAck(f *frame.Frame, p *process) {
	k.reply(f, nil, &CtlReply{OK: true, Proc: p.id, AckedBatch: p.replayBatch}, nil)
}

// handleCkChunk stages one chunk of a checkpoint too big for a single
// MTU-sized frame. Chunks arrive on the same FIFO transport stream as the
// OpRecreate that references them, so in-order assembly needs no timer.
func (k *Kernel) handleCkChunk(f *frame.Frame, hdr ReplayBatchHdr) bool {
	_, data, err := DecodeCkChunk(f.Body)
	if err != nil {
		k.env.Log.Add(trace.KindReplay, int(k.node), hdr.Proc.String(), "bad checkpoint chunk: %v", err)
		return true
	}
	if k.ckStage == nil {
		k.ckStage = make(map[frame.ProcID]*ckAssembly)
	}
	st := k.ckStage[hdr.Proc]
	if st == nil || st.gen != hdr.Gen {
		if hdr.Seq != 0 {
			// Mid-transfer of a generation we never saw start; the recreate
			// will fail its assembly check and the recorder will retry.
			k.stats.StaleReplayDropped++
			return true
		}
		st = &ckAssembly{gen: hdr.Gen}
		k.ckStage[hdr.Proc] = st
	}
	if hdr.Seq != st.next {
		return true // duplicate chunk
	}
	st.data = append(st.data, data...)
	st.next++
	k.charge(k.env.Costs.LinkCPU, 0)
	return true
}

// resolveCheckpoint returns the checkpoint blob an OpRecreate restores
// from: inline, or assembled from previously staged chunks.
func (k *Kernel) resolveCheckpoint(ctl *CtlMsg) ([]byte, error) {
	if ctl.CkChunks == 0 {
		return ctl.Checkpoint, nil
	}
	st := k.ckStage[ctl.Proc]
	if st == nil || st.gen != ctl.RecoveryGen || st.next != uint64(ctl.CkChunks) {
		have := uint64(0)
		if st != nil {
			have = st.next
		}
		return nil, fmt.Errorf("demos: checkpoint for %s incomplete (%d/%d chunks)", ctl.Proc, have, ctl.CkChunks)
	}
	delete(k.ckStage, ctl.Proc)
	return st.data, nil
}

// reply answers a control request over its passed reply link.
func (k *Kernel) reply(req *frame.Frame, asProc *process, r *CtlReply, pass *frame.Link) {
	if req.PassedLink == nil {
		return
	}
	from := k.KernelProc()
	if asProc != nil {
		from = asProc.id
	}
	_ = k.sendMessage(asProc, from, *req.PassedLink, EncodeReply(r), pass)
}

func replyFor(id frame.ProcID, err error) *CtlReply {
	if err != nil {
		return &CtlReply{OK: false, Err: err.Error()}
	}
	return &CtlReply{OK: true, Proc: id}
}

// controlLinkFor returns the DELIVERTOKERNEL link for a created process
// (§4.4.3: "After creating a new process the kernel returns to the
// requester a DELIVERTOKERNEL link that points to the created process").
func controlLinkFor(id frame.ProcID, err error) *frame.Link {
	if err != nil {
		return nil
	}
	return &frame.Link{To: id, Channel: ChanRequest, DeliverToKernel: true}
}

// CheckpointNow snapshots a machine process if it is quiescent (parked
// between messages) and ships the checkpoint to the recorder. It reports
// whether a checkpoint was taken.
func (k *Kernel) CheckpointNow(id frame.ProcID) (bool, error) {
	p := k.procs[id]
	if p == nil {
		return false, fmt.Errorf("demos: checkpoint: no process %s", id)
	}
	if p.machine == nil {
		return false, fmt.Errorf("demos: checkpoint: %s is not a machine", id)
	}
	if p.recovering || !k.publishingFor(p) {
		return false, nil
	}
	quiescent := p.started && !p.finished &&
		(p.state == psBlocked || (p.state == psReady && p.pendingReceiveRetry))
	if !quiescent {
		return false, nil
	}
	mb, err := p.machine.Snapshot()
	if err != nil {
		return false, fmt.Errorf("demos: snapshot %s: %w", id, err)
	}
	blob := mustGob(&checkpointImage{Machine: mb, Links: p.links.snapshot()})
	k.ckBytes.Observe(int64(len(blob)))
	kb := (len(blob) + 1023) / 1024
	k.charge(k.env.Costs.CheckpointPerKB*simtime.Time(kb), 0)
	k.stats.Checkpoints++
	p.stateKB = kb
	p.msgsSinceCk = 0
	p.bytesSinceCk = 0
	p.cpuSinceCk = 0
	p.lastCkAt = k.env.Sched.Now()
	k.env.Log.Add(trace.KindCheckpoint, int(k.node), id.String(),
		"checkpoint %d KB sendSeq=%d readCount=%d", kb, p.sendSeq, p.readCount)
	k.notify(&Notice{
		Kind:       NoticeCheckpoint,
		Proc:       id,
		Checkpoint: blob,
		SendSeq:    p.sendSeq,
		ReadCount:  p.readCount,
		StateKB:    kb,
		Queued:     p.queue.ids(),
	})
	return true, nil
}

// RecoveryLoad describes the replay debt of one process for the §3.2.3
// recovery-time bound: how much has accumulated since its last checkpoint.
type RecoveryLoad struct {
	Proc           frame.ProcID
	StateKB        int
	MsgsSinceCk    uint64
	BytesSinceCk   uint64
	CPUSinceCk     simtime.Time
	SinceCk        simtime.Time
	Bound          simtime.Time
	Checkpointable bool
}

// Loads reports the recovery debt of every local recoverable process, in
// process-id order; the checkpoint policy consumes this.
func (k *Kernel) Loads() []RecoveryLoad {
	var out []RecoveryLoad
	for id, p := range k.procs {
		if !p.spec.Recoverable {
			continue
		}
		out = append(out, RecoveryLoad{
			Proc:           id,
			StateKB:        p.stateKB,
			MsgsSinceCk:    p.msgsSinceCk,
			BytesSinceCk:   p.bytesSinceCk,
			CPUSinceCk:     p.cpuSinceCk,
			SinceCk:        k.env.Sched.Now() - p.lastCkAt,
			Bound:          p.spec.RecoveryTimeBound,
			Checkpointable: p.machine != nil,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Proc, out[j].Proc
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Local < b.Local
	})
	return out
}

package demos

import (
	"cmp"
	"fmt"
	"slices"

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

// codeReply codes a control reply.
func codeReply(c *frame.Coder, r *CtlReply) {
	c.Bool(&r.OK)
	c.Text(&r.Err)
	c.Proc(&r.Proc)
	frame.Uint(c, &r.RestartNumber)
	frame.Uint(c, &r.AckedBatch)
}

// EncodeReply encodes a control reply.
func EncodeReply(r *CtlReply) []byte {
	return frame.AppendBody(make([]byte, 0, 48+len(r.Err)), r, codeReply)
}

// DecodeReply decodes a control reply into r, every field of it.
func DecodeReply(b []byte, r *CtlReply) error { return frame.DecodeBody(b, r, codeReply) }

// checkpointImage is a full process checkpoint: the machine's
// address-space equivalent, the kernel-resident link table, and the
// acceptance marks, which the recorder trims and fences the stream by
// (CheckpointMarks).
type checkpointImage struct {
	Machine []byte
	Links   linkTable
	Marks   frame.Marks
}

// codeImage codes a checkpoint image. A decoder takes marks only in sender
// order, the order Marks keeps.
func codeImage(c *frame.Coder, img *checkpointImage) {
	c.Blob(&img.Machine)
	codeLinkTable(c, &img.Links)
	frame.Slice(c, &img.Marks)
	for i := range img.Marks {
		if c.MsgID(&img.Marks[i]); i > 0 && img.Marks[i-1].Sender.Compare(img.Marks[i].Sender) >= 0 {
			c.Fail()
		}
	}
}

// image builds p's checkpoint image, for a checkpoint and a migration alike.
func (p *process) image() ([]byte, error) {
	mb, err := p.machine.Snapshot()
	if err != nil {
		return nil, err
	}
	// Room for the lengths, the links (at most 24 bytes each) and the marks:
	// the image is built in one allocation.
	size := len(mb) + 32 + 24*len(p.links.links) + len(p.marks)*frame.MaxMsgIDLen
	return frame.AppendBody(make([]byte, 0, size), &checkpointImage{Machine: mb, Links: *p.links, Marks: p.marks}, codeImage), nil
}

// CheckpointMarks returns the acceptance marks a checkpoint image carries;
// an empty image (no checkpoint) carries none.
func CheckpointMarks(blob []byte) (frame.Marks, error) {
	if len(blob) == 0 {
		return nil, nil
	}
	var img checkpointImage
	err := frame.DecodeBody(blob, &img, codeImage)
	return img.Marks, err
}

// handleControl is the kernel process (§4.2.1): it serves process-control
// requests delivered as messages. Direct requests (To = kernel process)
// carry creation, recovery, and query operations; DELIVERTOKERNEL requests
// (To = a controlled process) carry per-process control, and everything the
// kernel does for them is attributed to the controlled process (§4.4.3).
func (k *Kernel) handleControl(f *frame.Frame) bool {
	if f.Channel == frame.ChanReplay {
		// Replay batches and checkpoint chunks are a header and records, or
		// raw chunk bytes, not control bodies (they are the recovery hot
		// path).
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
		for _, id := range k.Procs() {
			resp.Procs = append(resp.Procs, ProcReport{Proc: id, State: k.ProcState(id)})
		}
		if f.PassedLink != nil {
			_ = k.sendMessage(nil, k.KernelProc(), *f.PassedLink, EncodeQuery(resp), nil)
		}

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
// checkpoint chunks, each starting with a frame.BatchHdr.
func (k *Kernel) handleReplayFrame(f *frame.Frame) bool {
	hdr, err := frame.DecodeBatchHdr(f.Body)
	if err != nil {
		k.env.Log.Add(trace.KindReplay, int(k.node), f.From.String(), "undecodable replay frame: %v", err)
		return true
	}
	if hdr.Kind == frame.BatchCkChunk {
		return k.handleCkChunk(f, hdr)
	}
	return k.handleReplayBatch(f, hdr)
}

// handleReplayBatch pushes one replay batch's records into the recovering
// process's input queue, in order, copying no body: each record shares its
// message's body, read-only like any delivered body (Msg.Body). The record
// array is the sender's, which reuses it once this frame is acknowledged,
// so nothing here keeps it. One batch costs one receive interrupt and one
// control charge however many records it carries — that is the whole
// point.
func (k *Kernel) handleReplayBatch(f *frame.Frame, hdr frame.BatchHdr) bool {
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
	recs := f.Recs
	if uint32(len(recs)) != hdr.Count {
		k.env.Log.Add(trace.KindReplay, int(k.node), hdr.Proc.String(),
			"bad replay batch: %d records, header says %d", len(recs), hdr.Count)
		return true
	}
	detailed := k.env.Log.Detailed()
	for i := range recs {
		rec := &recs[i]
		k.stats.Replayed++
		p.marks.Note(rec.ID)
		if detailed {
			// Per-record causal event: the replayed message carries its
			// original id, tying the replay back to the pre-crash publish.
			// Emitted before the delivery it licenses, so an online
			// exactly-once monitor never counts a replay as a duplicate.
			k.env.Log.AddMsg(trace.KindReplay, int(k.node), rec.ID.String(),
				hdr.Proc.String(), "replayed from batch #%d", hdr.Seq)
		}
		m, link := RecMsg(rec)
		k.pushToQueue(p, m, link)
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

// replyBatchAck sends the cumulative batch acknowledgement for p.
func (k *Kernel) replyBatchAck(f *frame.Frame, p *process) {
	k.reply(f, nil, &CtlReply{OK: true, Proc: p.id, AckedBatch: p.replayBatch}, nil)
}

// handleCkChunk stages one chunk of a checkpoint too big for a single
// MTU-sized frame. Chunks arrive on the same FIFO transport stream as the
// OpRecreate that references them, so in-order assembly needs no timer.
func (k *Kernel) handleCkChunk(f *frame.Frame, hdr frame.BatchHdr) bool {
	_, data, err := frame.DecodeCkChunk(f.Body)
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
// between messages), ships the checkpoint to the recorder, and returns its
// image: nil when no checkpoint was taken.
func (k *Kernel) CheckpointNow(id frame.ProcID) ([]byte, error) {
	p := k.procs[id]
	if p == nil {
		return nil, fmt.Errorf("demos: checkpoint: no process %s", id)
	}
	if p.machine == nil {
		return nil, fmt.Errorf("demos: checkpoint: %s is not a machine", id)
	}
	if p.recovering || !k.publishingFor(p) {
		return nil, nil
	}
	quiescent := p.started && !p.finished &&
		(p.state == psBlocked || (p.state == psReady && p.pendingReceiveRetry))
	if !quiescent {
		return nil, nil
	}
	blob, err := p.image()
	if err != nil {
		return nil, fmt.Errorf("demos: snapshot %s: %w", id, err)
	}
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
	return blob, nil
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

// AppendLoads appends the recovery debt of every local recoverable process
// to dst, in process-id order, and returns the extended slice; the
// checkpoint policy consumes it on every tick, into a buffer it keeps.
func (k *Kernel) AppendLoads(dst []RecoveryLoad) []RecoveryLoad {
	start := len(dst)
	for id, p := range k.procs { //det:ok sorted by process id below
		if !p.spec.Recoverable {
			continue
		}
		dst = append(dst, RecoveryLoad{
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
	slices.SortFunc(dst[start:], func(a, b RecoveryLoad) int {
		if c := cmp.Compare(a.Proc.Node, b.Proc.Node); c != 0 {
			return c
		}
		return cmp.Compare(a.Proc.Local, b.Proc.Local)
	})
	return dst
}

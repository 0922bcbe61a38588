package demos

import (
	"publishing/internal/frame"
	"publishing/internal/trace"
)

// Watchdog ping bodies (unguaranteed frames to a node's kernel process).
var (
	// PingBody asks a kernel process "are you alive" (§4.6).
	PingBody = []byte{0x01}
	// PongBody is the reply.
	PongBody = []byte{0x02}
)

// RouteUpdateTag prefixes route-update broadcast bodies: best-effort
// notifications that a process now lives on a different node (recovery on a
// spare processor, §3.3.3 / migration per Powell & Miller).
const RouteUpdateTag = 0x03

type routeUpdateBody struct {
	Proc frame.ProcID
	Node frame.NodeID
}

// EncodeRouteUpdate builds a route-update broadcast body.
func EncodeRouteUpdate(p frame.ProcID, n frame.NodeID) []byte {
	return append([]byte{RouteUpdateTag}, mustGob(&routeUpdateBody{Proc: p, Node: n})...)
}

// DecodeRouteUpdate parses a route-update body (including the tag byte).
func DecodeRouteUpdate(b []byte) (frame.ProcID, frame.NodeID, bool) {
	if len(b) < 2 || b[0] != RouteUpdateTag {
		return frame.NilProc, 0, false
	}
	var u routeUpdateBody
	if gobInto(b[1:], &u) != nil {
		return frame.NilProc, 0, false
	}
	return u.Proc, u.Node, true
}

// doSend implements the send kernel call.
func (k *Kernel) doSend(p *process, req callReq) error {
	costs := &k.env.Costs
	l, ok := p.links.get(req.link)
	if !ok {
		k.charge(costs.LinkCPU, costs.UserPerCall)
		return ErrBadLink
	}
	var pass *frame.Link
	if req.pass != NoLink {
		pl, ok := p.links.remove(req.pass)
		if !ok {
			k.charge(costs.LinkCPU, costs.UserPerCall)
			return ErrBadLink
		}
		pass = &pl
	}
	return k.sendMessage(p, p.id, l, req.body, pass)
}

// sendMessage sends one message. counter owns the sequence numbers and
// suppression state: it is the sending process itself, or — when the kernel
// process acts on a process's behalf (§4.4.3) — the impersonated process.
// counter == nil means the kernel process sends as itself (notices,
// replies to direct requests); its ids are salted with the boot epoch since
// it is not recovered by replay.
func (k *Kernel) sendMessage(counter *process, from frame.ProcID, l frame.Link, body []byte, pass *frame.Link) error {
	costs := &k.env.Costs
	var seq uint64
	if counter != nil {
		counter.sendSeq++
		seq = counter.sendSeq
		if seq <= counter.suppressThrough {
			// Re-execution resending a pre-crash message: squelch (§3.3.3
			// "ignoring any messages sent by the recovering process that had
			// been sent by the original process").
			k.stats.Suppressed++
			k.charge(costs.SendCPU, costs.UserPerCall)
			if k.env.Log.Enabled() {
				k.env.Log.Add(trace.KindSuppress, int(k.node), from.String(),
					"suppressed resend #%d (<= %d)", seq, counter.suppressThrough)
			}
			return nil
		}
	} else {
		k.kpSendSeq++
		seq = uint64(k.bootEpoch)<<40 | k.kpSendSeq
	}

	dstNode := k.locate(l.To)
	f := &frame.Frame{
		Type:            frame.Guaranteed,
		Dst:             dstNode,
		ID:              frame.MsgID{Sender: from, Seq: seq},
		From:            from,
		To:              l.To,
		Channel:         l.Channel,
		Code:            l.Code,
		DeliverToKernel: l.DeliverToKernel,
		PassedLink:      pass,
		Body:            body,
	}
	k.stats.MsgsSent++

	if k.emitFilter != nil && k.emitFilter(f) {
		// Sandbox consumed the frame (debugger output capture).
		k.charge(costs.SendCPU, costs.UserPerCall)
		return nil
	}

	if dstNode == k.node && !k.mustPublish(counter, l.To) {
		// Intranode fast path: no network involvement. With publishing this
		// path survives only for messages no recoverable process depends on
		// (the §6.6.1 optimization); otherwise §4.4.1 forces the wire.
		k.stats.MsgsLocal++
		k.charge(costs.SendCPU, costs.UserPerCall)
		k.enqueueFrame(f)
		return nil
	}

	cost := costs.SendCPU + costs.NetSendCPU
	k.charge(cost, costs.UserPerCall)
	// The frame reaches the wire when the CPU work completes.
	epoch := k.bootEpoch
	k.env.Sched.After(cost+costs.UserPerCall, func() {
		if k.bootEpoch != epoch || k.crashed {
			return
		}
		// The frame was built fresh above and nothing here touches it after
		// the endpoint takes it, so hand over ownership and skip the clone.
		k.ep.SendGuaranteedOwned(f)
	})
	if k.env.Log.Enabled() {
		id := f.ID.String()
		k.env.Log.AddMsg(trace.KindSend, int(k.node), id, id, "%s", f)
	}
	return nil
}

// mustPublish decides whether an intranode message must take the network so
// the recorder can store it: yes if the sender's stream is published (its
// last-sent id must stay current) or the local receiver's stream is.
func (k *Kernel) mustPublish(counter *process, to frame.ProcID) bool {
	if !k.env.Publishing || k.env.RecorderProc.IsNil() {
		return false
	}
	if counter != nil && counter.spec.Recoverable {
		return true
	}
	if rcv := k.procs[to]; rcv != nil && rcv.spec.Recoverable {
		return true
	}
	return false
}

// notify sends a bookkeeping notice to the recording software (§4.5).
func (k *Kernel) notify(n *Notice) {
	if k.env.RecorderProc.IsNil() {
		return
	}
	l := frame.Link{To: k.env.RecorderProc, Channel: ChanRequest}
	_ = k.sendMessage(nil, k.KernelProc(), l, EncodeNotice(n), nil)
}

// deliverFrame is the transport upcall for frames accepted end-to-end.
// Returning false refuses the frame (no ack; the sender retries).
func (k *Kernel) deliverFrame(f *frame.Frame) bool {
	if k.crashed {
		return false
	}
	if f.Type == frame.Unguaranteed {
		k.handleUnguaranteed(f)
		return true
	}
	// Receive-side protocol and interrupt servicing (§5.2.1).
	k.charge(k.env.Costs.NetRecvCPU, 0)
	return k.enqueueFrame(f)
}

// enqueueFrame routes an accepted frame to its target: the kernel process
// (control), a local process queue, or onward to a migrated process.
func (k *Kernel) enqueueFrame(f *frame.Frame) bool {
	if f.DeliverToKernel || f.To.Local == 0 {
		// DELIVERTOKERNEL messages and messages to the kernel process are
		// handled by the kernel process itself (§4.4.3).
		return k.handleControl(f)
	}
	p := k.procs[f.To]
	if p == nil {
		if n := k.locate(f.To); n != k.node {
			// The process migrated or was recovered elsewhere; forward
			// (§3.3.3 discusses exactly this forwarding duty).
			k.stats.MsgsForwarded++
			g := f.Clone()
			g.Dst = n
			k.ep.SendGuaranteedOwned(g)
			return true
		}
		// Unknown here: the process may be dead, or this node just
		// rebooted and the process awaits recovery — the kernel cannot
		// tell. Refuse (no ack): retransmission delivers after recovery
		// recreates the process, and retry exhaustion bounds the cost of
		// the truly-dead case.
		k.stats.MsgsDiscarded++
		return false
	}
	if p.state == psCrashed || p.recovering {
		// §3.3.3: direct messages to a crashed or recovering process are
		// not consumed; refusing them (no ack) makes the sender retransmit
		// until recovery completes, while the recorder already has its copy.
		k.stats.MsgsRefused++
		return false
	}
	if p.replayed[f.ID] {
		// The recovery already replayed this message; the direct copy is a
		// retransmission whose ack the sender never saw. Consume it (ack)
		// without delivering, or the process would see it twice.
		k.stats.ReplayDupsDropped++
		k.env.Log.AddMsg(trace.KindReplay, int(k.node), f.ID.String(), p.id.String(), "late direct copy of replayed message dropped")
		return true
	}
	k.pushToQueue(p, Msg{ID: f.ID, From: f.From, Channel: f.Channel, Code: f.Code, Body: f.Body}, f.PassedLink)
	return true
}

// pushToQueue appends a message to a process's input queue and wakes a
// matching blocked receive.
func (k *Kernel) pushToQueue(p *process, m Msg, link *frame.Link) {
	p.queue.push(m, link)
	p.msgsSinceCk++
	p.bytesSinceCk += uint64(len(m.Body))
	k.stats.MsgsDelivered++
	k.qDepth.Add(1)
	if k.env.Log.Enabled() {
		k.env.Log.AddMsg(trace.KindDeliver, int(k.node), m.ID.String(), p.id.String(), "queued ch=%d", m.Channel)
	}
	if p.state == psBlocked && p.queue.anyMatch(p.want) {
		p.state = psReady
		k.wake(p)
	}
}

// handleUnguaranteed serves best-effort traffic: watchdog pings for the
// kernel process, plain delivery for everything else.
func (k *Kernel) handleUnguaranteed(f *frame.Frame) {
	if len(f.Body) > 0 && f.Body[0] == RouteUpdateTag {
		if p, n, ok := DecodeRouteUpdate(f.Body); ok {
			k.SetRoute(p, n)
		}
		return
	}
	if f.To.Node == k.node && f.To.Local == 0 {
		if len(f.Body) > 0 && f.Body[0] == PingBody[0] {
			k.ep.SendUnguaranteed(&frame.Frame{
				Dst:  f.Src,
				From: k.KernelProc(),
				To:   f.From,
				Body: PongBody,
			})
		}
		return
	}
	if p := k.procs[f.To]; p != nil && p.state != psCrashed && !p.recovering {
		body, link := f.Body, f.PassedLink
		if f.Dst == frame.Broadcast {
			// Broadcast frames are shared read-only views (lan.Station
			// contract); the queue retains the body and link, so copy them.
			body = append([]byte(nil), body...)
			if link != nil {
				l := *link
				link = &l
			}
		}
		k.pushToQueue(p, Msg{ID: f.ID, From: f.From, Channel: f.Channel, Code: f.Code, Body: body}, link)
	}
}

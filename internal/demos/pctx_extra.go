package demos

import (
	"errors"
	"fmt"

	"publishing/internal/frame"
)

// ErrNoService is returned for unknown well-known services.
var ErrNoService = errors.New("demos: no such service")

// ServiceLink mints a link to a well-known system service ("procmgr",
// "namesvc", ...). It is the kernel-granted initial-link rendezvous of
// §4.2.2.1 in shortcut form: DEMOS solved rendezvous with a named-link
// server every system process got an initial link to; here the kernel vends
// those links directly.
func (c *PCtx) ServiceLink(name string) (LinkID, error) {
	r := c.call(callReq{op: opServiceLink, name: name})
	return r.lid, r.err
}

// KernelLink mints a link to a node's kernel process. Only system processes
// (the memory scheduler) have a legitimate use for it; in DEMOS these links
// were installed by the kernel at system start (§4.3.2: "the memory
// scheduler maintains a link to the kernel process of each node").
func (c *PCtx) KernelLink(node frame.NodeID) LinkID {
	r := c.call(callReq{op: opKernelLink, code: uint32(int32(node))})
	return r.lid
}

// Request performs a blocking request/reply exchange: it creates a reply
// link on replyChannel with the given code, passes it in the request, and
// waits for the answer. Program-style processes only (machines must not
// block inside Handle).
func (c *PCtx) Request(target LinkID, body []byte, replyChannel uint16, code uint32) Msg {
	rl := c.CreateLink(replyChannel, code)
	if err := c.Send(target, body, rl); err != nil {
		panic(fmt.Sprintf("demos: request send failed: %v", err))
	}
	return c.Receive(replyChannel)
}

// CreateProcess asks the process-control system (via a process-manager
// link) to create a process, optionally on a specific node (Broadcast:
// requester's node). It returns the new process's id and a DELIVERTOKERNEL
// control link for it.
func (c *PCtx) CreateProcess(procMgr LinkID, spec ProcSpec, node frame.NodeID) (frame.ProcID, LinkID, error) {
	req := &CtlMsg{Op: OpCreate, Spec: spec, TargetNode: node}
	m := c.Request(procMgr, EncodeCtl(req), ChanReply, 0)
	var r CtlReply
	if err := DecodeReply(m.Body, &r); err != nil {
		return frame.NilProc, NoLink, err
	}
	if !r.OK {
		return frame.NilProc, NoLink, errors.New(r.Err)
	}
	return r.Proc, m.Link, nil
}

// DestroyProcess destroys a process through its control link and waits for
// the kernel's confirmation.
func (c *PCtx) DestroyProcess(ctl LinkID) error {
	m := c.Request(ctl, EncodeCtl(&CtlMsg{Op: OpDestroy}), ChanReply, 0)
	var r CtlReply
	if err := DecodeReply(m.Body, &r); err != nil {
		return err
	}
	if !r.OK {
		return errors.New(r.Err)
	}
	return nil
}

// MoveLink moves the link with id pass into the process behind ctl (the
// Fig 4.4/4.5 MOVELINK operation, routed DELIVERTOKERNEL).
func (c *PCtx) MoveLink(ctl LinkID, pass LinkID) error {
	return c.Send(ctl, EncodeCtl(&CtlMsg{Op: OpMoveLink}), pass)
}

// StopProcess suspends the process behind ctl.
func (c *PCtx) StopProcess(ctl LinkID) error {
	return c.Send(ctl, EncodeCtl(&CtlMsg{Op: OpStop}), NoLink)
}

// StartProcess resumes the process behind ctl.
func (c *PCtx) StartProcess(ctl LinkID) error {
	return c.Send(ctl, EncodeCtl(&CtlMsg{Op: OpStart}), NoLink)
}

// RequestCheckpoint asks the kernel to checkpoint the process behind ctl at
// its next quiescent point.
func (c *PCtx) RequestCheckpoint(ctl LinkID) error {
	return c.Send(ctl, EncodeCtl(&CtlMsg{Op: OpCheckpoint}), NoLink)
}

package demos

import (
	"publishing/internal/frame"
)

// This file implements the DEMOS process-control system processes (§4.2.3):
// "The process control system of DEMOS consists of three processes: the
// kernel process, the memory scheduler, and the process manager. ... The
// three processes are connected serially." The kernel process lives in
// kernelproc.go; the other two are ordinary recoverable machines here, which
// means the control plane itself is covered by published communications —
// the property the MOVELINK discussion of §4.4.3 is all about.
//
// Request flow for process creation (4 messages + reply):
//
//	user --> process manager --> memory scheduler --> kernel process --> user
//
// The user's reply link travels with the request (moved from table to table
// at each hop) and the kernel process answers over it directly.

// SysProcMgr and SysMemSched are the registry names of the system images.
const (
	SysProcMgr  = "sys/procmgr"
	SysMemSched = "sys/memsched"
	SysNameSvc  = "sys/namesvc"
)

// RegisterSystemImages installs the system process factories into a
// registry. Every node registry used in a cluster must call this.
func RegisterSystemImages(r *Registry) {
	r.RegisterMachine(SysProcMgr, func(args []byte) Machine { return &ProcMgr{} })
	r.RegisterMachine(SysMemSched, func(args []byte) Machine { return &MemSched{} })
	r.RegisterMachine(SysNameSvc, func(args []byte) Machine { return NewNameSvc() })
}

// ProcMgr is the process manager: the entry point for all user-level
// process control. It maintains jobs (per-user process groups) and passes
// requests down to the memory scheduler.
type ProcMgr struct {
	st procMgrState
}

type procMgrState struct {
	MemSched LinkID
	Requests uint64
}

func codeProcMgr(c *frame.Coder, st *procMgrState) {
	frame.Int(c, &st.MemSched)
	frame.Uint(c, &st.Requests)
}

// Init obtains the memory scheduler link.
func (m *ProcMgr) Init(ctx *PCtx) {
	lid, err := ctx.ServiceLink("memsched")
	if err != nil {
		panic(err)
	}
	m.st.MemSched = lid
}

// Handle forwards control requests toward the memory scheduler, moving the
// requester's reply link along.
func (m *ProcMgr) Handle(ctx *PCtx, msg Msg) {
	ctl, err := DecodeCtl(msg.Body)
	if err != nil {
		return // not a control request; ignore
	}
	m.st.Requests++
	switch ctl.Op {
	case OpCreate:
		if ctl.TargetNode == frame.Broadcast {
			// "the memory scheduler chooses the node from which the request
			// came" (§4.3.2) — record the requester so it can.
			ctl.TargetNode = msg.From.Node
		}
		_ = ctx.Send(m.st.MemSched, EncodeCtl(ctl), msg.Link)
	default:
		// Other operations go straight to control links; nothing to do.
	}
}

// Snapshot serializes the manager state.
func (m *ProcMgr) Snapshot() ([]byte, error) { return frame.AppendBody(nil, &m.st, codeProcMgr), nil }

// Restore replaces the manager state.
func (m *ProcMgr) Restore(b []byte) error { return frame.DecodeBody(b, &m.st, codeProcMgr) }

// MemSched is the memory scheduler: it owns links to every node's kernel
// process and places new processes (§4.3.2).
type MemSched struct {
	st memSchedState
}

type memSchedState struct {
	// Kernels maps node -> link id for that node's kernel process.
	Kernels map[int32]LinkID
	Placed  uint64
}

func codeMemSched(c *frame.Coder, st *memSchedState) {
	frame.Map(c, &st.Kernels, frame.Int[int32], frame.Int[LinkID])
	frame.Uint(c, &st.Placed)
}

// Init starts with an empty kernel-link cache; links are minted on demand.
func (m *MemSched) Init(ctx *PCtx) {
	m.st.Kernels = make(map[int32]LinkID)
}

// Handle places create requests on their target node's kernel process.
func (m *MemSched) Handle(ctx *PCtx, msg Msg) {
	ctl, err := DecodeCtl(msg.Body)
	if err != nil {
		return
	}
	if ctl.Op != OpCreate {
		return
	}
	node := ctl.TargetNode
	lid, ok := m.st.Kernels[int32(node)]
	if !ok {
		lid = ctx.KernelLink(node)
		m.st.Kernels[int32(node)] = lid
	}
	m.st.Placed++
	_ = ctx.Send(lid, EncodeCtl(ctl), msg.Link)
}

// Snapshot serializes the scheduler state.
func (m *MemSched) Snapshot() ([]byte, error) { return frame.AppendBody(nil, &m.st, codeMemSched), nil }

// Restore replaces the scheduler state.
func (m *MemSched) Restore(b []byte) error { return frame.DecodeBody(b, &m.st, codeMemSched) }

// NameSvc is the named-link server (§4.2.2.1): processes register links
// under names; others look them up. Because links move rather than copy,
// the server hands out one registered link per lookup.
type NameSvc struct {
	st nameSvcState
}

type nameSvcState struct {
	// Names maps a name to the link ids of registered (deposited) links.
	Names map[string][]LinkID
}

func codeNameSvc(c *frame.Coder, st *nameSvcState) {
	frame.Map(c, &st.Names, (*frame.Coder).Text, func(c *frame.Coder, ids *[]LinkID) {
		frame.Slice(c, ids)
		for i := range *ids {
			frame.Int(c, &(*ids)[i])
		}
	})
}

// NewNameSvc returns an empty name server.
func NewNameSvc() *NameSvc {
	return &NameSvc{st: nameSvcState{Names: make(map[string][]LinkID)}}
}

// NameReq is the body of name-server requests.
type NameReq struct {
	// Register (true) deposits the passed link under Name; otherwise the
	// request is a lookup and the reply returns one deposited link.
	Register bool
	Name     string
}

func codeNameReq(c *frame.Coder, r *NameReq) {
	c.Bool(&r.Register)
	c.Text(&r.Name)
}

// EncodeNameReq encodes a name request.
func EncodeNameReq(r *NameReq) []byte { return frame.AppendBody(nil, r, codeNameReq) }

// DecodeNameReq decodes a name request.
func DecodeNameReq(b []byte) (*NameReq, error) {
	r := new(NameReq)
	return r, frame.DecodeBody(b, r, codeNameReq)
}

// Init is a no-op; state was built by the factory.
func (n *NameSvc) Init(ctx *PCtx) {}

// Handle serves register and lookup requests.
func (n *NameSvc) Handle(ctx *PCtx, msg Msg) {
	req, err := DecodeNameReq(msg.Body)
	if err != nil {
		return
	}
	if req.Register {
		if msg.Link != NoLink {
			n.st.Names[req.Name] = append(n.st.Names[req.Name], msg.Link)
		}
		return
	}
	// Lookup: reply over the passed reply link with one deposited link.
	if msg.Link == NoLink {
		return
	}
	var pass = NoLink
	if q := n.st.Names[req.Name]; len(q) > 0 {
		pass = q[0]
		n.st.Names[req.Name] = q[1:]
	}
	_ = ctx.Send(msg.Link, []byte(req.Name), pass)
}

// Snapshot serializes the name table.
func (n *NameSvc) Snapshot() ([]byte, error) { return frame.AppendBody(nil, &n.st, codeNameSvc), nil }

// Restore replaces the name table.
func (n *NameSvc) Restore(b []byte) error { return frame.DecodeBody(b, &n.st, codeNameSvc) }

// Package demos reimplements the DEMOS/MP message kernel of Chapter 4: a
// message-based operating system in which processes name each other only
// through links (capabilities), receive selectively through channels, and
// are controlled through messages to per-node kernel processes. The package
// also implements the changes Chapter 4 makes to support published
// communications: intranode messages are broadcast on the network before
// delivery (§4.4.1), out-of-order channel reads are advised to the recorder
// (§4.4.2), and process control flows through DELIVERTOKERNEL links so that
// every interaction is a recordable message (§4.4.3).
//
// Processes are ordinary Go code run on goroutines, but the kernels step
// them one at a time under a virtual clock — precisely the deterministic
// round-robin scheduler of §6.6.2 — so the whole cluster is deterministic
// and processes are "deterministic upon their input interactions" (§1.1.1),
// the property transparent recovery rests on.
package demos

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"publishing/internal/frame"
	"publishing/internal/gobx"
	"publishing/internal/simtime"
)

// LinkID is a process's handle on a link in its kernel-resident link table
// (§4.2.2.1: "The process always refers to a link via a link id").
type LinkID int32

// NoLink is the absent-link sentinel.
const NoLink LinkID = -1

// Msg is a received message as seen by a process.
type Msg struct {
	// ID is the unique message identifier.
	ID frame.MsgID
	// From is the sending process (or the process the kernel impersonated).
	From frame.ProcID
	// Channel is the channel of the link the message was sent over.
	Channel uint16
	// Code is the code of the link the message was sent over (§4.2.2.1).
	Code uint32
	// Body is the uninterpreted payload.
	Body []byte
	// Link is the id, in the receiver's table, of the link passed in the
	// message, or NoLink.
	Link LinkID
}

// ProcSpec names the "binary image" a process is created from: a factory
// registered in a Registry plus creation arguments. The recorder stores the
// spec as the initial checkpoint (§3.3.1: "The first checkpoint for a
// process is the binary image from which the process is created").
type ProcSpec struct {
	// Name selects a registered program or machine factory.
	Name string
	// Args is passed to the process (its argv).
	Args []byte
	// Recoverable marks the process for publishing and recovery. Setting it
	// false is the §6.6.1 optimization: the recorder keeps no stream for the
	// process and it is simply gone after a crash.
	Recoverable bool
	// RecoveryTimeBound, when positive, asks the checkpoint policy to keep
	// the process's worst-case recovery time under this bound (§3.2.3).
	RecoveryTimeBound simtime.Time
	// InitialLink, when set, is installed as the new process's first link —
	// the rendezvous mechanism of §4.2.2.1 ("the creating process may
	// insert a number of initial links into the new process's link table").
	InitialLink frame.Link
}

// Program is a function-style process: arbitrary sequential code making
// kernel calls through ctx. Programs cannot be checkpointed; they recover by
// re-execution from their initial state against the published messages —
// exactly what the thesis's DEMOS/MP implementation shipped (Ch. 4 intro).
type Program func(ctx *PCtx)

// Machine is a state-machine-style process: one message handled at a time,
// with an explicit, serializable state. Machines support real checkpoints
// (§3.3.1): the kernel snapshots them between messages.
type Machine interface {
	// Init runs when the process starts fresh. It is skipped when the
	// process is restored from a checkpoint.
	Init(ctx *PCtx)
	// Handle processes one received message.
	Handle(ctx *PCtx, m Msg)
	// Snapshot serializes the machine state.
	Snapshot() ([]byte, error)
	// Restore replaces the machine state from a snapshot.
	Restore(b []byte) error
}

// Registry maps spec names to factories — the "file system" holding binary
// images. It must be identical on every node (and on the recorder) for
// recovery to restart processes anywhere.
type Registry struct {
	programs map[string]func(args []byte) Program
	machines map[string]func(args []byte) Machine
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		programs: make(map[string]func(args []byte) Program),
		machines: make(map[string]func(args []byte) Machine),
	}
}

// RegisterProgram registers a function-style process image.
func (r *Registry) RegisterProgram(name string, f func(args []byte) Program) {
	if _, dup := r.programs[name]; dup {
		panic("demos: duplicate program " + name)
	}
	if _, dup := r.machines[name]; dup {
		panic("demos: name registered as machine: " + name)
	}
	r.programs[name] = f
}

// RegisterMachine registers a machine-style process image.
func (r *Registry) RegisterMachine(name string, f func(args []byte) Machine) {
	if _, dup := r.machines[name]; dup {
		panic("demos: duplicate machine " + name)
	}
	if _, dup := r.programs[name]; dup {
		panic("demos: name registered as program: " + name)
	}
	r.machines[name] = f
}

// Has reports whether name is registered.
func (r *Registry) Has(name string) bool {
	_, p := r.programs[name]
	_, m := r.machines[name]
	return p || m
}

// Costs is the virtual CPU cost table of kernel operations, calibrated so
// that the Chapter 5 measurements of the simulation reproduce the paper's
// VAX 11/750 numbers (see EXPERIMENTS.md for the calibration): per intranode
// message without publishing, real−cpu = 1 ms and kernel cpu = 3 ms; adding
// publishing costs 26 ms of protocol/interrupt CPU per message plus ~2 ms of
// network transmission.
type Costs struct {
	// SendCPU is the kernel time for any send call (queueing, link checks).
	SendCPU simtime.Time
	// ReceiveCPU is the kernel time for a receive call.
	ReceiveCPU simtime.Time
	// LinkCPU is the kernel time for link create/destroy calls.
	LinkCPU simtime.Time
	// UserPerCall is the user-mode time charged per kernel call (the
	// process's own execution between calls).
	UserPerCall simtime.Time
	// NetSendCPU is the added protocol + interrupt CPU to transmit a
	// message on the network (the dominant cost of publishing, §5.2.1).
	NetSendCPU simtime.Time
	// NetRecvCPU is the receive-side protocol + interrupt CPU.
	NetRecvCPU simtime.Time
	// CreateCPU and DestroyCPU are kernel-process table work.
	CreateCPU  simtime.Time
	DestroyCPU simtime.Time
	// CheckpointPerKB is the CPU to serialize 1 KB of checkpoint state.
	CheckpointPerKB simtime.Time
}

// DefaultCosts returns the calibrated table.
func DefaultCosts() Costs {
	return Costs{
		SendCPU:         2 * simtime.Millisecond,
		ReceiveCPU:      1 * simtime.Millisecond,
		LinkCPU:         100 * simtime.Microsecond,
		UserPerCall:     500 * simtime.Microsecond,
		NetSendCPU:      13 * simtime.Millisecond,
		NetRecvCPU:      13 * simtime.Millisecond,
		CreateCPU:       4 * simtime.Millisecond,
		DestroyCPU:      2 * simtime.Millisecond,
		CheckpointPerKB: 100 * simtime.Microsecond,
	}
}

// ZeroCosts returns a free cost table (used by logic-only tests where
// virtual time is irrelevant).
func ZeroCosts() Costs { return Costs{} }

// Channel numbers with conventional meanings. User code may use any values;
// these are just the defaults the system processes use.
const (
	// ChanRequest is the default request channel.
	ChanRequest uint16 = 0
	// ChanReply is the conventional reply channel.
	ChanReply uint16 = 1
	// ChanUrgent is read preferentially by system processes.
	ChanUrgent uint16 = 15
)

// --- Control-plane message bodies -----------------------------------------
//
// Process control requests and the recorder's bookkeeping notices travel as
// ordinary message bodies, gob-encoded. Gob keeps the control plane honest:
// everything really is "just a message" (§4.4.3).

// CtlOp enumerates kernel-process operations.
type CtlOp uint8

const (
	// OpCreate asks a node's kernel process to create a process.
	OpCreate CtlOp = iota + 1
	// OpRecreate restarts a (possibly dead) process for recovery (§4.7). If
	// the process exists it is destroyed first.
	OpRecreate
	// OpDestroy destroys a process (sent over its DELIVERTOKERNEL link).
	OpDestroy
	// OpMoveLink moves a link into the controlled process's table (the
	// Fig 4.5 flow).
	OpMoveLink
	// OpStop and OpStart suspend/resume the controlled process.
	OpStop
	OpStart
	// OpReplayMsg injects one published message into a recovering process's
	// queue (the recovery process's special call of §4.7).
	OpReplayMsg
	// OpRecoveryDone tells the kernel the process has received its last
	// replayed message and may accept direct traffic again.
	OpRecoveryDone
	// OpQueryProcs asks a node kernel which processes it is running and in
	// what state (the recorder's restart protocol, §3.3.4).
	OpQueryProcs
	// OpCheckpoint asks the kernel to checkpoint the controlled process now.
	OpCheckpoint
)

// CtlMsg is the body of every control-plane message.
type CtlMsg struct {
	Op CtlOp

	// Create/Recreate.
	Spec ProcSpec
	// TargetNode asks the memory scheduler to place the new process on a
	// specific node (§4.3.2); Broadcast means "requester's node".
	TargetNode frame.NodeID
	// Proc is the subject process (Recreate, Replay, QueryProcs responses).
	Proc frame.ProcID
	// FirstSendSeq is the sequence the process's first send will get after
	// recovery (§4.7); equivalently, its restored send counter is
	// FirstSendSeq-1.
	FirstSendSeq uint64
	// LastSentSeq is the id of the last message the process sent before the
	// crash; sends at or below it are suppressed during re-execution.
	LastSentSeq uint64
	// Checkpoint is the machine snapshot to restore from (nil: restart from
	// the initial image).
	Checkpoint []byte
	// CkChunks, when nonzero, says the checkpoint was shipped ahead of this
	// recreate as that many ChanReplay chunk frames (it was too big for one
	// MTU-sized frame); the kernel assembles it from its staging area.
	CkChunks uint32
	// ReadCount is the number of messages the process had read at the time
	// of the checkpoint.
	ReadCount uint64
	// RecoveryGen stamps recovery traffic (Recreate, RecoveryDone) with the
	// recorder's attempt generation, so a kernel can drop frames from an
	// abandoned attempt after a recursive crash (§3.5).
	RecoveryGen uint64

	// Replayed message (OpReplayMsg).
	ReplayID      frame.MsgID
	ReplayFrom    frame.ProcID
	ReplayChannel uint16
	ReplayCode    uint32
	ReplayBody    []byte
	ReplayLink    *frame.Link

	// RestartNumber stamps recorder restart-protocol traffic so responses
	// to stale queries are ignored (§3.4).
	RestartNumber uint64

	// MoveLink payloads move through PassedLink on the wire, not here.
}

// ProcState is a process's externally visible condition, as reported to the
// recorder's restart queries (§3.3.4).
type ProcState uint8

const (
	// StateUnknown: the node has never heard of the process.
	StateUnknown ProcState = iota
	// StateFunctioning: running normally.
	StateFunctioning
	// StateCrashed: halted on a detected fault, awaiting recovery.
	StateCrashed
	// StateRecovering: being replayed.
	StateRecovering
)

var procStateNames = [...]string{"unknown", "functioning", "crashed", "recovering"}

func (s ProcState) String() string {
	if int(s) < len(procStateNames) {
		return procStateNames[s]
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// QueryResponse is the body of a node's answer to OpQueryProcs.
type QueryResponse struct {
	RestartNumber uint64
	Node          frame.NodeID
	Procs         []ProcReport
}

// ProcReport is one process's state in a QueryResponse.
type ProcReport struct {
	Proc  frame.ProcID
	State ProcState
}

// Notice is the body of the kernel's bookkeeping messages to the recorder:
// process creations and destructions (§4.5), out-of-order read advisories
// (§4.4.2), checkpoints, and migrations.
type Notice struct {
	Kind NoticeKind
	Proc frame.ProcID
	// Node is the destination of a migration (NoticeMigrated).
	Node frame.NodeID

	// Creation.
	Spec ProcSpec

	// Read-order advisory: the process read ReadID while HeadID was at the
	// head of its queue.
	ReadID frame.MsgID
	HeadID frame.MsgID

	// Checkpoint.
	Checkpoint []byte
	SendSeq    uint64
	ReadCount  uint64
	StateKB    int
	// Queued lists the ids of messages in the process's input queue at the
	// checkpoint instant, in queue order — exactly the messages a recovery
	// from this checkpoint must replay first. The recorder trims its stream
	// to this set, which stays correct even for a recorder that missed
	// traffic while it was down (§6.3 catch-up).
	Queued []frame.MsgID
}

// NoticeKind discriminates Notice bodies.
type NoticeKind uint8

const (
	NoticeCreated NoticeKind = iota + 1
	NoticeDestroyed
	NoticeReadOrder
	NoticeCheckpoint
	NoticeCrashed // single-process fault trap (§3.3.2)
	// NoticeMigrated reports that the process now lives on Notice.Node —
	// the §7.1 integration of publishing with Powell & Miller migration.
	NoticeMigrated
)

// Notices ride on every published message's arrival, controls on every
// recovery step and a reply on every replay batch, so these bodies go
// through cached gobx codecs: the wire bytes stay exactly the one-shot gob
// streams they have always been, but the per-call type-descriptor and
// decode-engine work is amortized away.
var (
	ctlCodec    gobx.Codec[CtlMsg]
	noticeCodec gobx.Codec[Notice]
	replyCodec  gobx.Codec[CtlReply]
)

// mustEncode is mustGob through a cached codec.
func mustEncode[T any](c *gobx.Codec[T], v *T) []byte {
	b, err := c.Encode(nil, v)
	if err != nil {
		panic(fmt.Sprintf("demos: gob encode: %v", err))
	}
	return b
}

// EncodeCtl gob-encodes a control body.
func EncodeCtl(m *CtlMsg) []byte { return mustEncode(&ctlCodec, m) }

// DecodeCtl decodes a control body.
func DecodeCtl(b []byte) (*CtlMsg, error) {
	var m CtlMsg
	if err := ctlCodec.Decode(b, &m); err != nil {
		return nil, fmt.Errorf("demos: bad control message: %w", err)
	}
	return &m, nil
}

// EncodeNotice gob-encodes a recorder notice.
func EncodeNotice(n *Notice) []byte { return mustEncode(&noticeCodec, n) }

// DecodeNotice decodes a recorder notice.
func DecodeNotice(b []byte) (*Notice, error) {
	var n Notice
	if err := noticeCodec.Decode(b, &n); err != nil {
		return nil, fmt.Errorf("demos: bad notice: %w", err)
	}
	return &n, nil
}

// EncodeQuery gob-encodes a query response.
func EncodeQuery(q *QueryResponse) []byte { return mustGob(q) }

// DecodeQuery decodes a query response.
func DecodeQuery(b []byte) (*QueryResponse, error) {
	var q QueryResponse
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&q); err != nil {
		return nil, fmt.Errorf("demos: bad query response: %w", err)
	}
	return &q, nil
}

func mustGob(v any) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		panic(fmt.Sprintf("demos: gob encode: %v", err))
	}
	return buf.Bytes()
}

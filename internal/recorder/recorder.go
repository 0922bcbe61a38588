// Package recorder implements the paper's central contribution: the passive
// recorder of published communications (§3.3, §4.5) and its recovery
// manager (§3.3.3, §4.6–4.7).
//
// The recorder attaches to the broadcast medium as a tap and stores every
// guaranteed message; overheard end-to-end acknowledgements tell it the
// order in which messages were accepted at each destination (§4.4.1). Node
// kernels send it bookkeeping notices — process creation/destruction,
// out-of-order channel reads (§4.4.2), checkpoints, and fault traps — as
// ordinary published messages. Watchdogs detect processor crashes by
// timeout (§3.3.2, §4.6). A recovery process per crashed process recreates
// it from its last checkpoint (or initial image), replays its published
// messages in their original read order, and tells the kernel when direct
// traffic may resume (§3.3.3, §4.7). The recorder itself recovers from
// crashes by rebuilding its database from stable storage and running the
// §3.3.4 restart protocol, with restart numbers guarding against recursive
// crashes (§3.4).
package recorder

import (
	"bytes"
	"encoding/gob"
	"slices"

	"publishing/internal/demos"
	"publishing/internal/frame"
	"publishing/internal/lan"
	"publishing/internal/metrics"
	"publishing/internal/simtime"
	"publishing/internal/stablestore"
	"publishing/internal/trace"
	"publishing/internal/transport"
)

// ProcessMode selects the recorder's per-message processing cost,
// reproducing the three implementation points of §5.2.2: the unmodified
// kernel path measured at 57 ms, the inlined version at 12 ms, and the
// media-layer interception goal of 0.8 ms.
type ProcessMode int

const (
	// ModeNaive: messages climb the whole network protocol stack (57 ms).
	ModeNaive ProcessMode = iota
	// ModeOptimized: subroutine calls replaced by inline routines (12 ms).
	ModeOptimized
	// ModeMediaLayer: interception directly at the media layer (0.8 ms),
	// the queuing model's assumption (Fig 5.2 "time to process a packet").
	ModeMediaLayer
)

// PerMessageCPU returns the publish processing cost of the mode.
func (m ProcessMode) PerMessageCPU() simtime.Time {
	switch m {
	case ModeNaive:
		return 57 * simtime.Millisecond
	case ModeOptimized:
		return 12 * simtime.Millisecond
	default:
		return 800 * simtime.Microsecond
	}
}

// String names the mode.
func (m ProcessMode) String() string {
	switch m {
	case ModeNaive:
		return "naive"
	case ModeOptimized:
		return "optimized"
	default:
		return "media-layer"
	}
}

// Action tells the recovery manager what to do about a processor crash —
// the three operator choices of §4.6.
type Action int

const (
	// ActionRecoverSame restarts the node's processes on the same
	// processor once it reboots.
	ActionRecoverSame Action = iota
	// ActionRecoverSpare migrates the node's processes to a spare.
	ActionRecoverSpare
	// ActionNoRecover abandons the node's processes.
	ActionNoRecover
)

// Decision is the operator's answer to a processor crash.
type Decision struct {
	Action Action
	Spare  frame.NodeID
}

// Config tunes a recorder.
type Config struct {
	// Node is the recording node's station address; Proc the recording
	// software's process id (notices are addressed to it).
	Node frame.NodeID
	Proc frame.ProcID
	// Nodes are the processing nodes to watch.
	Nodes []frame.NodeID
	// Mode is the publish processing cost model (§5.2.2).
	Mode ProcessMode
	// EmitRecorderAcks broadcasts a RecorderAck frame for every stored
	// guaranteed message — transport-level publish-before-use for media
	// without hardware ack slots (§6.1).
	EmitRecorderAcks bool
	// WatchInterval is the watchdog ping period; MissThreshold consecutive
	// silent intervals declare a processor crash (§4.6).
	WatchInterval simtime.Time
	MissThreshold int
	// OnProcessorCrash is the operator query of §4.6; nil defaults to
	// recover-on-same-processor.
	OnProcessorCrash func(node frame.NodeID) Decision
	// RebootFn asks the outside world (the cluster, standing in for a
	// front-panel reset) to reboot a crashed node.
	RebootFn func(node frame.NodeID)
	// StoreFailProb makes the tap randomly fail to store a frame, for
	// exercising publish-before-use.
	StoreFailProb float64

	// ReplayWindow is how many replay batches a recovery keeps in flight
	// before waiting for the kernel's cumulative batch acknowledgement
	// (<= 0 means 1: stop-and-wait).
	ReplayWindow int
	// ReplayBatchBytes bounds a replay batch's encoded body (and the size
	// of one checkpoint catch-up chunk); <= 0 means frame.MaxBody, one MTU.
	// Setting it to 1 forces one message per batch — the serial ablation.
	ReplayBatchBytes int
	// RouteRepeats is how many times a routing update is broadcast after a
	// migration or spare-node recovery (unguaranteed traffic, so repeats
	// cover loss). 0 means the default of 3; negative means none — kernels
	// then depend entirely on home-node forwarding.
	RouteRepeats int

	// Multiple-recorder support (§6.3). Peers lists the other recorders'
	// procs in rank order (this recorder's own slot removed); Rank is this
	// recorder's position in the combined order; every node's priority
	// vector V_i is ascending rank. NoticeProcs lists every recorder proc so
	// the tap can consume kernel notices addressed to any of them.
	Peers       []frame.ProcID
	Rank        int
	NoticeProcs []frame.ProcID

	// Shards, when non-nil, puts the recorder in sharded mode: it records
	// (and gates, votes on, and recovers) only the process streams whose
	// shard slots it replicates per the map, acting as leader or follower
	// per slot. All recorders of a cluster share one read-only map. Nil is
	// the classic §6.3 mode — every recorder records everything.
	Shards *ShardMap

	// Metrics, when non-nil, receives the recorder's counters (subsystem
	// "recorder"), the stable store's (subsystem "store"), the publish
	// latency histogram, and the replay window occupancy gauge.
	Metrics *metrics.Registry
}

const (
	// replayGrace delays the start of replay after a crash so in-flight
	// advisories and acks drain into the database.
	replayGrace = 200 * simtime.Millisecond
	// recoveryRetry re-runs a recovery that saw no progress (lost node,
	// recursive crash) after this long.
	recoveryRetry = 20 * simtime.Second
	// claimTimeout is how long a recorder waits for a higher-priority peer
	// to answer for a crashed node before taking it (§6.3).
	claimTimeout = 2 * simtime.Second
)

// DefaultConfig returns simulation defaults for a recorder at node.
func DefaultConfig(node frame.NodeID, watched []frame.NodeID) Config {
	return Config{
		Node:             node,
		Proc:             frame.ProcID{Node: node, Local: 1},
		Nodes:            watched,
		Mode:             ModeMediaLayer,
		WatchInterval:    500 * simtime.Millisecond,
		MissThreshold:    3,
		ReplayWindow:     4,
		ReplayBatchBytes: frame.MaxBody,
		RouteRepeats:     3,
	}
}

// Stats counts recorder activity.
type Stats struct {
	MessagesSeen        uint64
	MessagesPending     uint64
	ArrivalsRecorded    uint64
	BytesStored         uint64
	AcksSeen            uint64
	Notices             uint64
	Advisories          uint64
	CheckpointsStored   uint64
	ProcessCrashes      uint64
	ProcessorCrashes    uint64
	RecoveriesStarted   uint64
	RecoveriesCompleted uint64
	MessagesReplayed    uint64
	ReplayBatches       uint64
	CkChunksSent        uint64
	RecorderAcksSent    uint64
	MissedArrivals      uint64
	StoreFailures       uint64
	PublishCPU          simtime.Time

	// Sharded-mode counters: follower promotions on a dead leader's slots,
	// shard-handoff sessions completed after a restart, and the handoff
	// transfer volume (streams shipped by the serving side, chunks on the
	// wire, streams adopted wholesale by the requester).
	FollowerPromotions  uint64
	HandoffsCompleted   uint64
	HandoffProcsShipped uint64
	HandoffChunksSent   uint64
	HandoffProcsAdopted uint64

	// BelowWatermark counts acknowledged messages dropped for sitting
	// strictly below their sender's watermark after passing the tap's
	// duplicate check. In-order transport delivery says there are none; tests
	// pin it at zero. Not in the metrics registry: the snapshot is unchanged.
	BelowWatermark uint64
}

// storedMsg is one published message in a process's stream.
type storedMsg struct {
	ID      frame.MsgID
	From    frame.ProcID
	Channel uint16
	Code    uint32
	Body    []byte
	Link    *frame.Link
	ArrSeq  uint64
}

// pendingMsg is a message the tap has heard that no acknowledgement has yet
// placed in a stream.
type pendingMsg struct {
	storedMsg
	// To is the destination on the wire: the pending queue the message waits
	// in, and the process whose acknowledgement claims it (an AckRec's Rcv is
	// always its frame's To).
	To frame.ProcID
	// SeenAt is when the tap heard the frame (publish latency, sweep age).
	SeenAt simtime.Time
}

// advisory is one §4.4.2 read-order correction.
type advisory struct {
	ReadID frame.MsgID
	HeadID frame.MsgID
	AdvSeq uint64
}

// procEntry is the §4.5 per-process database record: "the process
// identifier, the identifier of the most recent message sent by the
// process, a list of ids of messages received by the process (since the
// last checkpoint), the file name of the last checkpoint, the id of the
// first valid message, a list of disk pages containing messages to the
// process, and whether or not the process is recovering."
type procEntry struct {
	Proc frame.ProcID
	Spec demos.ProcSpec
	Node frame.NodeID

	LastSent uint64

	Arrivals arrLog
	// recorded fences retransmissions out of the stream. Checkpoints never
	// trim it, so a late copy of a message one consumed cannot re-enter.
	recorded   watermarks
	Advisories []advisory
	ArrSeqNext uint64
	AdvSeqNext uint64

	Checkpoint  []byte
	CkSendSeq   uint64
	CkReadCount uint64
	CkStateKB   int
	BaseReads   uint64
	LastCkAt    simtime.Time
	// trimDebt counts messages a past checkpoint reported consumed whose
	// records had not yet reached us when it was applied (a tap miss makes a
	// publish land late, inferred from an ack). Their records arrive after
	// that checkpoint, so the next trim must reach this much deeper or the
	// stream keeps an already-read message and replay duplicates it. Kept in
	// memory only: a rebuilt recorder starts at zero, which merely retains
	// conservatively.
	trimDebt uint64

	Rev        uint64 // meta revision for stable storage
	Recovering bool
	Dead       bool

	keys procKeys // stable-storage keys, see newProcEntry
}

// Recorder is the recording node: tap, database, stable store, and
// recovery manager.
type Recorder struct {
	cfg   Config
	sched *simtime.Scheduler
	rng   *simtime.Rand
	log   *trace.Log
	med   lan.Medium
	ep    *transport.Endpoint
	store *stablestore.Paged

	db map[frame.ProcID]*procEntry
	// pending indexes the unacknowledged messages by on-wire destination;
	// pendQueues lists the same queues in creation order, for the sweep. A
	// queue outlives its messages: one per destination ever heard.
	pending    map[frame.ProcID]*pendQueue
	pendQueues []*pendQueue
	// preArrivals buffers accepted messages (and preLastSent the send
	// sequences) of processes whose creation notice has not arrived yet:
	// on a busy system a new process's first traffic can beat the kernel's
	// NoticeCreated to the recorder. Merged at registration; bounded.
	preArrivals map[frame.ProcID][]pendingMsg
	preLastSent map[frame.ProcID]uint64

	restartNumber uint64
	sendSeq       uint64
	crashed       bool
	epoch         uint64 // invalidates timers across Crash/Restart

	watch      map[frame.NodeID]*watchState
	recovering map[frame.ProcID]*recoveryProc
	// replaying holds each live recovery's pipelined batch sender, so a
	// superseding attempt (or process destruction) can withdraw its
	// in-flight frames and orphan its reply waiters.
	replaying map[frame.ProcID]*batchSender
	waiters   map[uint32]func(f *frame.Frame)
	nextCode  uint32

	// §6.3 restart catch-up state.
	catchingUp bool
	awaitCk    map[frame.ProcID]bool

	// Sharded-mode state (cfg.Shards non-nil). peerWatch runs a watchdog per
	// peer recorder rank; actingSlots marks the leader slots this follower
	// has promoted itself on; handoffPending marks partner ranks a restarted
	// peer is mid-handoff with (the partner keeps acting until Commit).
	// handoffs holds this recorder's own outbound handoff sessions (it is
	// the restarted requester); handoffRx assembles inbound transfer chunks.
	// handoffCrashAfter, when > 0, is the chaos hook: crash this recorder
	// after serving that many more transfer chunks (mid-handoff crash).
	peerWatch         map[int]*watchState
	actingSlots       map[int]bool
	handoffPending    map[int]bool
	handoffs          map[int]*handoffSession
	handoffRx         map[uint32]*handoffAssembly
	handoffCrashAfter int
	// voteScratch is the voting path's bundle-decode buffer, separate from
	// recScratch so ObserveVote's pre-decode cannot clobber the store path's.
	voteScratch []frame.BundleRec
	// noticeSeen dedups notices consumed off the wire (other recorders'
	// deliveries; the tap sees every retransmission).
	noticeSeen genSet

	// encScratch is the reused buffer every persist path encodes its record
	// into (see persist.go). stablestore.Append copies Data, so the bytes
	// only need to survive one call.
	encScratch []byte
	// smFree pools pendingMsg nodes between Observe and the ack/sweep paths
	// that retire them, so the tap's steady state stops allocating a node,
	// body, and link per overheard frame.
	smFree []*pendingMsg
	// recScratch is the tap's reused bundle-decode buffer.
	recScratch []frame.BundleRec
	// ackq queues recorder acknowledgements awaiting their publish
	// processing time; one flush timer drains every ready entry into a
	// single batched RecorderAck frame.
	ackq        []recAck
	ackTimerSet bool

	stats Stats
	// publishLat observes tap-hear to publish (arrival recorded) latency in
	// virtual nanoseconds; replayOcc tracks the replay window's in-flight
	// batch count across all live recoveries.
	publishLat *metrics.Histogram
	replayOcc  *metrics.Gauge
}

// Reply channels on the recorder's pseudo-links.
const (
	chanCtlReply  = 1
	chanQueryResp = 2
)

// New builds a recorder on the given medium and stable store, attaching
// both its passive tap and its transport endpoint.
func New(cfg Config, sched *simtime.Scheduler, rng *simtime.Rand, log *trace.Log, med lan.Medium, store *stablestore.Paged, tcfg transport.Config) *Recorder {
	r := &Recorder{
		cfg:         cfg,
		sched:       sched,
		rng:         rng,
		log:         log,
		med:         med,
		store:       store,
		db:          make(map[frame.ProcID]*procEntry),
		pending:     make(map[frame.ProcID]*pendQueue),
		preArrivals: make(map[frame.ProcID][]pendingMsg),
		preLastSent: make(map[frame.ProcID]uint64),
		watch:       make(map[frame.NodeID]*watchState),
		recovering:  make(map[frame.ProcID]*recoveryProc),
		replaying:   make(map[frame.ProcID]*batchSender),
		waiters:     make(map[uint32]func(*frame.Frame)),
		noticeSeen:  newGenSet(noticeSeenLimit),
		nextCode:    1,
	}
	if cfg.Shards != nil {
		r.peerWatch = make(map[int]*watchState)
		r.actingSlots = make(map[int]bool)
		r.handoffPending = make(map[int]bool)
		r.handoffs = make(map[int]*handoffSession)
		r.handoffRx = make(map[uint32]*handoffAssembly)
	}
	r.ep = transport.New(cfg.Node, med, sched, log, tcfg)
	r.ep.Deliver = r.deliver
	med.AttachTap(cfg.Node, r)
	r.loadRestartNumber()
	if reg := cfg.Metrics; reg != nil {
		node := int(cfg.Node)
		r.publishLat = reg.Histogram(node, "recorder", "publish_latency_ns")
		r.replayOcc = reg.Gauge(node, "recorder", "replay_window_batches")
		s := &r.stats
		reg.AddCollector(node, "recorder", func(emit func(string, int64)) {
			emit("messages_seen", int64(s.MessagesSeen))
			emit("messages_pending", int64(s.MessagesPending))
			emit("arrivals_recorded", int64(s.ArrivalsRecorded))
			emit("bytes_stored", int64(s.BytesStored))
			emit("acks_seen", int64(s.AcksSeen))
			emit("notices", int64(s.Notices))
			emit("advisories", int64(s.Advisories))
			emit("checkpoints_stored", int64(s.CheckpointsStored))
			emit("process_crashes", int64(s.ProcessCrashes))
			emit("processor_crashes", int64(s.ProcessorCrashes))
			emit("recoveries_started", int64(s.RecoveriesStarted))
			emit("recoveries_completed", int64(s.RecoveriesCompleted))
			emit("messages_replayed", int64(s.MessagesReplayed))
			emit("replay_batches", int64(s.ReplayBatches))
			emit("ck_chunks_sent", int64(s.CkChunksSent))
			emit("recorder_acks_sent", int64(s.RecorderAcksSent))
			emit("missed_arrivals", int64(s.MissedArrivals))
			emit("store_failures", int64(s.StoreFailures))
			emit("publish_cpu_ns", int64(s.PublishCPU))
			emit("follower_promotions", int64(s.FollowerPromotions))
			emit("handoffs_completed", int64(s.HandoffsCompleted))
			emit("handoff_procs_shipped", int64(s.HandoffProcsShipped))
			emit("handoff_chunks_sent", int64(s.HandoffChunksSent))
			emit("handoff_procs_adopted", int64(s.HandoffProcsAdopted))
		})
		reg.AddCollector(node, "store", func(emit func(string, int64)) {
			ss := r.store.Stats()
			emit("appends", int64(ss.Appends))
			emit("page_writes", int64(ss.PageWrites))
			emit("page_reads", int64(ss.PageReads))
			emit("compacted", int64(ss.Compacted))
			emit("bytes_live", int64(ss.BytesLive))
		})
	}
	return r
}

// Stats returns the recorder counters.
func (r *Recorder) Stats() *Stats { return &r.stats }

// SetStoreFailProb adjusts the tap's store-failure probability at runtime —
// the chaos harness's in-model stand-in for stable-store write failures
// (a failed store write and a failed tap store look identical to the rest of
// the system: no recorder ack, publish-before-use blocks the frame).
func (r *Recorder) SetStoreFailProb(p float64) { r.cfg.StoreFailProb = p }

// Store exposes the stable store (experiments inspect its stats).
func (r *Recorder) Store() *stablestore.Paged { return r.store }

// Proc returns the recording software's process id.
func (r *Recorder) Proc() frame.ProcID { return r.cfg.Proc }

// RestartNumber returns the §3.4 restart counter.
func (r *Recorder) RestartNumber() uint64 { return r.restartNumber }

// Crashed reports whether the recorder is down.
func (r *Recorder) Crashed() bool { return r.crashed }

// Entry returns a copy-ish view of a process's database entry state for
// tests and tools: (known, recovering, dead, lastSent, queued messages).
func (r *Recorder) Entry(p frame.ProcID) (known, recovering, dead bool, lastSent uint64, queued int) {
	e := r.db[p]
	if e == nil {
		return false, false, false, 0, 0
	}
	return true, e.Recovering, e.Dead, e.LastSent, e.Arrivals.len()
}

// Observe implements lan.Tap: the passive listener of §3.1. Its verdict is
// the medium's publish-before-use gate.
func (r *Recorder) Observe(f *frame.Frame) bool {
	if r.crashed {
		return false
	}
	ok := true
	switch f.Type {
	case frame.Guaranteed:
		if r.storeFailed() {
			ok = false
		} else {
			r.observeMessage(f)
		}
	case frame.Bundle:
		ok = r.observeBundle(f)
	case frame.Ack:
		if len(f.AckRecs) == 0 {
			r.observeAck(f)
		}
	}
	if ok {
		// Acknowledgement records piggybacked on any gated frame reach the
		// recorder through the same stored frame — a blocked frame's payload
		// is ignored because its receivers never see it either.
		r.observeAckPayload(f)
	}
	return ok
}

// storeFailed draws the injected store-failure fault.
func (r *Recorder) storeFailed() bool {
	if r.cfg.StoreFailProb > 0 && r.rng.Bool(r.cfg.StoreFailProb) {
		r.stats.StoreFailures++
		return true
	}
	return false
}

// observeBundle stores every guaranteed record of a coalesced frame,
// drawing the store-failure fault per record (the records land on distinct
// database pages). Any failed record blocks the whole frame — the medium
// gates per frame — and the sender's individual retransmissions land on the
// duplicate checks for the records that did store.
func (r *Recorder) observeBundle(f *frame.Frame) bool {
	recs, err := frame.DecodeBundle(f.Body, r.recScratch)
	if err != nil {
		r.recScratch = recs[:0]
		r.stats.StoreFailures++
		return false
	}
	r.recScratch = recs
	ok := true
	for i := range recs {
		if recs[i].Type != frame.Guaranteed {
			continue
		}
		if r.storeFailed() {
			ok = false
			continue
		}
		r.observeMessage(recs[i].Expand(f))
	}
	return ok
}

// observeAckPayload feeds piggybacked acknowledgement records to the
// arrival-order machinery, in the acceptance order the receiver recorded
// them (§4.4.1's tracing, one frame carrying several acks).
func (r *Recorder) observeAckPayload(f *frame.Frame) {
	for i := range f.AckRecs {
		r.stats.AcksSeen++
		r.observeAckRecord(f.AckRecs[i].ID, f.AckRecs[i].Rcv)
	}
}

func (r *Recorder) observeMessage(f *frame.Frame) {
	r.stats.MessagesSeen++
	r.stats.PublishCPU += r.cfg.Mode.PerMessageCPU()

	if r.cfg.EmitRecorderAcks && (r.cfg.Shards == nil || r.ownsProc(f.To)) {
		// Transport-level publish-before-use (§6.1): receivers hold the
		// frame until this acknowledgement. Emission waits out the publish
		// processing time, so ModeNaive recorders visibly slow the system.
		// Sharded mode: only a stream's owners acknowledge it (duplicate
		// acks from the two replicas release the same held frame once).
		r.queueRecorderAck(f.ID)
	}

	if f.To == r.cfg.Proc {
		return // bookkeeping traffic to the recorder itself is not a stream
	}
	if f.Channel == chanPeer || r.isNoticeProc(f.From) {
		// Recorder-originated traffic: peer arbitration and handoff frames,
		// control requests, replay batches. None of it belongs to a process
		// stream. Recording a peer's replay batch or checkpoint request as an
		// arrival of its destination would feed it back into the next
		// recovery as application traffic, and a handoff chunk would gob-
		// decode as a plausible-looking notice (peerMsg and demos.Notice
		// share field names) and corrupt the basis. A lone recorder never
		// taps its own sends, so only multi-recorder clusters see these.
		return
	}
	if r.isNoticeProc(f.To) {
		// A kernel notice addressed to another recorder: every recorder
		// must apply it to stay consistent (§6.3: all recorders record all
		// messages). The tap sees retransmissions, so dedup.
		if !r.noticeSeen.Seen(f.ID) {
			r.noticeSeen.Add(f.ID)
			if n, err := demos.DecodeNotice(f.Body); err == nil {
				r.handleNotice(n)
			}
		}
		return
	}

	// Track the highest message id each published process has sent — the
	// future suppression threshold (§4.5). In sharded mode only the sender's
	// owners track it (they replay the sender, so they set the threshold).
	if f.From.Local != 0 && (r.cfg.Shards == nil || r.ownsProc(f.From)) { // kernel processes are not replayed
		if e := r.db[f.From]; e != nil && !e.Dead {
			if f.ID.Seq > e.LastSent {
				e.LastSent = f.ID.Seq
				r.persistLastSent(e)
			}
		} else if e == nil {
			if f.ID.Seq > r.preLastSent[f.From] && len(r.preLastSent) < 4096 {
				r.preLastSent[f.From] = f.ID.Seq
			}
		}
	}

	if r.cfg.Shards != nil && !r.ownsProc(f.To) {
		return // another shard's stream; its replicas record the arrival
	}
	if e := r.db[f.To]; e != nil {
		if e.Dead || e.recorded.covers(f.ID) {
			return // dead destination or retransmission of an arrival
		}
	}
	q := r.pending[f.To]
	if q.find(f.ID) >= 0 {
		return
	}
	if q == nil {
		q = &pendQueue{}
		r.pending[f.To] = q
		r.pendQueues = append(r.pendQueues, q)
	}
	sm := r.allocStored()
	sm.ID = f.ID
	sm.From = f.From
	sm.Channel = f.Channel
	sm.Code = f.Code
	sm.Body = append(sm.Body[:0], f.Body...)
	// Deep-copy the link: the medium no longer clones frames for taps, so f
	// (and everything it points at) belongs to the sender after we return.
	if f.PassedLink != nil {
		if sm.Link == nil {
			sm.Link = new(frame.Link)
		}
		*sm.Link = *f.PassedLink
	} else {
		sm.Link = nil
	}
	sm.ArrSeq = 0
	sm.To = f.To
	sm.SeenAt = r.sched.Now()
	q.msgs = append(q.msgs, sm)
	r.stats.MessagesPending++
}

// pendQueue holds one destination's unacknowledged messages in the order the
// tap heard them, so SeenAt never decreases along it.
type pendQueue struct {
	msgs []*pendingMsg
}

// find returns id's position in the queue, or -1. A nil queue is empty.
func (q *pendQueue) find(id frame.MsgID) int {
	if q != nil {
		for i, p := range q.msgs {
			if p.ID == id {
				return i
			}
		}
	}
	return -1
}

// remove takes the i'th message out, keeping the others in order.
func (q *pendQueue) remove(i int) *pendingMsg {
	p := q.msgs[i]
	q.msgs = slices.Delete(q.msgs, i, i+1)
	return p
}

// sweepPending drops the messages heard before cutoff and never
// acknowledged (destination dead, sender gave up) so they don't accumulate.
// Only each queue's expired head is touched.
func (r *Recorder) sweepPending(cutoff simtime.Time) {
	for _, q := range r.pendQueues {
		k := 0
		for ; k < len(q.msgs) && q.msgs[k].SeenAt < cutoff; k++ {
			r.recycleStored(q.msgs[k])
		}
		q.msgs = slices.Delete(q.msgs, 0, k)
	}
}

// recAck is one queued recorder acknowledgement: the id becomes
// broadcastable once its publish processing time has elapsed.
type recAck struct {
	id      frame.MsgID
	readyAt simtime.Time
}

// maxAckIDsPerFrame bounds a batched RecorderAck frame's id list to the MTU.
const maxAckIDsPerFrame = frame.MaxBody / frame.AckIDLen

// queueRecorderAck schedules the §6.1 acknowledgement for one stored
// message. Ready entries are flushed together: every record of a coalesced
// bundle finishes processing at the same instant, so one RecorderAck frame
// covers the whole batch instead of one frame per message.
func (r *Recorder) queueRecorderAck(id frame.MsgID) {
	r.ackq = append(r.ackq, recAck{id: id, readyAt: r.sched.Now() + r.cfg.Mode.PerMessageCPU()})
	if !r.ackTimerSet {
		r.armAckTimer(r.cfg.Mode.PerMessageCPU())
	}
}

func (r *Recorder) armAckTimer(d simtime.Time) {
	r.ackTimerSet = true
	epoch := r.epoch
	r.sched.After(d, func() {
		if r.epoch != epoch || r.crashed {
			return
		}
		r.flushRecorderAcks()
	})
}

// flushRecorderAcks broadcasts every ready queued acknowledgement. A batch
// of one keeps the legacy single-id wire form (the frame's ID field, empty
// Body); larger batches pack an id list into the Body.
func (r *Recorder) flushRecorderAcks() {
	r.ackTimerSet = false
	now := r.sched.Now()
	ready := 0
	for ready < len(r.ackq) && r.ackq[ready].readyAt <= now {
		ready++
	}
	for start := 0; start < ready; {
		n := ready - start
		if n > maxAckIDsPerFrame {
			n = maxAckIDsPerFrame
		}
		f := &frame.Frame{Type: frame.RecorderAck, Dst: frame.Broadcast, ID: r.ackq[start].id}
		if n > 1 {
			body := make([]byte, 0, n*frame.AckIDLen)
			for _, a := range r.ackq[start : start+n] {
				body = frame.AppendAckID(body, a.id)
			}
			f.Body = body
		}
		r.stats.RecorderAcksSent++
		r.ep.SendRaw(f)
		start += n
	}
	r.ackq = append(r.ackq[:0], r.ackq[ready:]...)
	if len(r.ackq) > 0 {
		r.armAckTimer(r.ackq[0].readyAt - now)
	}
}

// allocStored takes a pendingMsg node from the pool (or the heap); the caller
// overwrites every field, reusing Body and Link capacity.
func (r *Recorder) allocStored() *pendingMsg {
	if k := len(r.smFree); k > 0 {
		sm := r.smFree[k-1]
		r.smFree[k-1] = nil
		r.smFree = r.smFree[:k-1]
		return sm
	}
	return &pendingMsg{}
}

// recycleStored returns a node whose Body and Link were never exposed
// outside the recorder (drop paths only) for full reuse.
func (r *Recorder) recycleStored(sm *pendingMsg) {
	if len(r.smFree) < 1024 {
		r.smFree = append(r.smFree, sm)
	}
}

// releaseStored retires a node whose Body/Link now alias an archived copy
// (e.Arrivals or preArrivals): the struct is reused but its buffers are
// detached so the archive keeps sole ownership.
func (r *Recorder) releaseStored(sm *pendingMsg) {
	sm.Body, sm.Link = nil, nil
	r.recycleStored(sm)
}

// observeAck assigns arrival order from a legacy single-message Ack frame:
// "It is possible to discover the order in which messages are received at
// the receiving node by tracing the acknowledgements sent in response to
// messages" (§4.4.1). The ack's From is the receiving process.
func (r *Recorder) observeAck(f *frame.Frame) {
	r.stats.AcksSeen++
	r.observeAckRecord(f.ID, f.From)
}

// observeAckRecord processes one acknowledgement — id accepted by process
// rcv — from either a standalone Ack frame or a piggybacked record. Only
// rcv's pending queue is consulted: an ack names its message's destination.
func (r *Recorder) observeAckRecord(id frame.MsgID, rcv frame.ProcID) {
	q := r.pending[rcv]
	at := q.find(id)
	if at < 0 {
		return // duplicate ack, untracked message, or our own traffic
	}
	sm := q.remove(at)
	e := r.db[rcv]
	if e == nil {
		// Accepted before the destination's creation notice arrived:
		// buffer until registration. Bounded per process; the re-ack of a
		// retransmission stays out, so the merge sees each message once.
		pre := r.preArrivals[rcv]
		if rcv.Local != 0 && rcv != r.cfg.Proc && len(pre) < 1024 &&
			!slices.ContainsFunc(pre, func(p pendingMsg) bool { return p.ID == id }) {
			r.preArrivals[rcv] = append(pre, *sm)
			r.releaseStored(sm)
		} else {
			r.recycleStored(sm)
		}
		return
	}
	if e.Dead || r.alreadyRecorded(e, id) {
		r.recycleStored(sm)
		return
	}
	// Cumulative-ack inference: the transport delivers each sender's stream
	// in sequence order, so this ack also proves every lower-sequence
	// message from the same sender to this process arrived — their own acks
	// were snooped past (tap miss). Left pending they would be lost from
	// the replay basis forever, since the sender has its ack and will never
	// retransmit. Promote them, in sequence order, ahead of this arrival.
	// (Caveat: a sender that exhausted retries below this sequence makes
	// the inference wrong, but that run already lost a guaranteed message.)
	for {
		at := -1
		for i, p := range q.msgs {
			if p.From == sm.From && p.ID.Seq < sm.ID.Seq && (at < 0 || p.ID.Seq < q.msgs[at].ID.Seq) {
				at = i
			}
		}
		if at < 0 {
			break
		}
		p := q.remove(at)
		if r.alreadyRecorded(e, p.ID) {
			r.recycleStored(p)
			continue
		}
		r.stats.MissedArrivals++
		r.recordArrival(e, p, "published (#%d in stream, inferred from later ack)")
		r.releaseStored(p)
	}
	r.recordArrival(e, sm, "published (#%d in stream)")
	r.releaseStored(sm)
}

// watermarks is a stream's retransmission fence: per sender, the highest
// sequence number recorded into the stream. The transport delivers a sender's
// messages to a process in sequence order, so one at or below the mark is
// recorded already (or older than one that was). One 16-byte map slot per
// sender, however many messages the stream has carried.
type watermarks map[frame.ProcID]uint64

func (w watermarks) covers(id frame.MsgID) bool {
	mark, ok := w[id.Sender]
	return ok && id.Seq <= mark
}

// note raises id's sender's mark to id.
func (w watermarks) note(id frame.MsgID) {
	if mark, ok := w[id.Sender]; !ok || id.Seq > mark {
		w[id.Sender] = id.Seq
	}
}

// alreadyRecorded is covers for a message an acknowledgement is placing in
// e's stream. At the mark it is the retransmission that set the mark;
// strictly below, the per-message set this replaced might have accepted it,
// so it is counted.
func (r *Recorder) alreadyRecorded(e *procEntry, id frame.MsgID) bool {
	mark, ok := e.recorded[id.Sender]
	if ok && id.Seq < mark {
		r.stats.BelowWatermark++
	}
	return ok && id.Seq <= mark
}

// recordArrival appends one message to a process's published stream, which
// takes over its Body and Link; the node stays the caller's.
func (r *Recorder) recordArrival(e *procEntry, sm *pendingMsg, format string) {
	sm.ArrSeq = e.ArrSeqNext
	e.ArrSeqNext++
	e.Arrivals.push(sm.storedMsg)
	e.recorded.note(sm.ID)
	r.stats.ArrivalsRecorded++
	r.stats.BytesStored += uint64(len(sm.Body))
	r.publishLat.Observe(int64(r.sched.Now() - sm.SeenAt))
	r.persistMessage(e, sm)
	if r.log.Enabled() {
		// Event.Seq carries the acceptance-order position so online monitors
		// can check per-stream monotonicity without parsing Detail.
		r.log.AddMsgSeq(trace.KindPublish, int(r.cfg.Node), sm.ID.String(), e.Proc.String(), sm.ArrSeq, format, sm.ArrSeq)
	}
}

// deliver handles guaranteed traffic addressed to the recording software:
// kernel notices, control replies, and query responses.
func (r *Recorder) deliver(f *frame.Frame) bool {
	if r.crashed {
		return false
	}
	if f.Type == frame.Unguaranteed {
		r.handlePong(f)
		return true
	}
	if f.To != r.cfg.Proc {
		return true // stray; accept and ignore
	}
	switch f.Channel {
	case chanCtlReply, chanQueryResp:
		if fn, ok := r.waiters[f.Code]; ok {
			delete(r.waiters, f.Code)
			fn(f)
		}
	case chanPeer:
		r.handlePeer(f)
	default:
		n, err := demos.DecodeNotice(f.Body)
		if err != nil {
			r.log.Add(trace.KindRecorder, int(r.cfg.Node), f.From.String(), "bad notice: %v", err)
			return true
		}
		r.handleNotice(n)
	}
	return true
}

func (r *Recorder) handleNotice(n *demos.Notice) {
	r.stats.Notices++
	switch n.Kind {
	case demos.NoticeCreated:
		if r.cfg.Shards != nil && !r.ownsProc(n.Proc) {
			// Another shard's stream: never enters this database, so the
			// recovery, catch-up, and query paths skip it automatically.
			delete(r.preArrivals, n.Proc)
			delete(r.preLastSent, n.Proc)
			return
		}
		e := r.db[n.Proc]
		if e == nil {
			e = newProcEntry(n.Proc, n.Proc.Node)
			r.db[n.Proc] = e
		}
		e.Spec = n.Spec
		e.Node = n.Proc.Node
		e.Dead = false
		e.LastCkAt = r.sched.Now()
		// Merge traffic that beat this notice to the recorder.
		if pre := r.preArrivals[n.Proc]; len(pre) > 0 {
			for i := range pre {
				if !r.alreadyRecorded(e, pre[i].ID) {
					r.recordArrival(e, &pre[i], "published (#%d in stream, accepted before registration)")
				}
			}
			delete(r.preArrivals, n.Proc)
		}
		if ls, ok := r.preLastSent[n.Proc]; ok {
			if ls > e.LastSent {
				e.LastSent = ls
				r.persistLastSent(e)
			}
			delete(r.preLastSent, n.Proc)
		}
		r.persistProcMeta(e)
		r.log.Add(trace.KindRecorder, int(r.cfg.Node), n.Proc.String(), "registered %q", n.Spec.Name)

	case demos.NoticeDestroyed:
		delete(r.preArrivals, n.Proc)
		delete(r.preLastSent, n.Proc)
		r.cancelReplay(n.Proc)
		if r.catchingUp {
			delete(r.awaitCk, n.Proc)
			r.checkCaughtUp()
		}
		if e := r.db[n.Proc]; e != nil {
			e.Dead = true
			e.Arrivals = arrLog{}
			e.Advisories = nil
			r.persistDead(e)
			r.store.Invalidate(e.keys.msg, e.ArrSeqNext)
			r.store.Invalidate(e.keys.adv, e.AdvSeqNext)
		}

	case demos.NoticeReadOrder:
		if e := r.db[n.Proc]; e != nil && !e.Dead {
			adv := advisory{ReadID: n.ReadID, HeadID: n.HeadID, AdvSeq: e.AdvSeqNext}
			e.AdvSeqNext++
			e.Advisories = append(e.Advisories, adv)
			r.stats.Advisories++
			r.persistAdvisory(e, &adv)
		}

	case demos.NoticeCheckpoint:
		complete := true
		if e := r.db[n.Proc]; e != nil && !e.Dead {
			complete = r.applyCheckpoint(e, n)
		}
		if complete {
			// Incomplete checkpoints (queued messages we never saw) keep
			// the catch-up phase open; the next one will be complete.
			r.noteCatchUpProgress(n.Proc)
		} else if r.catchingUp {
			r.RequestCheckpoint(n.Proc)
		}

	case demos.NoticeMigrated:
		if e := r.db[n.Proc]; e != nil && !e.Dead {
			e.Node = n.Node
			r.persistProcMeta(e)
			r.broadcastRoute(n.Proc, n.Node, r.routeRepeats())
			r.log.Add(trace.KindRecorder, int(r.cfg.Node), n.Proc.String(), "migrated to n%d", n.Node)
		}

	case demos.NoticeCrashed:
		r.stats.ProcessCrashes++
		if e := r.db[n.Proc]; e != nil && !e.Dead {
			r.log.Add(trace.KindDetect, int(r.cfg.Node), n.Proc.String(), "process fault reported")
			r.startRecovery(e, e.Node)
		}
	}
}

// applyCheckpoint installs a new checkpoint: "After the checkpoint has been
// reliably stored, older checkpoints and messages can be discarded"
// (§3.3.1). The replay basis becomes exactly the messages still queued at
// the process when the checkpoint was taken (the notice lists them in
// queue order), which stays correct even for a recorder whose stream has
// gaps from its own downtime (§6.3 catch-up). It reports whether the
// recorder could supply every queued message from its own records.
func (r *Recorder) applyCheckpoint(e *procEntry, n *demos.Notice) (complete bool) {
	if n.ReadCount < e.BaseReads {
		// A checkpoint from before the basis we already hold. Notices are
		// guaranteed messages, so one emitted before a recorder outage can be
		// retransmitted long after newer checkpoints landed; readCount is
		// monotonic per stream, so applying it would regress the basis.
		return true
	}
	// pos[k] is the log position of the k'th queued message (-1: not held,
	// or an id the queue repeats); queuedAt finds k by id.
	log := &e.Arrivals
	queuedAt := make(map[frame.MsgID]int, len(n.Queued))
	pos := make([]int, len(n.Queued))
	for k, id := range n.Queued {
		pos[k] = -1
		if _, repeat := queuedAt[id]; !repeat {
			queuedAt[id] = k
		}
	}
	for i := 0; i < log.len(); i++ {
		if k, ok := queuedAt[log.at(i).ID]; ok && pos[k] < 0 {
			pos[k] = i
		}
	}
	retained := slices.DeleteFunc(slices.Clone(pos), func(i int) bool { return i < 0 })
	missing := len(pos) - len(retained)
	// Of the remainder, only messages the process actually read before the
	// checkpoint are superseded. A message can be recorded yet neither read
	// nor queued: published at the tap while every receiver copy was lost
	// (corruption, receiver miss, ack-slot interference), so it is still in
	// flight via retransmission. Trimming it would drop it from the replay
	// basis forever. Trim exactly the consumed prefix of the read-order
	// stream; keep the in-flight tail behind the queued messages (queue
	// FIFO: a later arrival is read after everything queued now).
	consumed := n.ReadCount - e.BaseReads + e.trimDebt
	dropped := make([]uint64, 0, min(consumed, uint64(log.len())))
	for it := newReplayIter(*log, e.Advisories); ; {
		i, ok := it.nextPos()
		if !ok {
			break
		}
		if k, ok := queuedAt[log.at(i).ID]; ok && pos[k] == i {
			continue // retained above, in queue order
		}
		if uint64(len(dropped)) < consumed {
			dropped = append(dropped, log.at(i).ArrSeq)
		} else {
			retained = append(retained, i)
		}
	}
	// Reads the checkpoint vouches for but we could not trim are messages
	// whose records are still on their way (see trimDebt); their late records
	// extend the next checkpoint's consumed prefix.
	e.trimDebt = consumed - uint64(len(dropped))
	log.keep(retained)
	e.Advisories = nil
	e.BaseReads = n.ReadCount
	e.Checkpoint = n.Checkpoint
	e.CkSendSeq = n.SendSeq
	e.CkReadCount = n.ReadCount
	e.CkStateKB = n.StateKB
	e.LastCkAt = r.sched.Now()
	// The watermarks stay: a late retransmission of an already-consumed
	// message must not re-enter the stream.
	r.stats.CheckpointsStored++
	r.persistCheckpoint(e, dropped)
	r.log.Add(trace.KindCheckpoint, int(r.cfg.Node), e.Proc.String(),
		"stored checkpoint (%d KB, readCount=%d); %d messages discarded, %d retained, %d missing",
		n.StateKB, n.ReadCount, len(dropped), len(retained), missing)
	return missing == 0
}

// reconstruct recovers the true read order of a stream from its arrival
// order plus the out-of-order read advisories (§4.4.2), as a slice of
// copies: replayIter's order, materialized.
func reconstruct(arrivals arrLog, advisories []advisory) []storedMsg {
	out := make([]storedMsg, 0, arrivals.len())
	for it := newReplayIter(arrivals, advisories); ; {
		sm, ok := it.next()
		if !ok {
			return out
		}
		out = append(out, *sm)
	}
}

// ReplayMsg is an exported view of one published message, in replay order.
type ReplayMsg struct {
	ID      frame.MsgID
	From    frame.ProcID
	Channel uint16
	Code    uint32
	Body    []byte
	Link    *frame.Link
}

// StreamMessages returns a process's published stream in reconstructed
// read order — the debugger's input (§6.5) and the recovery replay feed.
func (r *Recorder) StreamMessages(p frame.ProcID) []ReplayMsg {
	e := r.db[p]
	if e == nil {
		return nil
	}
	order := reconstruct(e.Arrivals, e.Advisories)
	out := make([]ReplayMsg, len(order))
	for i, m := range order {
		out[i] = ReplayMsg{ID: m.ID, From: m.From, Channel: m.Channel, Code: m.Code, Body: m.Body, Link: m.Link}
	}
	return out
}

// CheckpointOf returns a process's latest stored checkpoint, if any.
func (r *Recorder) CheckpointOf(p frame.ProcID) (blob []byte, sendSeq, readCount uint64, ok bool) {
	e := r.db[p]
	if e == nil || e.Checkpoint == nil {
		return nil, 0, 0, false
	}
	return e.Checkpoint, e.CkSendSeq, e.CkReadCount, true
}

// SpecOf returns a process's registered image spec.
func (r *Recorder) SpecOf(p frame.ProcID) (demos.ProcSpec, bool) {
	e := r.db[p]
	if e == nil {
		return demos.ProcSpec{}, false
	}
	return e.Spec, true
}

// LastSentOf returns the highest message id the process sent.
func (r *Recorder) LastSentOf(p frame.ProcID) uint64 {
	if e := r.db[p]; e != nil {
		return e.LastSent
	}
	return 0
}

// StreamSummary exposes a process's reconstructed replay order (tests,
// debugger).
func (r *Recorder) StreamSummary(p frame.ProcID) []frame.MsgID {
	e := r.db[p]
	if e == nil {
		return nil
	}
	order := reconstruct(e.Arrivals, e.Advisories)
	out := make([]frame.MsgID, len(order))
	for i, m := range order {
		out[i] = m.ID
	}
	return out
}

// sendCtl transmits a control message to a node's kernel process, with an
// optional reply callback correlated through the pseudo reply link's code.
func (r *Recorder) sendCtl(node frame.NodeID, to frame.ProcID, deliverToKernel bool, ctl *demos.CtlMsg, replyChan uint16, onReply func(*frame.Frame)) {
	r.sendSeq++
	f := &frame.Frame{
		Type:            frame.Guaranteed,
		Dst:             node,
		ID:              frame.MsgID{Sender: r.cfg.Proc, Seq: r.restartNumber<<40 | r.sendSeq},
		From:            r.cfg.Proc,
		To:              to,
		Channel:         demos.ChanRequest,
		DeliverToKernel: deliverToKernel,
		Body:            demos.EncodeCtl(ctl),
	}
	if onReply != nil {
		code := r.nextCode
		r.nextCode++
		r.waiters[code] = onReply
		f.PassedLink = &frame.Link{To: r.cfg.Proc, Channel: replyChan, Code: code}
	}
	r.ep.SendGuaranteed(f)
}

// isNoticeProc reports whether p is one of the recorder procs kernels send
// notices to.
func (r *Recorder) isNoticeProc(p frame.ProcID) bool {
	for _, q := range r.cfg.NoticeProcs {
		if q == p {
			return true
		}
	}
	return false
}

// CatchingUp reports whether the recorder is still in its §6.3 restart
// catch-up phase (declining recovery duties).
func (r *Recorder) CatchingUp() bool { return r.catchingUp }

// RequestCheckpoint asks a process's kernel to checkpoint it now (the
// checkpoint policy driver calls this).
func (r *Recorder) RequestCheckpoint(p frame.ProcID) {
	e := r.db[p]
	if e == nil || e.Dead || e.Recovering {
		return
	}
	r.sendCtl(e.Node, p, true, &demos.CtlMsg{Op: demos.OpCheckpoint}, 0, nil)
}

func gobIntoR(b []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(b)).Decode(v)
}

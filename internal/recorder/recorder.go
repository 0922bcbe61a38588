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
	"publishing/internal/demos"
	"publishing/internal/frame"
	"publishing/internal/lan"
	"publishing/internal/metrics"
	"publishing/internal/recorder/tap"
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
	// Recorders lists every recorder's process id in rank order (§6.3's
	// priority vector V_i). Recorders[Rank] is this recorder: kernels
	// address their notices to it, and its Node is the station it taps
	// from. The tap consumes notices addressed to any of them.
	Recorders []frame.ProcID
	Rank      int
	// Nodes are the processing nodes to watch.
	Nodes []frame.NodeID
	// Mode is the publish processing cost model (§5.2.2).
	Mode ProcessMode
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

	// ReplayWindow is how many replay batches a recovery keeps in flight
	// before waiting for the kernel's cumulative batch acknowledgement
	// (1: stop-and-wait).
	ReplayWindow int
	// ReplayBatchBytes bounds a replay batch's encoded body (and the size
	// of one checkpoint catch-up chunk). Setting it to 1 forces one message
	// per batch — the serial ablation.
	ReplayBatchBytes int
	// RouteRepeats is how many times a routing update is broadcast after a
	// migration or spare-node recovery (unguaranteed traffic, so repeats
	// cover loss). 0 means none — kernels then learn the route only from
	// the home node, which refuses their frames and tells them where the
	// process went.
	RouteRepeats int

	// Shards assigns process streams to recorders: this recorder records
	// (and gates, votes on, and recovers) only the streams whose shard slots
	// it replicates, and acts for a slot once every replica ahead of it is
	// silent. All recorders of a cluster share one read-only map. §6.3's
	// total copy is the one-slot map, whose replicas are every recorder;
	// DefaultConfig's is the one-recorder map.
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
)

// DefaultConfig returns simulation defaults for a recorder at node.
func DefaultConfig(node frame.NodeID, watched []frame.NodeID) Config {
	return Config{
		Recorders:        []frame.ProcID{{Node: node, Local: 1}},
		Nodes:            watched,
		Mode:             ModeMediaLayer,
		WatchInterval:    500 * simtime.Millisecond,
		MissThreshold:    3,
		ReplayWindow:     4,
		ReplayBatchBytes: frame.MaxBody,
		RouteRepeats:     3,
		Shards:           NewShardMap(0, 1, 1),
	}
}

// Stats counts recorder activity.
type Stats struct {
	tap.Counts // the stream decisions'

	MessagesSeen        uint64
	AcksSeen            uint64
	Notices             uint64
	CheckpointsStored   uint64
	ProcessCrashes      uint64
	ProcessorCrashes    uint64
	RecoveriesStarted   uint64
	RecoveriesCompleted uint64
	MessagesReplayed    uint64
	ReplayBatches       uint64
	CkChunksSent        uint64
	RecorderAcksSent    uint64
	StoreFailures       uint64
	PublishCPU          simtime.Time

	// Replication counters: follower promotions on a silent replica's slots,
	// shard-handoff sessions completed after a restart, and the handoff
	// transfer volume (streams shipped by the serving side, chunks on the
	// wire, streams adopted wholesale by the requester).
	FollowerPromotions  uint64
	HandoffsCompleted   uint64
	HandoffProcsShipped uint64
	HandoffChunksSent   uint64
	HandoffProcsAdopted uint64
}

// procEntry is the §4.5 per-process database record: "the process
// identifier, the identifier of the most recent message sent by the
// process, a list of ids of messages received by the process (since the
// last checkpoint), the file name of the last checkpoint, the id of the
// first valid message, a list of disk pages containing messages to the
// process, and whether or not the process is recovering." The stream
// decisions read and write its tap.Stream; the rest is recovery's.
type procEntry struct {
	tap.Stream
	Spec demos.ProcSpec
	Node frame.NodeID

	Checkpoint []byte
	CkSendSeq  uint64
	CkStateKB  int
	LastCkAt   simtime.Time

	Rev        uint64 // meta revision for stable storage
	Recovering bool

	keys procKeys // stable-storage keys, see newProcEntry
}

// install makes e its process's database entry, for the tap core as well.
func (r *Recorder) install(e *procEntry) {
	r.db[e.Proc] = e
	r.core.Install(&e.Stream)
}

// kill records the destruction of e's process.
func (r *Recorder) kill(e *procEntry) {
	e.Kill()
	r.persistDead(e)
}

// Recorder is the recording node: tap, database, stable store, and
// recovery manager.
type Recorder struct {
	cfg Config
	// node is the station the recorder taps from; proc its process id,
	// Recorders[Rank]. emitAcks broadcasts a RecorderAck frame for every
	// stored guaranteed message: transport-level publish-before-use, which
	// the kernels' transport asks for on media without ack slots (§6.1).
	node     frame.NodeID
	proc     frame.ProcID
	emitAcks bool

	sched *simtime.Scheduler
	rng   *simtime.Rand
	log   *trace.Log
	med   lan.Medium
	ep    *transport.Endpoint
	store *stablestore.Paged

	// db is the process database; core makes the stream decisions on it.
	db   map[frame.ProcID]*procEntry
	core *tap.Core

	// storeFailProb makes the tap randomly fail to store a frame, for
	// exercising publish-before-use (SetStoreFailProb).
	storeFailProb float64

	restartNumber uint64
	sendSeq       uint64
	crashed       bool
	epoch         uint64 // invalidates timers across Crash/Restart

	// watch is the one watchdog table (newWatch): every processing node and
	// every sibling recorder, keyed by station.
	watch      map[frame.NodeID]*watchState
	recovering map[frame.ProcID]*recoveryProc
	// replaying holds each live recovery's pipelined batch sender, so a
	// superseding attempt (or process destruction) can withdraw its
	// in-flight frames and orphan its reply waiters.
	replaying map[frame.ProcID]*batchSender
	waiters   map[uint32]func(f *frame.Frame)
	nextCode  uint32
	// replayHdrs is what replay batch headers are carved from (sendBatch).
	replayHdrs frame.Slab

	// §6.3 restart catch-up state: the processes whose forced checkpoints
	// have not landed yet.
	catchingUp bool
	awaitCk    map[frame.ProcID]bool

	// Replication state. handoffPending marks partner ranks this
	// restarted recorder is mid-handoff with (the partner keeps acting until
	// Commit). handoffs holds this recorder's own outbound handoff sessions
	// (it is the restarted requester); handoffRx assembles inbound transfer
	// chunks. handoffCrashAfter, when > 0, is the chaos hook: crash this
	// recorder after serving that many more transfer chunks (mid-handoff
	// crash).
	handoffPending    map[int]bool
	handoffs          map[int]*handoffSession
	handoffRx         map[uint32]*handoffAssembly
	handoffCrashAfter int
	// noticeSeen dedups notices consumed off the wire (other recorders'
	// deliveries; the tap sees every retransmission).
	noticeSeen genSet

	// encScratch is the reused buffer every persist path encodes its record
	// into (see persist.go). stablestore.Append copies Data, so the bytes
	// only need to survive one call. seqScratch holds the retained arrival
	// seqs a checkpoint record lists, and noticeQueued a checkpoint
	// notice's queued ids (decodeNotice).
	encScratch   []byte
	seqScratch   []uint64
	noticeQueued []frame.MsgID
	// msgOne and ackOne hold a lone message as a bundle of one, and a
	// header-only ack as a block of one, so the tap reads every frame as
	// records.
	msgOne [1]frame.BundleRec
	ackOne [1]frame.AckRec
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
// both its passive tap and its transport endpoint. tcfg is the kernels'
// transport configuration: where it holds frames for recorder
// acknowledgements (a positive RecorderAckHold), the recorder emits them,
// and its own endpoint never holds frames.
func New(cfg Config, sched *simtime.Scheduler, rng *simtime.Rand, log *trace.Log, med lan.Medium, store *stablestore.Paged, tcfg transport.Config) *Recorder {
	proc := cfg.Recorders[cfg.Rank]
	r := &Recorder{
		cfg:        cfg,
		node:       proc.Node,
		proc:       proc,
		emitAcks:   tcfg.RecorderAckHold > 0,
		sched:      sched,
		rng:        rng,
		log:        log,
		med:        med,
		store:      store,
		db:         make(map[frame.ProcID]*procEntry),
		recovering: make(map[frame.ProcID]*recoveryProc),
		replaying:  make(map[frame.ProcID]*batchSender),
		waiters:    make(map[uint32]func(*frame.Frame)),
		noticeSeen: newGenSet(noticeSeenLimit),
		nextCode:   1,
	}
	r.core = tap.New(proc, cfg.Recorders, r.ownsProc, (*tapFx)(r), &r.stats.Counts)
	r.watch = r.newWatch()
	r.resetReplication()
	tcfg.RecorderAckHold = 0
	r.ep = transport.New(r.node, med, sched, log, tcfg)
	r.ep.Deliver = r.deliver
	med.AttachTap(r.node, r)
	r.loadRestartNumber()
	if reg := cfg.Metrics; reg != nil {
		node := int(r.node)
		r.publishLat = reg.Histogram(node, "recorder", "publish_latency_ns")
		r.replayOcc = reg.Gauge(node, "recorder", "replay_window_batches")
		reg.AddStats(node, "recorder", &r.stats)
		reg.AddStats(node, "store", r.store.Stats())
	}
	return r
}

// Stats returns the recorder counters.
func (r *Recorder) Stats() *Stats { return &r.stats }

// SetStoreFailProb adjusts the tap's store-failure probability at runtime —
// the chaos harness's in-model stand-in for stable-store write failures
// (a failed store write and a failed tap store look identical to the rest of
// the system: no recorder ack, publish-before-use blocks the frame).
func (r *Recorder) SetStoreFailProb(p float64) { r.storeFailProb = p }

// Store exposes the stable store (experiments inspect its stats).
func (r *Recorder) Store() *stablestore.Paged { return r.store }

// Proc returns the recording software's process id.
func (r *Recorder) Proc() frame.ProcID { return r.proc }

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
	return true, e.Recovering, e.Dead, e.LastSent, e.Arrivals.Len()
}

// Observe implements lan.Tap: the passive listener of §3.1. Its verdict is
// the medium's publish-before-use gate.
func (r *Recorder) Observe(f *frame.Frame) bool {
	stored, _ := r.observe(f, false)
	return stored
}

// observe is the tap. Unless the recorder is down it stores what f carries,
// and stored is the verdict; with vote set it also decides whether that
// verdict gates f (ObserveVote), and otherwise voting is true. Each process
// f names is looked up once, for both.
func (r *Recorder) observe(f *frame.Frame, vote bool) (stored, voting bool) {
	stored, voting = !r.crashed, !vote
	acks := f.AckRecs
	switch f.Type {
	case frame.Guaranteed, frame.Bundle:
		// A lone message is a bundle of one. The store-failure fault is drawn
		// per record (they land on distinct database pages); any failure
		// blocks the whole frame, which the medium gates, and the sender's
		// retransmissions land on the duplicate checks for the rest.
		recs := f.Recs
		if f.Type == frame.Guaranteed {
			r.msgOne[0].RecOf(f)
			recs = r.msgOne[:]
		}
		live := stored
		for i := range recs {
			m := &recs[i]
			if m.Type != frame.Guaranteed {
				continue
			}
			from, to := r.core.Of(m.From), r.core.Of(m.To)
			voting = voting || r.votesOnMsg(m.From, m.To, from, to)
			if live && r.storeFailProb > 0 && r.rng.Bool(r.storeFailProb) {
				r.stats.StoreFailures++
				stored = false
			} else if live {
				r.observeMessage(m, from, to)
			}
		}
	case frame.Ack:
		if len(acks) == 0 {
			// A header-only ack, which the transport never sends and bench/'s
			// recorder drive does: its From is the receiving process.
			r.ackOne[0] = frame.AckRec{ID: f.ID, Rcv: f.From}
			acks = r.ackOne[:]
		}
	default:
		voting = true
	}
	// Acknowledgement records piggybacked on any gated frame reach the
	// recorder through the same stored frame — a blocked frame's payload is
	// ignored because its receivers never see it either. They are fed to
	// the arrival-order machinery in the acceptance order the receiver
	// recorded them (§4.4.1's tracing, one frame carrying several acks). An
	// owner of any acknowledged stream gates the carrier frame: delivered
	// acknowledgements are never resent, so an abstaining owner would
	// silently lose the arrival from its shard's replay basis.
	for i := range acks {
		if !stored && voting {
			break // nothing left to store or decide
		}
		rcv := r.core.Of(acks[i].Rcv)
		voting = voting || rcv.Owns
		if stored {
			r.stats.AcksSeen++
			r.core.Acked(acks[i].ID, rcv)
		}
	}
	return stored, voting
}

// observeMessage handles one guaranteed message the tap stored; from and to
// are its processes' records. What belongs to a process stream goes to the
// core.
func (r *Recorder) observeMessage(m *frame.BundleRec, from, to *tap.Rec) {
	r.stats.MessagesSeen++
	r.stats.PublishCPU += r.cfg.Mode.PerMessageCPU()

	if r.emitAcks && to.Owns {
		// Transport-level publish-before-use (§6.1): receivers hold the
		// frame until this acknowledgement. Emission waits out the publish
		// processing time, so ModeNaive recorders visibly slow the system.
		// Only a stream's replicas acknowledge it (duplicate acks from
		// several replicas release the same held frame once).
		r.queueRecorderAck(m.ID)
	}

	if m.To == r.proc {
		return // bookkeeping traffic to the recorder itself is not a stream
	}
	if m.Channel == chanPeer || from.Notice {
		// Recorder-originated traffic: peer handoff frames, control
		// requests, replay batches. None of it belongs to a process stream.
		// Recording a peer's replay batch or checkpoint request as an
		// arrival of its destination would feed it back into the next
		// recovery as application traffic, and a handoff chunk is no
		// notice, however it decodes. A lone recorder never taps its own
		// sends, so only multi-recorder clusters see these.
		return
	}
	if to.Notice {
		// A kernel notice addressed to another recorder: every recorder
		// must apply it to stay consistent (§6.3: all recorders record all
		// messages). The tap sees retransmissions, so dedup. Notices ride
		// the request channel; what comes back on a recorder's reply
		// channels (control replies, query responses) is not one.
		if !r.noticeSeen.Seen(m.ID) {
			r.noticeSeen.Add(m.ID)
			if m.Channel == demos.ChanRequest {
				var n demos.Notice
				if r.decodeNotice(m.Body, &n) == nil {
					r.handleNotice(&n)
				}
			}
		}
		return
	}
	r.core.Heard(m, from, to, r.sched.Now())
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

// tapFx is the recorder as the tap core's Effects.
type tapFx Recorder

// publishFormats are the publish trace lines, by how the arrival was learned.
var publishFormats = [...]string{
	tap.ViaAck:             "published (#%d in stream)",
	tap.ViaInferred:        "published (#%d in stream, inferred from later ack)",
	tap.ViaPreRegistration: "published (#%d in stream, accepted before registration)",
}

func (fx *tapFx) Record(s *tap.Stream, m *frame.BundleRec, arrSeq uint64) tap.Ref {
	return tap.Ref((*Recorder)(fx).persistMessage(s.Host.(*procEntry), m, arrSeq))
}

func (fx *tapFx) ArrivalID(s *tap.Stream, arrSeq uint64, ref tap.Ref) frame.MsgID {
	return readArrival(fx.store, s.Host.(*procEntry).keys.msg, arrSeq, ref).ID
}

func (fx *tapFx) LastSent(s *tap.Stream) { (*Recorder)(fx).persistLastSent(s.Host.(*procEntry)) }

func (fx *tapFx) Published(s *tap.Stream, m *tap.Msg, arrSeq uint64, via tap.Via) {
	fx.publishLat.Observe(int64(fx.sched.Now() - m.SeenAt))
	if fx.log.Enabled() {
		// Event.Seq carries the acceptance-order position so online monitors
		// can check per-stream monotonicity without parsing Detail.
		fx.log.AddMsgSeq(trace.KindPublish, int(fx.node), m.ID.String(), s.Proc.String(), arrSeq, publishFormats[via], arrSeq)
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
	if f.To != r.proc {
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
		var n demos.Notice
		if err := r.decodeNotice(f.Body, &n); err != nil {
			r.log.Add(trace.KindRecorder, int(r.node), f.From.String(), "bad notice: %v", err)
			return true
		}
		r.handleNotice(&n)
	}
	return true
}

// decodeNotice decodes a kernel notice into n, and a checkpoint notice's
// queued ids into the recorder's scratch: tap.Core.Checkpoint reads them
// once, and nothing keeps n or its ids past handleNotice.
func (r *Recorder) decodeNotice(b []byte, n *demos.Notice) error {
	n.Queued = r.noticeQueued
	err := demos.DecodeNotice(b, n)
	r.noticeQueued = n.Queued
	return err
}

func (r *Recorder) handleNotice(n *demos.Notice) {
	r.stats.Notices++
	switch n.Kind {
	case demos.NoticeCreated:
		t := r.core.Of(n.Proc)
		if !t.Owns {
			// Another shard's stream: never enters this database, so the
			// recovery, catch-up, and query paths skip it automatically.
			r.core.DropPre(t)
			return
		}
		e := r.db[n.Proc]
		if e == nil {
			e = r.newProcEntry(n.Proc, n.Proc.Node)
			r.install(e)
		}
		e.Spec = n.Spec
		e.Node = n.Proc.Node
		e.LastCkAt = r.sched.Now()
		r.core.Created(t)
		r.persistProcMeta(e)
		r.log.Add(trace.KindRecorder, int(r.node), n.Proc.String(), "registered %q", n.Spec.Name)

	case demos.NoticeDestroyed:
		r.core.DropPre(r.core.Of(n.Proc))
		r.cancelReplay(n.Proc)
		if r.catchingUp {
			delete(r.awaitCk, n.Proc)
			r.checkCaughtUp()
		}
		if e := r.db[n.Proc]; e != nil {
			r.kill(e)
		}

	case demos.NoticeReadOrder:
		if e := r.db[n.Proc]; e != nil && !e.Dead {
			adv := r.core.ReadOrder(&e.Stream, n.ReadID, n.HeadID)
			r.persistAdvisory(e, &adv)
		}

	case demos.NoticeCheckpoint:
		complete := true
		if e := r.db[n.Proc]; e != nil && !e.Dead && !e.Stale(n.ReadCount) {
			complete = r.applyCheckpoint(e, n)
		}
		if complete {
			// An incomplete checkpoint (queued messages we never saw) is not
			// applied and keeps catch-up open; the next one will be complete.
			r.noteCatchUpProgress(n.Proc)
		} else if r.catchingUp {
			r.RequestCheckpoint(n.Proc)
		}

	case demos.NoticeMigrated:
		if e := r.db[n.Proc]; e != nil && !e.Dead {
			e.Node = n.Node
			r.persistProcMeta(e)
			r.broadcastRoute(n.Proc, n.Node, r.cfg.RouteRepeats)
			r.log.Add(trace.KindRecorder, int(r.node), n.Proc.String(), "migrated to n%d", n.Node)
		}

	case demos.NoticeCrashed:
		r.stats.ProcessCrashes++
		if e := r.db[n.Proc]; e != nil && !e.Dead {
			r.log.Add(trace.KindDetect, int(r.node), n.Proc.String(), "process fault reported")
			r.startRecovery(e, e.Node)
		}
	}
}

// applyCheckpoint stores a checkpoint tap.Core.Checkpoint applied, or
// reports it incomplete.
func (r *Recorder) applyCheckpoint(e *procEntry, n *demos.Notice) (complete bool) {
	marks, err := demos.CheckpointMarks(n.Checkpoint)
	if err != nil {
		if r.log.Enabled() {
			r.log.Add(trace.KindCheckpoint, int(r.node), e.Proc.String(), "checkpoint refused: %v", err)
		}
		return false
	}
	dropped, ok := r.core.Checkpoint(&e.Stream, n.ReadCount, n.Queued, marks, r.replaying[e.Proc] != nil)
	if !ok {
		if r.log.Enabled() {
			r.log.Add(trace.KindCheckpoint, int(r.node), e.Proc.String(),
				"checkpoint (readCount=%d) not applied: a queued message was never recorded", n.ReadCount)
		}
		return false
	}
	e.Checkpoint = n.Checkpoint
	e.CkSendSeq = n.SendSeq
	e.CkStateKB = n.StateKB
	e.LastCkAt = r.sched.Now()
	r.stats.CheckpointsStored++
	r.persistCheckpoint(e, dropped)
	if r.log.Enabled() {
		r.log.Add(trace.KindCheckpoint, int(r.node), e.Proc.String(),
			"stored checkpoint (%d KB, readCount=%d); %d messages discarded, %d retained, 0 missing",
			n.StateKB, n.ReadCount, len(dropped), e.Arrivals.Len())
	}
	return true
}

// reconstruct recovers the true read order of e's stream from its arrival
// order plus the out-of-order read advisories (§4.4.2): tap.Order's order,
// materialized from the stream's records. The bodies alias the store's
// pages and are read-only.
func (r *Recorder) reconstruct(e *procEntry) []frame.BundleRec {
	out := make([]frame.BundleRec, 0, e.Arrivals.Len())
	o := tap.NewOrder(&e.Stream, (*tapFx)(r))
	for _, seq, ref, ok := o.Next(); ok; _, seq, ref, ok = o.Next() {
		out = append(out, readArrival(r.store, e.keys.msg, seq, ref))
	}
	return out
}

// StreamMessages returns a process's published stream in reconstructed
// read order, each message the record the recorder stored — the debugger's
// input (§6.5) and what a recovery replays. The bodies are read from the
// recorder's stable store, alias its pages, and are read-only.
func (r *Recorder) StreamMessages(p frame.ProcID) []frame.BundleRec {
	e := r.db[p]
	if e == nil {
		return nil
	}
	return r.reconstruct(e)
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
	if e := r.db[p]; e != nil {
		return r.core.Summary(&e.Stream)
	}
	return nil
}

// sendCtl transmits a control message to a node's kernel process, with an
// optional reply callback correlated through the pseudo reply link's code.
func (r *Recorder) sendCtl(node frame.NodeID, to frame.ProcID, deliverToKernel bool, ctl *demos.CtlMsg, replyChan uint16, onReply func(*frame.Frame)) {
	r.sendSeq++
	f := &frame.Frame{
		Type:            frame.Guaranteed,
		Dst:             node,
		ID:              frame.MsgID{Sender: r.proc, Seq: r.restartNumber<<40 | r.sendSeq},
		From:            r.proc,
		To:              to,
		Channel:         demos.ChanRequest,
		DeliverToKernel: deliverToKernel,
		Body:            demos.EncodeCtl(ctl),
	}
	if onReply != nil {
		code := r.nextCode
		r.nextCode++
		r.waiters[code] = onReply
		f.PassedLink = &frame.Link{To: r.proc, Channel: replyChan, Code: code}
	}
	r.ep.SendGuaranteed(f)
}

// CatchingUp reports whether the recorder is still in its §6.3 restart
// catch-up phase, waiting for the checkpoints it forced to land.
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

// Package monitor checks the paper's §5 reliability claims online, while a
// simulation runs. It subscribes to the trace event stream
// (trace.Log.SetObserver) and keeps per-message and per-stream state, so a
// violation is flagged at the virtual timestamp of the violating event — the
// moment a duplicate lands, an acceptance order goes backwards, or a replay
// draws on a message that was never published — minutes of virtual time
// before the chaos checker's post-quiescence pass.
//
// The monitor is the one implementation of the exactly-once rule, which the
// chaos checker and Explain read. The rule is incarnation-aware (§3.3.3): a
// process is rebuilt from its checkpoint and published stream, so a copy its
// stream never recorded dies with the incarnation that received it, and the
// sender, still holding no ack, delivers it again. A message may be delivered
// once, plus once per recovery replay, plus once per crash that voided an
// unpublished copy.
//
// Two invariants a post-quiescence count cannot express at all become
// checkable here, because the monitor sees give-up and re-execution events
// in causal order:
//
//   - reexec-output: a duplicated delivery whose extra copy traces back to a
//     fresh (non-retransmission) resend after the sender recovered — output
//     re-executed past the suppression window escaping to the world;
//   - giveup-inference: the recorder's cumulative-ack inference promoting a
//     message whose sender had exhausted its retry budget and whose delivery
//     was never observed ("lost then wrongly inferred", latent replay-basis
//     corruption even when the run otherwise passes).
//
// On the same stream the monitor tracks virtual-time SLOs (publish→deliver
// and publish→stable latency histograms, exported through the cluster's
// metrics registry with p50/p99/p999 quantiles) and runs a stall detector: a
// periodic virtual-time tick that fires a diagnostic when no forward
// progress happens on a nonempty queue for a configurable window.
//
// The monitor is passive: it never mutates simulation state, draws no
// randomness, and its report is a deterministic function of the event
// stream — same seed, byte-identical report (asserted by tests).
package monitor

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"publishing/internal/metrics"
	"publishing/internal/simtime"
	"publishing/internal/trace"
)

// Invariant names, shared with the chaos checker and reports.
const (
	InvExactlyOnce     = "exactly-once"
	InvAcceptanceOrder = "acceptance-order"
	InvReplayBasis     = "replay-basis"
	InvReexecOutput    = "reexec-output"
	InvGiveupInference = "giveup-inference"
	InvShardOwnership  = "shard-ownership"
)

// Config tunes a Monitor.
type Config struct {
	// QueueProbe, when set, reports the total queued-message count across
	// the system and a short human-readable depth description; the stall
	// detector calls it only when progress has already paused. The cluster
	// wires this to its kernel queue-depth gauges.
	QueueProbe func() (queued int64, depths string)
	// Metrics, when set, receives the SLO latency histograms (node -1,
	// subsystem "monitor").
	Metrics *metrics.Registry
	// ShardOwner, when set (a shard map that partitions), reports whether the
	// given node may act — replay, start or finish a recovery — on the given
	// process stream. The cluster wires it to the shard map: recorder nodes
	// answer per their replica set, every other node is unconstrained. A
	// false answer is the shard-ownership violation: a recorder touching a
	// stream outside its shards means the union invariant no longer bounds
	// what any one recorder's loss can take down.
	ShardOwner func(node int, proc string) bool
}

// StallWindow is how long (virtual) forward progress may pause on a
// nonempty queue before the stall detector fires.
const StallWindow = 10 * simtime.Second

// Violation is one online invariant failure, stamped with the virtual time
// of the event that violated it.
type Violation struct {
	At        simtime.Time
	Invariant string
	// Msg is the message id involved (the causal key), when there is one.
	Msg    string
	Detail string
}

func (v Violation) String() string {
	if v.Msg != "" {
		return fmt.Sprintf("t=%v %s %s: %s", v.At, v.Invariant, v.Msg, v.Detail)
	}
	return fmt.Sprintf("t=%v %s: %s", v.At, v.Invariant, v.Detail)
}

// Stall is one stall-detector diagnostic. Stalls are diagnostics, not
// violations: a partition or a crashed node legitimately pauses progress.
type Stall struct {
	At     simtime.Time
	Detail string
}

func (s Stall) String() string { return fmt.Sprintf("t=%v stall: %s", s.At, s.Detail) }

// msgState is what the monitor remembers about one message id.
type msgState struct {
	firstSendAt simtime.Time
	haveSend    bool
	// freshSends counts non-retransmission KindSend events; sendRecGen is
	// the sender's recovery count at the first of them. A later fresh send
	// under a higher recovery count is a re-executed output.
	freshSends int
	sendRecGen int
	reexecSend bool
	delivered  int
	replays    int
	// voided counts the crashes that killed an incarnation holding an
	// unpublished copy: each licenses one more delivery, as a replay does.
	voided     int
	gaveUp     bool
	inferred   bool
	dupFlagged bool
	m5Flagged  bool
	stableSeen bool
}

// arrKey identifies one acceptance-order stream: the recorder node that
// assigned the order and the destination process.
type arrKey struct {
	node int
	proc string
}

// pubKey identifies one published message in one destination stream.
type pubKey struct {
	proc string
	msg  string
}

// unpublished is what one process's current incarnation holds that its
// stream does not: the ids delivered to it and not yet published into the
// stream, and the node those deliveries landed on.
type unpublished struct {
	node int
	ids  map[string]struct{}
}

// Monitor is the online invariant checker. Create with New, subscribe via
// trace.Log.SetObserver(m.Observe), and drive the stall detector with
// periodic Tick calls on the virtual clock. Not safe for concurrent use —
// the simulation is single-threaded by design.
type Monitor struct {
	cfg Config
	now func() simtime.Time

	msgs       map[string]*msgState
	arr        map[arrKey]uint64
	published  map[pubKey]bool
	unpub      map[string]*unpublished
	basisMiss  map[pubKey]bool
	recoveries map[string]int
	inflight   map[string]struct{}
	ownFlagged map[arrKey]bool

	violations []Violation
	stalls     []Stall

	// progress advances on deliveries, publishes, replays, and acks; the
	// stall detector watches it stand still.
	lastProgress   uint64
	lastProgressAt simtime.Time
	stalled        bool

	delivLat  *metrics.Histogram
	stableLat *metrics.Histogram

	// event counts for the report.
	events, sends, deliveries, publishes, replays, voided, acks, giveups, progress uint64
}

// New builds a monitor reading virtual time from now.
func New(cfg Config, now func() simtime.Time) *Monitor {
	m := &Monitor{
		cfg:        cfg,
		now:        now,
		msgs:       make(map[string]*msgState),
		arr:        make(map[arrKey]uint64),
		published:  make(map[pubKey]bool),
		unpub:      make(map[string]*unpublished),
		basisMiss:  make(map[pubKey]bool),
		recoveries: make(map[string]int),
		inflight:   make(map[string]struct{}),
		ownFlagged: make(map[arrKey]bool),
	}
	if cfg.Metrics != nil {
		m.delivLat = cfg.Metrics.Histogram(-1, "monitor", "deliver_latency_ns")
		m.stableLat = cfg.Metrics.Histogram(-1, "monitor", "stable_latency_ns")
	}
	return m
}

func (m *Monitor) violate(at simtime.Time, inv, msg, format string, args ...any) {
	m.violations = append(m.violations, Violation{
		At: at, Invariant: inv, Msg: msg, Detail: fmt.Sprintf(format, args...),
	})
}

func (m *Monitor) state(id string) *msgState {
	ms := m.msgs[id]
	if ms == nil {
		ms = &msgState{}
		m.msgs[id] = ms
	}
	return ms
}

// senderOf extracts the sending process from a message id ("pN.L#S").
func senderOf(msgID string) string {
	if i := strings.IndexByte(msgID, '#'); i >= 0 {
		return msgID[:i]
	}
	return msgID
}

// Observe consumes one trace event. It is the callback to install with
// trace.Log.SetObserver.
func (m *Monitor) Observe(e trace.Event) {
	m.events++
	switch e.Kind {
	case trace.KindSend:
		if e.Msg == "" {
			return
		}
		m.sends++
		ms := m.state(e.Msg)
		if e.Seq > 0 {
			return // a retransmission
		}
		ms.freshSends++
		if ms.freshSends == 1 {
			ms.firstSendAt = e.At
			ms.haveSend = true
			ms.sendRecGen = m.recoveries[senderOf(e.Msg)]
			m.inflight[e.Msg] = struct{}{}
		} else if m.recoveries[senderOf(e.Msg)] > ms.sendRecGen {
			// A fresh (not retransmitted) copy of an already-sent message,
			// emitted after its sender recovered: the send-sequence
			// suppression window let a re-executed output escape. If it
			// also gets delivered, the duplicate is attributed to
			// re-execution (reexec-output) rather than transport failure.
			ms.reexecSend = true
		}

	case trace.KindDeliver:
		if e.Msg == "" {
			return
		}
		m.deliveries++
		m.noteProgress(e.At)
		ms := m.state(e.Msg)
		ms.delivered++
		if ms.delivered == 1 && ms.haveSend {
			m.delivLat.Observe(int64(e.At - ms.firstSendAt))
		}
		if ms.delivered > 1+ms.replays+ms.voided && !ms.dupFlagged {
			ms.dupFlagged = true
			inv := InvExactlyOnce
			if ms.reexecSend {
				inv = InvReexecOutput
			}
			m.violate(e.At, inv, e.Msg, "delivered %d with %d replay and %d crash licenses (to %s)",
				ms.delivered, ms.replays, ms.voided, e.Subject)
		}
		if !m.published[pubKey{proc: e.Subject, msg: e.Msg}] {
			u := m.unpub[e.Subject]
			if u == nil {
				u = &unpublished{ids: make(map[string]struct{})}
				m.unpub[e.Subject] = u
			}
			u.node = e.Node
			u.ids[e.Msg] = struct{}{}
		}

	case trace.KindPublish:
		if e.Msg == "" {
			return
		}
		m.publishes++
		m.noteProgress(e.At)
		k := arrKey{node: e.Node, proc: e.Subject}
		if last, seen := m.arr[k]; seen && e.Seq <= last {
			m.violate(e.At, InvAcceptanceOrder, e.Msg,
				"stream %s on node %d: acceptance seq %d after %d", e.Subject, e.Node, e.Seq, last)
		}
		m.arr[k] = e.Seq
		m.published[pubKey{proc: e.Subject, msg: e.Msg}] = true
		if u := m.unpub[e.Subject]; u != nil {
			delete(u.ids, e.Msg)
		}
		ms := m.state(e.Msg)
		if !ms.inferred && strings.Contains(e.Detail, "inferred from later ack") {
			ms.inferred = true
			m.checkInference(e.At, e.Msg, ms)
		}
		// The first publish only: several recorders, or an inference plus the
		// direct tap, may publish one message.
		if ms.haveSend && !ms.stableSeen {
			ms.stableSeen = true
			m.stableLat.Observe(int64(e.At - ms.firstSendAt))
		}

	case trace.KindReplay:
		if e.Msg == "" {
			// Batch-level replay events (no message id) come from the
			// recorder driving the transfer; per-record events carry ids and
			// come from the receiving kernel, which owns no shards.
			m.checkOwnership(e)
			return
		}
		m.replays++
		m.noteProgress(e.At)
		ms := m.state(e.Msg)
		ms.replays++
		pk := pubKey{proc: e.Subject, msg: e.Msg}
		if !m.published[pk] && !m.basisMiss[pk] {
			m.basisMiss[pk] = true
			m.violate(e.At, InvReplayBasis, e.Msg,
				"replayed to %s but never observed published for that stream", e.Subject)
		}

	case trace.KindAck:
		if e.Msg == "" {
			return
		}
		m.acks++
		m.noteProgress(e.At)
		delete(m.inflight, e.Msg)

	case trace.KindGiveUp:
		if e.Msg == "" {
			return
		}
		m.giveups++
		delete(m.inflight, e.Msg)
		ms := m.state(e.Msg)
		if !ms.gaveUp {
			ms.gaveUp = true
			m.checkInference(e.At, e.Msg, ms)
		}

	case trace.KindRecoveryStart:
		m.checkOwnership(e)
		m.recoveries[e.Subject]++

	case trace.KindRecoveryDone:
		m.checkOwnership(e)

	case trace.KindCheckpoint:
		// The kernel's snapshot, traced on the node the deliveries landed
		// on, holds the effect of every delivery so far: none of them can
		// come back after a crash. A recorder's later event about that
		// checkpoint covers no more than the snapshot did, so a delivery
		// since stays unpublished.
		if u := m.unpub[e.Subject]; u != nil && u.node == e.Node {
			clear(u.ids)
		}

	case trace.KindCrash:
		switch e.Subject {
		case "recorder":
			// The recorder's acceptance counters die with it; the rebuilt
			// database restarts streams from the persisted frontier, so the
			// monotonicity watermark resets per stream on that node.
			for k := range m.arr { //det:ok order-free: deletes only
				if k.node == e.Node {
					delete(m.arr, k)
				}
			}
		case "node":
			for _, u := range m.unpub { //det:ok order-free: voiding only counts
				if u.node == e.Node {
					m.void(u)
				}
			}
		default:
			if u := m.unpub[e.Subject]; u != nil {
				m.void(u)
			}
		}
	}
}

// void ends an incarnation: what it held unpublished is lost with it, so
// each such id may be delivered once more, to the next incarnation.
func (m *Monitor) void(u *unpublished) {
	for id := range u.ids { //det:ok order-free: counts only
		m.state(id).voided++
		m.voided++
	}
	clear(u.ids)
}

// checkOwnership fires the shard-ownership invariant when a node acts on a
// stream outside its shard replica set (sharded clusters only; flagged once
// per node/stream pair so one confused recorder doesn't flood the report).
func (m *Monitor) checkOwnership(e trace.Event) {
	if m.cfg.ShardOwner == nil || m.cfg.ShardOwner(e.Node, e.Subject) {
		return
	}
	k := arrKey{node: e.Node, proc: e.Subject}
	if m.ownFlagged[k] {
		return
	}
	m.ownFlagged[k] = true
	m.violate(e.At, InvShardOwnership, "",
		"node %d acted on stream %s outside its shard replica set", e.Node, e.Subject)
}

// checkInference fires the giveup-inference invariant once both halves of
// the bad pattern are in: the sender exhausted its retries on this message
// and the recorder promoted it into the replay basis by inference, with no
// delivery ever observed. Either order of the two events is caught.
func (m *Monitor) checkInference(at simtime.Time, id string, ms *msgState) {
	if ms.gaveUp && ms.inferred && ms.delivered == 0 && !ms.m5Flagged {
		ms.m5Flagged = true
		m.violate(at, InvGiveupInference, id,
			"published by cumulative-ack inference, but the sender gave up and no delivery was ever observed")
	}
}

// noteProgress records forward progress at virtual time at.
func (m *Monitor) noteProgress(at simtime.Time) {
	m.progress++
	m.lastProgressAt = at
	m.stalled = false
}

// Tick runs one stall-detector check; the cluster schedules it on the
// virtual clock (twice per window). It reads state and appends diagnostics —
// it never mutates simulation state, so arming the tick cannot perturb a
// deterministic run.
func (m *Monitor) Tick() {
	now := m.now()
	if m.progress != m.lastProgress {
		m.lastProgress = m.progress
		return
	}
	if m.stalled || now-m.lastProgressAt < StallWindow {
		return
	}
	queued, depths := int64(0), ""
	if m.cfg.QueueProbe != nil {
		queued, depths = m.cfg.QueueProbe()
	}
	if queued == 0 && len(m.inflight) == 0 {
		return
	}
	m.stalled = true
	ids := make([]string, 0, len(m.inflight))
	for id := range m.inflight { //det:ok keys sorted below
		ids = append(ids, id)
	}
	sort.Strings(ids)
	if len(ids) > 8 {
		ids = append(ids[:8], fmt.Sprintf("… (%d total)", len(m.inflight)))
	}
	detail := fmt.Sprintf("no forward progress since t=%v (window %v): queued=%d", m.lastProgressAt, StallWindow, queued)
	if depths != "" {
		detail += " [" + depths + "]"
	}
	if len(ids) > 0 {
		detail += "; in-flight: " + strings.Join(ids, ", ")
	}
	m.stalls = append(m.stalls, Stall{At: now, Detail: detail})
}

// Violations returns every invariant violation flagged so far, in event
// order.
func (m *Monitor) Violations() []Violation {
	if m == nil {
		return nil
	}
	return m.violations
}

// Stalls returns the stall diagnostics fired so far.
func (m *Monitor) Stalls() []Stall {
	if m == nil {
		return nil
	}
	return m.stalls
}

// Licenses returns the exactly-once rule's totals: the deliveries seen, and
// the extra deliveries licensed by recovery replays and by crashes that
// voided unpublished copies.
func (m *Monitor) Licenses() (deliveries, replays, voided uint64) {
	return m.deliveries, m.replays, m.voided
}

// Passed reports whether no invariant was violated (stalls don't count).
func (m *Monitor) Passed() bool { return m == nil || len(m.violations) == 0 }

// WriteReport writes the deterministic monitor report: event counts, SLO
// quantiles, violations, and stall diagnostics. Same seed ⇒ byte-identical
// report (asserted by tests).
func (m *Monitor) WriteReport(w io.Writer) error {
	if m == nil {
		_, err := fmt.Fprintln(w, "monitor: disabled")
		return err
	}
	fmt.Fprintf(w, "monitor events=%d sends=%d deliveries=%d publishes=%d replays=%d voided=%d acks=%d giveups=%d\n",
		m.events, m.sends, m.deliveries, m.publishes, m.replays, m.voided, m.acks, m.giveups)
	writeSLO := func(name string, h *metrics.Histogram) {
		if h.Count() == 0 {
			fmt.Fprintf(w, "slo %-16s n=0\n", name)
			return
		}
		fmt.Fprintf(w, "slo %-16s p50=%v p99=%v p999=%v n=%d\n", name,
			simtime.Time(h.Quantile(0.5)), simtime.Time(h.Quantile(0.99)),
			simtime.Time(h.Quantile(0.999)), h.Count())
	}
	if m.delivLat != nil {
		writeSLO("publish→deliver", m.delivLat)
		writeSLO("publish→stable", m.stableLat)
	}
	fmt.Fprintf(w, "violations=%d\n", len(m.violations))
	for _, v := range m.violations {
		fmt.Fprintf(w, "  VIOLATION %s\n", v)
	}
	fmt.Fprintf(w, "stalls=%d\n", len(m.stalls))
	for _, s := range m.stalls {
		fmt.Fprintf(w, "  %s\n", s)
	}
	verdict := "PASS"
	if !m.Passed() {
		verdict = fmt.Sprintf("FAIL (%d violations)", len(m.violations))
	}
	_, err := fmt.Fprintf(w, "monitor verdict: %s\n", verdict)
	return err
}

// Report returns WriteReport's output as a string.
func (m *Monitor) Report() string {
	var b strings.Builder
	_ = m.WriteReport(&b)
	return b.String()
}

// Package trace records structured simulation events. The paper's
// implementation used Bart Miller's metering system to obtain the DEMOS/MP
// measurements (Acknowledgements, Ch. 5); this package plays the same role:
// a low-overhead event log that experiments and tests can filter and assert
// against, and that the demosnet CLI can stream to the terminal.
//
// Events that concern one particular message carry its id in Event.Msg, so a
// message can be followed causally from send through medium tap, recorder
// publish, delivery, ack, and recovery replay. WriteChrome (chrome.go) turns
// that thread into per-node timelines viewable in about:tracing / Perfetto.
package trace

import (
	"fmt"
	"io"
	"strings"

	"publishing/internal/simtime"
)

// Kind classifies trace events.
type Kind int

const (
	KindSend Kind = iota
	KindDeliver
	KindAck
	KindPublish
	KindCheckpoint
	KindCrash
	KindDetect
	KindRecoveryStart
	KindReplay
	KindRecoveryDone
	KindDrop
	KindSuppress
	KindCollision
	KindSchedule
	KindControl
	KindRecorder
	KindGiveUp
	KindOther
)

var kindNames = [...]string{
	"send", "deliver", "ack", "publish", "checkpoint", "crash", "detect",
	"recovery-start", "replay", "recovery-done", "drop", "suppress",
	"collision", "schedule", "control", "recorder", "give-up", "other",
}

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one recorded occurrence.
type Event struct {
	At   simtime.Time
	Kind Kind
	// Node is the node id the event happened on, or -1 for medium-level
	// events with no single node.
	Node int
	// Subject identifies the process/message involved, free-form.
	Subject string
	// Msg is the id of the message this event concerns, or "" for events
	// that are not message-scoped. It is the causal key: every event
	// carrying the same Msg belongs to one message's lifetime.
	Msg string
	// Seq is an event-kind-specific sequence number: for KindPublish it is
	// the recorder's acceptance-order position in the destination stream
	// (the value online monitors check monotonicity of), and for KindSend
	// the transmission's attempt number, above zero only on a
	// retransmission. Zero elsewhere. Exporters do not print it.
	Seq uint64
	// Detail is a human-readable explanation.
	Detail string
}

// String formats the event as one log line.
func (e Event) String() string {
	if e.Msg != "" && e.Msg != e.Subject {
		return fmt.Sprintf("%12s node=%-2d %-14s %-22s %s msg=%s", e.At, e.Node, e.Kind, e.Subject, e.Detail, e.Msg)
	}
	return fmt.Sprintf("%12s node=%-2d %-14s %-22s %s", e.At, e.Node, e.Kind, e.Subject, e.Detail)
}

// Log collects events. The zero value is ready to use and records nothing
// until enabled; a nil *Log is also safe everywhere, so simulation code can
// trace unconditionally.
//
// A bounded log (SetFlightRecorder) keeps only the most recent events in a
// ring buffer — "flight recorder" mode, so long sweeps don't grow without
// bound while the tail leading up to a failure stays available.
type Log struct {
	enabled  bool
	detailed bool
	events   []Event
	// limit > 0 bounds events to a ring of that capacity; start is the
	// ring's logical head once it has wrapped.
	limit   int
	start   int
	wrapped bool
	dropped uint64
	sink    io.Writer
	clock   func() simtime.Time
	// filter, when non-nil, drops events for which it returns false. It
	// runs before Detail is formatted (Detail is always "" inside the
	// filter), so rejected events cost no fmt work.
	filter func(Event) bool
	// observer, when non-nil, sees every enabled event — including events
	// the filter rejects from retention — with Detail formatted. It is the
	// streaming tap online monitors (internal/monitor) subscribe through.
	observer func(Event)
	// obsBuf, when obsCap > 0, batches observer callbacks: events queue
	// here and the observer sees them in bursts at flush points (buffer
	// full, FlushObservers, Enable/SetObserver transitions) instead of one
	// virtual call per event — trimming the monitored hot path. Events are
	// delivered in exact record order, so batching is invisible to any
	// observer that keys its verdicts on Event.At rather than on when the
	// callback happened to run.
	obsBuf []Event
	obsCap int
}

// New returns an enabled log reading timestamps from clock.
func New(clock func() simtime.Time) *Log {
	return &Log{enabled: true, clock: clock}
}

// SetSink mirrors every recorded event to w as it happens.
func (l *Log) SetSink(w io.Writer) {
	if l != nil {
		l.sink = w
	}
}

// SetFilter installs a predicate; events failing it are not recorded. The
// predicate sees the event before Detail formatting (Detail is ""): filter
// on Kind, Node, Subject, or Msg.
func (l *Log) SetFilter(f func(Event) bool) {
	if l != nil {
		l.filter = f
	}
}

// SetObserver installs (or, with nil, removes) a streaming observer. The
// observer is called synchronously for every event recorded while the log is
// enabled — before the retention filter, so a CLI filter cannot blind a
// monitor — with Detail already formatted. Observers must not re-enter the
// log. A disabled log calls no observer: disabling tracing disables
// observation too, keeping the hot path's disabled cost at one branch.
func (l *Log) SetObserver(f func(Event)) {
	if l != nil {
		l.FlushObservers() // pending events belong to the outgoing observer
		l.observer = f
	}
}

// SetObserverRing sets the observer batch size: n > 0 buffers up to n
// events between observer deliveries (see FlushObservers for when the
// buffer drains), n <= 0 restores the default synchronous per-event
// callback. The cluster's monitor wiring batches one stall-window's worth
// of events per flush.
func (l *Log) SetObserverRing(n int) {
	if l == nil {
		return
	}
	l.FlushObservers()
	if n <= 0 {
		l.obsCap, l.obsBuf = 0, nil
		return
	}
	l.obsCap = n
	l.obsBuf = make([]Event, 0, n)
}

// FlushObservers delivers any batched events to the observer immediately,
// in record order. Harmless (and O(1)) when nothing is buffered. Callers
// that read observer-derived state mid-run — the monitor's tick, a
// violation query — flush first so the observer is current.
func (l *Log) FlushObservers() {
	if l == nil || len(l.obsBuf) == 0 {
		return
	}
	f := l.observer
	buf := l.obsBuf
	l.obsBuf = l.obsBuf[:0]
	if f == nil {
		return
	}
	for i := range buf {
		f(buf[i])
	}
}

// Enable turns recording on or off. Turning recording off flushes any
// batched observer events: everything recorded while enabled reaches the
// observer.
func (l *Log) Enable(on bool) {
	if l != nil {
		if !on {
			l.FlushObservers()
		}
		l.enabled = on
	}
}

// SetDetailed turns per-message fine-grained events (per-record replay,
// end-to-end ack completion) on or off. They are off by default: exporters
// that reconstruct full causal timelines enable them, and hot paths consult
// Detailed before paying for them.
func (l *Log) SetDetailed(on bool) {
	if l != nil {
		l.detailed = on
	}
}

// Detailed reports whether fine-grained per-message events are wanted.
func (l *Log) Detailed() bool { return l != nil && l.detailed }

// Enabled reports whether the log is recording at all. Hot paths that
// pre-format arguments (message ids, frame summaries) consult it so a
// disabled trace costs a nil check and a branch, not a fmt call.
func (l *Log) Enabled() bool { return l != nil && l.enabled }

// SetFlightRecorder bounds the log to the most recent n events (n <= 0
// removes the bound). If more than n events are already recorded, only the
// newest n survive.
func (l *Log) SetFlightRecorder(n int) {
	if l == nil {
		return
	}
	if n <= 0 {
		if l.wrapped {
			l.events = l.ordered(nil)
		}
		l.limit, l.start, l.wrapped = 0, 0, false
		return
	}
	ev := l.events
	if l.wrapped {
		ev = l.ordered(nil)
	}
	if len(ev) > n {
		ev = ev[len(ev)-n:]
	}
	l.events = append(make([]Event, 0, n), ev...)
	l.limit, l.start, l.wrapped = n, 0, false
}

// Dropped returns how many events the flight-recorder bound has discarded.
func (l *Log) Dropped() uint64 {
	if l == nil {
		return 0
	}
	return l.dropped
}

// Add records an event.
func (l *Log) Add(kind Kind, node int, subject, format string, args ...any) {
	l.record(kind, node, "", subject, 0, format, args...)
}

// AddMsg records an event about one particular message: msg is the
// message's id, the causal key exporters group a message's lifetime by.
func (l *Log) AddMsg(kind Kind, node int, msg, subject, format string, args ...any) {
	l.record(kind, node, msg, subject, 0, format, args...)
}

// AddMsgSeq is AddMsg with an event sequence number (Event.Seq) attached —
// the recorder stamps KindPublish events with their acceptance-order
// position through this, and the transport a retransmission with its
// attempt number.
func (l *Log) AddMsgSeq(kind Kind, node int, msg, subject string, seq uint64, format string, args ...any) {
	l.record(kind, node, msg, subject, seq, format, args...)
}

func (l *Log) record(kind Kind, node int, msg, subject string, seq uint64, format string, args ...any) {
	if l == nil || !l.enabled {
		return
	}
	e := Event{Kind: kind, Node: node, Subject: subject, Msg: msg, Seq: seq}
	if l.clock != nil {
		e.At = l.clock()
	}
	// The filter runs before Detail exists, so a rejected event never pays
	// for formatting — unless an observer is installed, which must see the
	// formatted event whatever the retention filter decides.
	keep := l.filter == nil || l.filter(e)
	if !keep && l.observer == nil {
		return
	}
	if len(args) == 0 {
		e.Detail = format
	} else {
		e.Detail = fmt.Sprintf(format, args...)
	}
	if l.observer != nil {
		if l.obsCap > 0 {
			l.obsBuf = append(l.obsBuf, e)
			if len(l.obsBuf) >= l.obsCap {
				l.FlushObservers()
			}
		} else {
			l.observer(e)
		}
	}
	if !keep {
		return
	}
	l.append(e)
	if l.sink != nil {
		fmt.Fprintln(l.sink, e)
	}
}

// append stores e, honoring the flight-recorder bound.
func (l *Log) append(e Event) {
	if l.limit <= 0 || len(l.events) < l.limit {
		l.events = append(l.events, e)
		return
	}
	l.events[l.start] = e
	l.start++
	if l.start == l.limit {
		l.start = 0
	}
	l.wrapped = true
	l.dropped++
}

// each calls f for every recorded event in order, without allocating.
func (l *Log) each(f func(e *Event)) {
	if l == nil {
		return
	}
	n := len(l.events)
	for i := 0; i < n; i++ {
		idx := i
		if l.wrapped {
			idx = (l.start + i) % n
		}
		f(&l.events[idx])
	}
}

// ordered appends the recorded events to dst in chronological order.
func (l *Log) ordered(dst []Event) []Event {
	l.each(func(e *Event) { dst = append(dst, *e) })
	return dst
}

// Events returns all recorded events in order. Until the flight-recorder
// ring wraps this is the backing slice (no copy); after wrapping it is a
// fresh ordered copy.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	if !l.wrapped {
		return l.events
	}
	return l.ordered(make([]Event, 0, len(l.events)))
}

// OfKind returns the recorded events of one kind.
func (l *Log) OfKind(k Kind) []Event {
	if l == nil {
		return nil
	}
	var out []Event
	l.each(func(e *Event) {
		if e.Kind == k {
			out = append(out, *e)
		}
	})
	return out
}

// Count returns how many events of kind k were recorded.
func (l *Log) Count(k Kind) int {
	n := 0
	l.each(func(e *Event) {
		if e.Kind == k {
			n++
		}
	})
	return n
}

// CountSubject returns how many events of kind k mention subject.
func (l *Log) CountSubject(k Kind, subject string) int {
	n := 0
	l.each(func(e *Event) {
		if e.Kind == k && e.Subject == subject {
			n++
		}
	})
	return n
}

// Contains reports whether any event of kind k has a detail containing s.
func (l *Log) Contains(k Kind, s string) bool {
	found := false
	l.each(func(e *Event) {
		if !found && e.Kind == k && strings.Contains(e.Detail, s) {
			found = true
		}
	})
	return found
}

// Reset discards recorded events (the flight-recorder bound stays).
func (l *Log) Reset() {
	if l != nil {
		l.events = l.events[:0]
		l.start, l.wrapped, l.dropped = 0, false, 0
	}
}

// Dump writes every recorded event to w.
func (l *Log) Dump(w io.Writer) {
	l.each(func(e *Event) { fmt.Fprintln(w, e) })
}

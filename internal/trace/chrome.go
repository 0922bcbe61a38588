// Chrome trace-event export: turns the event log into the JSON object
// format understood by chrome://tracing and Perfetto (ui.perfetto.dev), so
// any simulation run can be inspected as per-node timelines with each
// message's life — send, publish, delivery, ack, replay — threaded through
// as an async span keyed by its message id.
package trace

import (
	"encoding/json"
	"io"
	"sort"

	"publishing/internal/simtime"
)

// chromeEvent is one entry in the trace-event JSON "traceEvents" array.
type chromeEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat,omitempty"`
	Ph    string            `json:"ph"`
	Ts    float64           `json:"ts"`
	Pid   int               `json:"pid"`
	Tid   int               `json:"tid"`
	ID    string            `json:"id,omitempty"`
	Scope string            `json:"s,omitempty"`
	Args  map[string]string `json:"args,omitempty"`
}

// chromeFile is the top-level trace-event JSON object.
type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// chromePid maps a trace node id to a Chrome pid. Node -1 (medium-level
// events) becomes pid 0; node n becomes pid n+1, since the format dislikes
// negative pids.
func chromePid(node int) int { return node + 1 }

// chromeTs converts virtual time to the format's microsecond float.
func chromeTs(t simtime.Time) float64 { return float64(t) / float64(simtime.Microsecond) }

// WriteChrome writes events as Chrome trace-event JSON. Every event appears
// as an instant on its node's timeline; message-scoped events (Msg != "")
// additionally form an async span per message id: KindSend opens it,
// KindAck closes it, and everything between — publish, delivery, replay —
// lands inside it as async instants sharing the id. Replay events therefore
// reference the same span id as the original publish, which is what lets a
// recovery's replays be read against the pre-crash traffic.
func WriteChrome(w io.Writer, events []Event) error {
	file := chromeFile{DisplayTimeUnit: "ms"}

	// Name each pid first so the viewer shows "node N" / "medium" rows.
	pids := map[int]string{}
	for i := range events {
		node := events[i].Node
		if _, ok := pids[node]; !ok {
			if node < 0 {
				pids[node] = "medium"
			} else {
				pids[node] = "node " + itoa(node)
			}
		}
	}
	nodes := make([]int, 0, len(pids))
	for n := range pids { //det:ok keys sorted below
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	for _, n := range nodes {
		file.TraceEvents = append(file.TraceEvents, chromeEvent{
			Name: "process_name",
			Ph:   "M",
			Pid:  chromePid(n),
			Args: map[string]string{"name": pids[n]},
		})
	}

	for i := range events {
		e := &events[i]
		args := map[string]string{"subject": e.Subject}
		if e.Detail != "" {
			args["detail"] = e.Detail
		}
		if e.Msg != "" {
			args["msg"] = e.Msg
		}
		ce := chromeEvent{
			Name:  e.Kind.String(),
			Cat:   e.Kind.String(),
			Ph:    "i",
			Scope: "p",
			Ts:    chromeTs(e.At),
			Pid:   chromePid(e.Node),
			Args:  args,
		}
		file.TraceEvents = append(file.TraceEvents, ce)
		if e.Msg == "" {
			continue
		}
		// The async span of this message's lifetime, keyed by its id.
		span := chromeEvent{
			Name: "msg",
			Cat:  "msg",
			Ts:   ce.Ts,
			Pid:  ce.Pid,
			ID:   e.Msg,
			Args: map[string]string{"kind": e.Kind.String()},
		}
		switch e.Kind {
		case KindSend:
			span.Ph = "b"
		case KindAck:
			span.Ph = "e"
		default:
			span.Ph = "n"
		}
		file.TraceEvents = append(file.TraceEvents, span)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(&file)
}

// WriteChrome exports the log's events; see the package-level WriteChrome.
func (l *Log) WriteChrome(w io.Writer) error {
	return WriteChrome(w, l.Events())
}

// itoa avoids strconv for the tiny node-id case.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

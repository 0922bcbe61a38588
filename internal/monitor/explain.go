package monitor

import (
	"fmt"
	"io"
	"strings"

	"publishing/internal/trace"
)

// Explain writes a causal post-mortem for one message: every recorded trace
// event carrying the id, in virtual-time order — send, retransmissions,
// medium tap, recorder publish (with its acceptance-order position),
// delivery, end-to-end ack, recovery replays — followed by a lifetime
// summary and an exactly-once verdict. The verdict is the monitor's: every
// event goes through a throw-away Monitor, because crashes and checkpoints
// carry no message id yet decide whether a re-delivery was licensed. It
// returns the matching events so callers can export them as a single-message
// Chrome trace (trace.WriteChrome); nil means the id never appears in events
// (the ring may have dropped it, or detailed tracing was off).
func Explain(w io.Writer, events []trace.Event, msgID string) []trace.Event {
	m := New(Config{}, nil)
	var out []trace.Event
	for _, e := range events {
		m.Observe(e)
		if e.Msg == msgID {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		fmt.Fprintf(w, "no trace events mention message %s — raise the flight-recorder bound or enable detailed tracing\n", msgID)
		return nil
	}

	fmt.Fprintf(w, "message %s: %d events, t=%v … t=%v\n", msgID, len(out), out[0].At, out[len(out)-1].At)
	var retrans, published, acks int
	for _, e := range out {
		switch e.Kind {
		case trace.KindSend:
			if strings.HasPrefix(e.Detail, "retransmit") {
				retrans++
			}
		case trace.KindPublish:
			published++
		case trace.KindAck:
			acks++
		}
		fmt.Fprintf(w, "  %12v %-14s node=%-2d %-14s %s\n", e.At, e.Kind, e.Node, e.Subject, e.Detail)
	}

	ms := m.state(msgID)
	fmt.Fprintf(w, "lifetime: sends=%d retransmits=%d published=%d delivered=%d replays=%d voided=%d acks=%d\n",
		ms.freshSends, retrans, published, ms.delivered, ms.replays, ms.voided, acks)
	switch {
	case ms.gaveUp && ms.delivered == 0:
		fmt.Fprintln(w, "verdict: LOST — the sender exhausted its retry budget and no delivery was observed")
	case ms.delivered == 0:
		fmt.Fprintln(w, "verdict: never delivered (still in flight, or suppressed)")
	case ms.dupFlagged:
		fmt.Fprintf(w, "verdict: DUPLICATE — delivered %d times with only %d replay and %d crash licenses\n",
			ms.delivered, ms.replays, ms.voided)
	case ms.replays+ms.voided > 0:
		fmt.Fprintf(w, "verdict: delivered %d times within %d licenses (original + %d replayed + %d voided by a crash)\n",
			ms.delivered, 1+ms.replays+ms.voided, ms.replays, ms.voided)
	default:
		fmt.Fprintln(w, "verdict: delivered exactly once")
	}
	return out
}

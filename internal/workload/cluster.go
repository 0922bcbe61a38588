package workload

import (
	"publishing/internal/simtime"
	"publishing/internal/stablestore"
)

// MsgEvent is one published message of the cluster-broadcast view of the
// workload stream: at At, proc Pub publishes a MsgBytes-byte message whose
// FanOut subscriber advisories go to Subs. It is the generator's seeded op
// stream (an OpAppend on a message key plus its queued advisory appends),
// re-expressed as inter-process traffic so the same arrival discipline —
// open-loop Poisson with hotspot skew — can drive a full simulated cluster
// instead of a bare store.
type MsgEvent struct {
	At   simtime.Time
	Pub  int
	Subs []int
}

// Msgs generates the first n messages of cfg's stream as cluster traffic.
// Flush, checkpoint, and compaction ops are storage-engine artifacts and are
// skipped; everything that shapes inter-process load — arrival times,
// publisher skew, subscriber draws — is preserved exactly, so a (Seed,
// Procs, Rate, Hotspot, FanOut) tuple names the same offered load whether it
// hits a store or a cluster.
func Msgs(cfg Config, n int) []MsgEvent {
	g := New(cfg)
	pubOf := make(map[string]int, len(g.msgKeys))
	subOf := make(map[string]int, len(g.advKeys))
	for p, k := range g.msgKeys {
		pubOf[k] = p
	}
	for p, k := range g.advKeys {
		subOf[k] = p
	}
	out := make([]MsgEvent, 0, n)
	// The generator emits each arrival's message record first and queues its
	// advisory fan-out behind it, so after the n-th arrival only the pending
	// queue still holds that message's subscribers.
	for len(out) < n || len(g.pending) > 0 {
		op := g.Next()
		if op.Kind != OpAppend {
			continue
		}
		if p, ok := pubOf[op.Rec.Key]; ok && op.Rec.Kind == stablestore.KindMessage {
			out = append(out, MsgEvent{At: op.At, Pub: p})
		} else if s, ok := subOf[op.Rec.Key]; ok && len(out) > 0 {
			m := &out[len(out)-1]
			m.Subs = append(m.Subs, s)
		}
	}
	return out
}

package lan

import (
	"publishing/internal/frame"
	"publishing/internal/simtime"
)

// Bridge is the §6.2 store-and-forward gateway joining two LANs into a
// cluster configuration ("a number of broadcast media networks connected
// via a store and forward network", CM*-style, or LANs joined through the
// ArpaNet). Each side keeps its own recorder: "a recorder can be attached
// to each cluster to perform recovery for that cluster alone. The great
// advantage to this scheme is autonomous control."
//
// The bridge attaches to each medium impersonating every node of the other
// side, so senders need no routing changes: a frame addressed to a remote
// node is delivered to the bridge locally and re-transmitted on the far
// medium after the store-and-forward delay, preserving its source address.
type Bridge struct {
	sched *simtime.Scheduler
	a, b  Medium
	// Delay is the store-and-forward latency per crossing.
	Delay simtime.Time
	// Forwarded counts crossings.
	Forwarded uint64
	// down pauses the bridge (an inter-cluster link failure — the §3.6
	// partition, at the granularity §6.2's per-cluster recorders handle).
	down bool
}

// NewBridge joins media a and b. aNodes and bNodes list each side's station
// ids; they must be disjoint.
func NewBridge(sched *simtime.Scheduler, a, b Medium, aNodes, bNodes []frame.NodeID, delay simtime.Time) *Bridge {
	br := &Bridge{sched: sched, a: a, b: b, Delay: delay}
	for _, n := range bNodes {
		a.Attach(n, &bridgePort{br: br, to: b}) // b's nodes, impersonated on a
	}
	for _, n := range aNodes {
		b.Attach(n, &bridgePort{br: br, to: a}) // a's nodes, impersonated on b
	}
	return br
}

// SetDown severs (or restores) the inter-cluster link.
func (br *Bridge) SetDown(down bool) { br.down = down }

// bridgePort is the bridge's station presence on one medium; frames it
// receives belong on the other side.
type bridgePort struct {
	br *Bridge
	to Medium
}

// Receive implements Station: store, wait, forward. Broadcasts stay local
// to their cluster (each side's recorder and watchdogs manage their own
// nodes — the autonomy §6.2 argues for), which also keeps the two-sided
// impersonation from amplifying or looping broadcast frames.
func (p *bridgePort) Receive(f *frame.Frame) {
	if p.br.down || f.Dst == frame.Broadcast {
		return
	}
	// f is valid only during this call, and it goes back to its sender
	// once this side is done with it. The far medium's Send takes ownership
	// of what it is given and may mark it corrupt, while f is still being
	// heard on this side — and a duplicated delivery would forward f twice.
	// So each crossing is a new transmission with its own frame.
	g := f.Clone()
	p.br.sched.After(p.br.Delay, func() {
		if p.br.down {
			return
		}
		p.br.Forwarded++
		p.to.Send(g.Src, g)
	})
}

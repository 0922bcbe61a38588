// Package workload generates open-loop cluster traffic: a seeded Poisson
// arrival stream (the open-queuing-model discipline of §5.1 — the same
// arrival process internal/queuing feeds its RESQ2-style networks) shaped by
// hotspot publisher skew and fan-out to subscribers.
//
// The stream is open-loop: arrival times come from the seeded exponential
// clock alone, never from the consumer's completion times, so a slow
// consumer faces the same offered load as a fast one.
package workload

import "publishing/internal/simtime"

// Config shapes the generated stream.
type Config struct {
	// Seed drives the arrival clock and all skew choices; same seed,
	// same stream.
	Seed uint64
	// Procs is the cluster size: the number of publishing processes
	// (default 1).
	Procs int
	// Rate is the aggregate message arrival rate in messages per
	// (virtual) second — the Poisson intensity (default 1000).
	Rate float64
	// Hotspot is the fraction of arrivals whose publisher is drawn from
	// the hot set (0 = uniform over all procs).
	Hotspot float64
	// HotProcs is the hot-set size (default 1): procs 0..HotProcs-1.
	HotProcs int
	// MsgBytes is the message body size the caller sends; Msgs does not
	// read it.
	MsgBytes int
	// FanOut is how many subscribers each message goes to (0 = none).
	// Subscribers are drawn uniformly from all procs, the publisher
	// included, so hotspot publishers also concentrate fan-in.
	FanOut int
}

// MsgEvent is one published message: at At, proc Pub sends a message to
// each proc in Subs (nil when FanOut is 0).
type MsgEvent struct {
	At   simtime.Time
	Pub  int
	Subs []int
}

// Msgs generates the first n messages of cfg's stream. Per arrival it
// draws, in order: the next interarrival gap, the hot-set coin (only when
// Hotspot > 0), the publisher, then FanOut subscribers.
func Msgs(cfg Config, n int) []MsgEvent {
	procs := max(cfg.Procs, 1)
	hot := min(max(cfg.HotProcs, 1), procs)
	rate := cfg.Rate
	if rate <= 0 {
		rate = 1000
	}
	rng := simtime.NewRand(cfg.Seed)
	mean := simtime.Time(float64(simtime.Second) / rate)
	gap := func() simtime.Time {
		if d := rng.Exp(mean); d > 0 {
			return d
		}
		return 1
	}
	out := make([]MsgEvent, n)
	next := gap()
	for i := range out {
		at := next
		next = at + gap()
		from := procs
		if cfg.Hotspot > 0 && rng.Float64() < cfg.Hotspot {
			from = hot
		}
		pub := rng.Intn(from)
		var subs []int
		for range cfg.FanOut {
			subs = append(subs, rng.Intn(procs))
		}
		out[i] = MsgEvent{At: at, Pub: pub, Subs: subs}
	}
	return out
}

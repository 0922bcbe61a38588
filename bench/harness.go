package main

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"publishing"
	"publishing/internal/monitor"
	"publishing/internal/simtime"
	"publishing/internal/trace"
)

// bodyHdr is the benchmark's header at the front of every application
// body: the message's index in the generated workload and the virtual
// time of its Send. Stamping the body (not a side table) keeps latency
// right across re-execution: a recovering worker re-sends with new stamps,
// those sends are suppressed, and the witness only ever reads the stamp of
// the copy that was really delivered.
const bodyHdr = 12

// harness is the benchmark's side of a pass: the message ledger the sinks
// write into and the clock they read. Process goroutines and the event
// loop alternate strictly (the kernel's yield/resume handshake), so plain
// fields are race-free.
type harness struct {
	now   func() simtime.Time
	total int // application messages the workload will deliver

	timed     bool   // set between the set-up and the drain
	first     bitset // message index delivered for the first time
	delivered int    // first-time deliveries
	replays   int    // re-deliveries to a new incarnation (recovery replay)
	dups      int    // second delivery to one incarnation: an exactly-once failure
	lat       []int64
	lag       []int64 // open-loop generators: how late each arrival was sent

	generated time.Time // when the inputs existed and cluster building began

	// Traced pass only.
	traced bool
	spans  *spanRecorder
	mon    *monitor.Monitor
}

// newHarness is called by a workload's build function once its inputs are
// generated and it knows how many messages they make.
func newHarness(o passOpts, total int) *harness {
	return &harness{
		total:     total,
		first:     newBitset(total),
		lat:       make([]int64, 0, total),
		lag:       make([]int64, 0, total),
		generated: time.Now(),
		traced:    o.traced,
	}
}

// flightRecorder bounds the trace log's retention in the traced pass; the
// observer sees every event regardless, in batches of observerRing.
const flightRecorder, observerRing = 4096, 256

// attach connects the harness to a freshly built cluster, before anything
// is spawned: the clock the sinks read and, depending on the pass, tracing
// off or tracing on with one observer feeding the span recorder and an
// invariant monitor.
func (h *harness) attach(c *publishing.Cluster) {
	h.now = c.Now
	log := c.Trace()
	if !h.traced {
		log.Enable(false)
		return
	}
	log.SetDetailed(true)
	log.SetFlightRecorder(flightRecorder)
	h.spans = newSpanRecorder(len(c.Nodes()))
	// No Metrics registry and no stall tick: the monitor must not add
	// counters or events, so that the traced pass's fingerprint can be
	// compared with the untraced ones.
	mcfg := monitor.Config{}
	if sm := c.ShardMap(); sm != nil {
		nodes := len(c.Nodes())
		mcfg.ShardOwner = func(node int, proc string) bool {
			rank := node - nodes
			var p publishing.ProcID
			if rank < 0 || rank >= sm.Recorders() || !parseProc(proc, &p) {
				return true // only recorders are bound to shards, and only on process streams
			}
			return sm.Replicates(rank, sm.ShardOf(p))
		}
	}
	h.mon = monitor.New(mcfg, c.Now)
	log.SetObserver(func(e trace.Event) {
		h.spans.observe(e)
		h.mon.Observe(e)
	})
	// Batched as Config.Monitor batches them; both consumers key on Event.At.
	log.SetObserverRing(observerRing)
}

// body allocates a size-byte body stamped with idx and the current virtual
// time. A fresh slice per send is required, not a convenience: the kernel
// and the transport retain the slice until the message is acknowledged.
func (h *harness) body(idx, size int) []byte {
	if size < bodyHdr {
		size = bodyHdr
	}
	b := make([]byte, size)
	binary.BigEndian.PutUint32(b, uint32(idx))
	binary.BigEndian.PutUint64(b[4:], uint64(h.now()))
	return b
}

// handle records one Handle call at a sink and returns the message index
// and whether this was the message's first delivery. seen is the receiving
// incarnation's own bitmap: a bit already set there is a duplicate; a bit
// set only in the global bitmap is a replay re-delivery to a recovered
// incarnation.
func (h *harness) handle(seen bitset, m publishing.Msg) (idx int, fresh bool) {
	idx = int(binary.BigEndian.Uint32(m.Body))
	now := h.now()
	switch {
	case seen.testAndSet(idx):
		h.dups++
	case h.first.testAndSet(idx):
		h.replays++
	default:
		h.delivered++
		if h.timed {
			h.lat = append(h.lat, int64(now)-int64(binary.BigEndian.Uint64(m.Body[4:])))
		}
		if h.spans != nil {
			h.spans.handled(m.ID.String(), now)
		}
		return idx, true
	}
	return idx, false
}

// late records how far behind its schedule an open-loop generator sent.
func (h *harness) late(due simtime.Time) {
	if h.timed {
		h.lag = append(h.lag, max(0, int64(h.now()-due)))
	}
}

// parseProc parses a ProcID's String form.
func parseProc(s string, p *publishing.ProcID) bool {
	var node, local int
	if n, err := fmt.Sscanf(s, "p%d.%d", &node, &local); err != nil || n != 2 {
		return false
	}
	*p = publishing.ProcID{Node: publishing.NodeID(node), Local: uint32(local)}
	return true
}

type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) testAndSet(i int) bool {
	w, m := i>>6, uint64(1)<<(uint(i)&63)
	was := b[w]&m != 0
	b[w] |= m
	return was
}

// sink is the terminal machine of every workload: it records each message
// and sends nothing. fresh, when set, counts its first-time deliveries.
type sink struct {
	h     *harness
	seen  bitset
	fresh *int
}

func (s *sink) Init(*publishing.PCtx) {}
func (s *sink) Handle(_ *publishing.PCtx, m publishing.Msg) {
	if _, fresh := s.h.handle(s.seen, m); fresh && s.fresh != nil {
		*s.fresh++
	}
}
func (s *sink) Snapshot() ([]byte, error) { return nil, nil }
func (s *sink) Restore([]byte) error      { return nil }

func (h *harness) newSink([]byte) publishing.Machine {
	return &sink{h: h, seen: newBitset(h.total)}
}

// percentile returns the q-quantile (nearest rank) of sorted values.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortedCopy(v []int64) []int64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

package transport

import (
	"slices"
	"testing"

	"publishing/internal/frame"
	"publishing/internal/lan"
	"publishing/internal/simtime"
	"publishing/internal/trace"
)

// Frames come back (lan.Releaser): the medium hands every frame back to the
// endpoint that sent it, and the endpoint returns it, or the unit whose
// flight it is, to a free list. So once a run is quiet every endpoint's
// frame→owner table is empty, and a free list never holds more than the
// endpoint ever had out at once. A frame handed back twice, or freed while
// still out, shows up as a duplicate or an overfull list.

// outSet is what an endpoint has out of its free lists: plain frames (on
// the medium, or riding in a forming unit), Ack frames on the medium, and
// units (forming, with a flight in flight, or with a frame on the medium).
type outSet struct {
	frames map[*frame.Frame]bool
	acks   map[*ackFrame]bool
	units  map[*txUnit]bool
}

func newOutSet() outSet {
	return outSet{make(map[*frame.Frame]bool), make(map[*ackFrame]bool), make(map[*txUnit]bool)}
}

func (e *Endpoint) out() outSet {
	o := newOutSet()
	for f, ow := range e.owned {
		switch {
		case ow.unit != nil:
			o.units[ow.unit] = true
		case ow.ack != nil:
			o.acks[ow.ack] = true
		default:
			o.frames[f] = true
		}
	}
	for _, u := range e.form.v {
		if u != nil {
			o.units[u] = true
			for _, g := range u.riders {
				o.frames[g] = true
			}
		}
	}
	for _, fl := range e.inflight {
		o.units[fl.unit] = true
	}
	return o
}

// add merges o into the set of everything ever seen out.
func (s outSet) add(o outSet) {
	for f := range o.frames {
		s.frames[f] = true
	}
	for a := range o.acks {
		s.acks[a] = true
	}
	for u := range o.units {
		s.units[u] = true
	}
}

// notFree counts the objects of seen missing from the free lists, less
// those a reset abandoned.
func (e *Endpoint) notFree(seen, abandoned outSet) int {
	n := len(seen.frames) + len(seen.acks) + len(seen.units)
	for _, f := range e.frameFree {
		if seen.frames[f] {
			n--
		}
	}
	for _, a := range e.ackFree {
		if seen.acks[a] {
			n--
		}
	}
	for _, u := range e.unitFree {
		if seen.units[u] {
			n--
		}
	}
	for f := range abandoned.frames {
		if seen.frames[f] {
			n--
		}
	}
	for u := range abandoned.units {
		if seen.units[u] {
			n--
		}
	}
	return n
}

// TestFramesComeBack runs three endpoints on every medium through
// coalesced bundles with riders, single frames, piggybacked and flushed
// acks, retransmissions, broadcasts and raw sends, with loss, duplication,
// misses and corruption armed, and resets one endpoint mid-flight. At
// quiescence every frame, Ack frame and unit ever seen out is back on its
// free list, but for the units the reset abandoned open and their riders.
func TestFramesComeBack(t *testing.T) {
	for _, name := range []string{"perfect", "ether", "ackether", "ring", "star"} {
		t.Run(name, func(t *testing.T) {
			sched := simtime.NewScheduler()
			log := trace.New(sched.Now)
			log.Enable(false)
			cfg, rng := lan.DefaultConfig(), simtime.NewRand(3)
			var med lan.Medium
			switch name {
			case "perfect":
				med = lan.NewPerfect(cfg, sched, rng, log)
			case "ether":
				med = lan.NewEther(cfg, sched, rng, log)
			case "ackether":
				med = lan.NewAckEther(cfg, sched, rng, log)
			case "ring":
				med = lan.NewRing(cfg, sched, rng, log)
			case "star":
				med = lan.NewStar(cfg, sched, rng, log, tapNode)
			}
			checkFramesComeBack(t, med, sched, log)
		})
	}
}

func checkFramesComeBack(t *testing.T, med lan.Medium, sched *simtime.Scheduler, log *trace.Log) {
	const nodes, rounds = 3, 60
	cfg := DefaultConfig()
	cfg.Window = 2
	eps := make([]*Endpoint, nodes)
	delivered := 0
	for i := range eps {
		eps[i] = New(frame.NodeID(i), med, sched, log, cfg)
		eps[i].Deliver = func(*frame.Frame) bool { delivered++; return true }
	}
	med.AttachTap(tapNode, tapFunc(func(*frame.Frame) bool { return true }))
	faults := med.Faults()
	faults.LossProb = 0.03
	faults.DupProb = 0.05
	faults.ReceiverMissProb = 0.03
	faults.TapMissProb = 0.03
	faults.CorruptProb = 0.02

	seq := uint64(0)
	for r := 0; r < rounds; r++ {
		sched.At(simtime.Time(r)*3*simtime.Millisecond, func() {
			for i, ep := range eps {
				src, next, prev := frame.NodeID(i), frame.NodeID((i+1)%nodes), frame.NodeID((i+nodes-1)%nodes)
				for k := 0; k < 3; k++ {
					seq++
					ep.SendGuaranteed(gmsg(src, next, seq, "burst"))
				}
				seq++
				ep.SendGuaranteed(gmsg(src, prev, seq, "back"))
				ep.SendUnguaranteed(&frame.Frame{Dst: next, Body: []byte("rider")})
				if r%10 == i {
					ep.SendUnguaranteed(&frame.Frame{Dst: frame.Broadcast, Body: []byte("all")})
					ep.SendRaw(&frame.Frame{Type: frame.RecorderAck, Dst: frame.Broadcast,
						ID: frame.MsgID{Sender: frame.ProcID{Node: src, Local: 1}, Seq: seq}})
				}
			}
		})
	}
	// A crash with units forming, flights in flight and frames on the wire.
	// The units still open are abandoned, with their riders.
	abandoned := newOutSet()
	sched.At(rounds*simtime.Millisecond+600*simtime.Microsecond, func() {
		if len(eps[1].owned) == 0 || len(eps[1].inflight) == 0 {
			t.Errorf("the reset found %d frames on the medium, %d in flight", len(eps[1].owned), len(eps[1].inflight))
		}
		for u := range eps[1].out().units {
			if !u.closed {
				abandoned.units[u] = true
				for _, g := range u.riders {
					abandoned.frames[g] = true
				}
			}
		}
		eps[1].Reset()
	})

	peak := make([]struct{ frames, acks, units int }, nodes)
	seen := make([]outSet, nodes)
	for i := range seen {
		seen[i] = newOutSet()
	}
	for sched.Step() {
		for i, ep := range eps {
			o := ep.out()
			seen[i].add(o)
			peak[i].frames = max(peak[i].frames, len(o.frames))
			peak[i].acks = max(peak[i].acks, len(o.acks))
			peak[i].units = max(peak[i].units, len(o.units))
		}
	}

	for i, ep := range eps {
		if n := len(ep.owned); n != 0 {
			t.Errorf("n%d: %d frames never came back", i, n)
		}
		p := peak[i]
		if len(ep.frameFree) > p.frames || len(ep.ackFree) > p.acks || len(ep.unitFree) > p.units {
			t.Errorf("n%d: free lists hold %d frames, %d acks, %d units; at most %d, %d, %d were ever out",
				i, len(ep.frameFree), len(ep.ackFree), len(ep.unitFree), p.frames, p.acks, p.units)
		}
		if n := ep.notFree(seen[i], abandoned); n != 0 {
			t.Errorf("n%d: %d objects seen out never came back to a free list", i, n)
		}
		if dupFree(ep.frameFree) || dupFree(ep.ackFree) || dupFree(ep.unitFree) {
			t.Errorf("n%d: a free list holds one object twice", i)
		}
		if len(ep.frameFree) == 0 || len(ep.ackFree) == 0 || len(ep.unitFree) == 0 {
			t.Errorf("n%d: free lists hold %d frames, %d acks, %d units; the run reused nothing",
				i, len(ep.frameFree), len(ep.ackFree), len(ep.unitFree))
		}
	}
	var s Stats
	for _, ep := range eps {
		es := ep.Stats()
		s.FramesCoalesced += es.FramesCoalesced
		s.AcksDelayedFlush += es.AcksDelayedFlush
		s.Retransmits += es.Retransmits
	}
	if delivered == 0 || s.FramesCoalesced == 0 || s.AcksDelayedFlush == 0 || s.Retransmits == 0 {
		t.Errorf("delivered %d, coalesced %d, flushed %d acks, retransmitted %d: the run does not exercise what it checks",
			delivered, s.FramesCoalesced, s.AcksDelayedFlush, s.Retransmits)
	}
}

func dupFree[T comparable](list []T) bool {
	seen := make(map[T]bool, len(list))
	for _, x := range list {
		if seen[x] {
			return true
		}
		seen[x] = true
	}
	return false
}

// TestUnitWaitsForItsFrame: a unit whose flight's own frame is still on the
// medium does not go back to the free list when its last member finishes,
// acked or withdrawn, but when the medium hands the frame back. Freed
// early, it would take the next message into the frame the medium holds.
func TestUnitWaitsForItsFrame(t *testing.T) {
	for _, tc := range []struct {
		name   string
		finish func(e *Endpoint, id frame.MsgID)
	}{
		{"acked", func(e *Endpoint, id frame.MsgID) { e.ackOne(e.inflight[id]) }},
		{"withdrawn", func(e *Endpoint, id frame.MsgID) {
			e.Abort(func(f *frame.Frame) bool { return f.ID == id })
		}},
	} {
		e, med := newSinkEndpoint()
		first := gmsg(0, 1, 1, "first")
		e.SendGuaranteed(first)
		u := e.form.get(1)
		e.flushUnit(u)
		held := med.last
		tc.finish(e, first.ID)
		if len(e.inflight) != 0 || slices.Contains(e.unitFree, u) {
			t.Fatalf("%s: the unit was freed with its frame on the medium", tc.name)
		}
		e.SendGuaranteed(gmsg(0, 1, 2, "second"))
		if e.form.get(1) == u || held.ID != first.ID || string(held.Body) != "first" {
			t.Fatalf("%s: the next message was written into the frame on the medium", tc.name)
		}
		e.flushUnit(e.form.get(1)) // the sink hands the first frame back
		if !slices.Contains(e.unitFree, u) {
			t.Fatalf("%s: the unit did not come back with its frame", tc.name)
		}
	}
}

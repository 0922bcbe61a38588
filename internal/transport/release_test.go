package transport

import (
	"bytes"
	"slices"
	"testing"

	"publishing/internal/frame"
	"publishing/internal/lan"
	"publishing/internal/simtime"
	"publishing/internal/trace"
)

// Frames come back (lan.Releaser): the medium hands every frame back to the
// endpoint that sent it, and the endpoint returns it, or the unit whose
// flight it is, to a free list. So once a run is quiet no slot of any
// endpoint's sent table holds a frame, and a free list never holds more
// than the endpoint ever had out at once. A frame handed back twice, or
// freed while still out, shows up as a duplicate or an overfull list.

// outSet is what an endpoint has out of its free lists: plain frames (on
// the medium, riding in a forming unit, or a unit's bundle, which comes back
// with its unit), Ack frames on the medium, units (forming, with a flight in
// flight, or with a frame on the medium: a flight's own, the bundle or a
// replay batch's retransmission copy, also a plain frame), and
// the arrays of piggybacked ack blocks, keyed by their first element.
type outSet struct {
	frames map[*frame.Frame]bool
	acks   map[*ackFrame]bool
	units  map[*txUnit]bool
	arrs   map[*frame.AckRec]bool
}

func newOutSet() outSet {
	return outSet{make(map[*frame.Frame]bool), make(map[*ackFrame]bool), make(map[*txUnit]bool), make(map[*frame.AckRec]bool)}
}

// addArr notes the array of f's ack block, if it has one.
func (o outSet) addArr(f *frame.Frame) {
	if cap(f.AckRecs) > 0 {
		o.arrs[&f.AckRecs[:1][0]] = true
	}
}

// addUnit notes a unit, its bundle and the ack arrays its own frames hold.
func (o outSet) addUnit(u *txUnit) {
	o.units[u] = true
	if u.bundle != nil {
		o.frames[u.bundle] = true
		o.addArr(u.bundle)
	}
	for _, fl := range u.recs {
		o.addArr(&fl.f)
	}
}

func (e *Endpoint) out() outSet {
	o := newOutSet()
	for _, s := range e.sent {
		switch {
		case s.f == nil:
		case s.unit != nil:
			o.units[s.unit] = true
			if s.copy {
				o.frames[s.f] = true
				o.addArr(s.f)
			}
		case s.ack != nil:
			o.acks[s.ack] = true
		default:
			o.frames[s.f] = true
			o.addArr(s.f)
		}
	}
	for i := range e.tx.v {
		if u := e.tx.v[i].form; u != nil {
			o.units[u] = true
			for _, g := range u.riders {
				o.frames[g] = true
			}
		}
	}
	if e.open != nil {
		o.units[e.open] = true
	}
	for u := range o.units {
		o.addUnit(u)
	}
	return o
}

// onMedium counts the frames the endpoint has handed the medium and not had
// back: the occupied slots of its sent table.
func (e *Endpoint) onMedium() int {
	n := 0
	for _, s := range e.sent {
		if s.f != nil {
			n++
		}
	}
	return n
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
	for a := range o.arrs {
		s.arrs[a] = true
	}
}

// notFree counts the objects of seen missing from the free lists, less
// those a reset abandoned.
func (e *Endpoint) notFree(seen, abandoned outSet) int {
	n := len(seen.frames) + len(seen.acks) + len(seen.units) + len(seen.arrs)
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
	for _, a := range e.recsFree {
		if seen.arrs[&a[:1][0]] {
			n--
		}
	}
	for f := range abandoned.frames {
		if seen.frames[f] {
			n--
		}
	}
	for a := range abandoned.arrs {
		if seen.arrs[a] {
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
// quiescence every frame, Ack frame, unit and ack array ever seen out is
// back on its free list, but for the units the reset abandoned open, their
// riders, their bundles and the ack arrays their own frames hold.
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
	eps := make([]*Endpoint, nodes)
	delivered := 0
	for i := range eps {
		eps[i] = New(frame.NodeID(i), med, sched, log, DefaultConfig())
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
	// A crash with units forming, flights in flight and frames on the wire:
	// node 1 resets at the first step from 60 ms on that leaves it with
	// frames on the medium and a flight in flight. The units still open are
	// abandoned, with their riders.
	abandoned := newOutSet()
	crashed := false

	peak := make([]struct{ frames, acks, units int }, nodes)
	seen := make([]outSet, nodes)
	for i := range seen {
		seen[i] = newOutSet()
	}
	for sched.Step() {
		if !crashed && sched.Now() >= rounds*simtime.Millisecond && eps[1].onMedium() > 0 && eps[1].inflight() > 0 {
			for u := range eps[1].out().units {
				if !u.closed {
					abandoned.units[u] = true
					for _, g := range u.riders {
						abandoned.frames[g] = true
					}
				}
			}
			eps[1].Reset()
			crashed = true
		}
		for i, ep := range eps {
			o := ep.out()
			seen[i].add(o)
			peak[i].frames = max(peak[i].frames, len(o.frames))
			peak[i].acks = max(peak[i].acks, len(o.acks))
			peak[i].units = max(peak[i].units, len(o.units))
		}
	}
	if !crashed {
		t.Error("node 1 never had frames on the medium and a flight in flight at once: the reset never ran")
	}
	for u := range abandoned.units {
		abandoned.addUnit(u)
	}

	arrays := 0
	for i, ep := range eps {
		if n := ep.onMedium(); n != 0 {
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
		arrs := make([]*frame.AckRec, len(ep.recsFree))
		for k, a := range ep.recsFree {
			arrs[k] = &a[:1][0]
		}
		if dupFree(ep.frameFree) || dupFree(ep.ackFree) || dupFree(ep.unitFree) || dupFree(arrs) {
			t.Errorf("n%d: a free list holds one object twice", i)
		}
		if len(ep.frameFree) == 0 || len(ep.ackFree) == 0 || len(ep.unitFree) == 0 {
			t.Errorf("n%d: free lists hold %d frames, %d acks, %d units; the run reused nothing",
				i, len(ep.frameFree), len(ep.ackFree), len(ep.unitFree))
		}
		arrays += len(ep.recsFree)
	}
	var s Stats
	for _, ep := range eps {
		es := ep.Stats()
		s.FramesCoalesced += es.FramesCoalesced
		s.AcksDelayedFlush += es.AcksDelayedFlush
		s.Retransmits += es.Retransmits
	}
	if delivered == 0 || s.FramesCoalesced == 0 || s.AcksDelayedFlush == 0 || s.Retransmits == 0 || arrays == 0 {
		t.Errorf("delivered %d, coalesced %d, flushed %d acks, retransmitted %d, %d ack arrays reused: the run does not exercise what it checks",
			delivered, s.FramesCoalesced, s.AcksDelayedFlush, s.Retransmits, arrays)
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

// TestUnitWaitsForItsFrame: a unit whose own frame is still on the medium,
// a flight's first transmission or the unit's bundle, does not go back to
// the free list when its last member finishes, acked or withdrawn, but when
// the medium hands the frame back. Freed early, it would take the next
// message into the frame, or the bundle records, the medium holds.
func TestUnitWaitsForItsFrame(t *testing.T) {
	acked := func(e *Endpoint, id frame.MsgID) { e.ackOne(e.flightOf(id)) }
	withdrawn := func(e *Endpoint, id frame.MsgID) {
		e.Abort(func(f *frame.Frame) bool { return f.ID == id })
	}
	for _, tc := range []struct {
		name    string
		members int
		finish  func(e *Endpoint, id frame.MsgID)
	}{
		{"acked", 1, acked},
		{"withdrawn", 1, withdrawn},
		{"bundle acked", 2, acked},
		{"bundle withdrawn", 2, withdrawn},
	} {
		e, med := newSinkEndpoint()
		var ids []frame.MsgID
		for seq := range uint64(tc.members) {
			f := gmsg(0, 1, seq+1, "first")
			ids = append(ids, f.ID)
			e.SendGuaranteed(f)
		}
		u := e.tx.get(1).form
		e.flushUnit(u)
		held := med.last
		if tc.members > 1 && held.Type != frame.Bundle {
			t.Fatalf("%s: flushed a %v, not a bundle", tc.name, held.Type)
		}
		sent := held.Encode()
		for _, id := range ids {
			tc.finish(e, id)
		}
		if e.inflight() != 0 || slices.Contains(e.unitFree, u) {
			t.Fatalf("%s: the unit was freed with its frame on the medium", tc.name)
		}
		e.SendGuaranteed(gmsg(0, 1, 9, "second"))
		if e.tx.get(1).form == u || !bytes.Equal(held.Encode(), sent) {
			t.Fatalf("%s: the next message was written into the frame on the medium", tc.name)
		}
		e.flushUnit(e.tx.get(1).form) // the sink hands the first frame back
		if !slices.Contains(e.unitFree, u) {
			t.Fatalf("%s: the unit did not come back with its frame", tc.name)
		}
	}
}

// TestBatchRecsWaitForAckAndEveryCopy: a replay batch's record array goes
// back to the free list (BatchRecs) only once the batch is acknowledged and
// every frame carrying it, a retransmission's copy included, is back from
// the medium; then it comes back empty and cleared. A batch given up or
// withdrawn may still sit in a receiver's held or buffered copy, so its
// array is never reused.
func TestBatchRecsWaitForAckAndEveryCopy(t *testing.T) {
	for _, tc := range []struct {
		name       string
		retransmit bool
		finish     func(e *Endpoint, fl *flight)
		comesBack  bool
	}{
		{"acked", false, func(e *Endpoint, fl *flight) { e.ackOne(fl) }, true},
		{"retransmitted then acked", true, func(e *Endpoint, fl *flight) { e.ackOne(fl) }, true},
		{"given up", false, func(e *Endpoint, fl *flight) { e.finish(fl) }, false},
		{"withdrawn", true, func(e *Endpoint, fl *flight) {
			e.Abort(func(f *frame.Frame) bool { return f.ID == fl.f.ID })
		}, false},
	} {
		e, med := newSinkEndpoint()
		if e.BatchRecs() != nil {
			t.Fatalf("%s: a new endpoint has a batch array to give", tc.name)
		}
		recs := append(make([]frame.BundleRec, 0, 4),
			frame.BundleRec{ID: frame.MsgID{Seq: 1}, Body: []byte("one")},
			frame.BundleRec{ID: frame.MsgID{Seq: 2}, Body: []byte("two")})
		f := gmsg(0, 1, 1, "header")
		f.Channel, f.Recs = frame.ChanReplay, recs
		e.SendGuaranteed(f)
		e.flushUnit(e.tx.get(1).form)
		fl := e.flightOf(f.ID)
		if tc.retransmit {
			e.sched.Cancel(fl.timer)
			e.transmit(fl) // the sink hands the first transmission back
			if g := med.last; g == &fl.f || &g.Recs[0] != &recs[0] {
				t.Fatalf("%s: the retransmission does not share the batch's records", tc.name)
			}
		}
		tc.finish(e, fl)
		if e.BatchRecs() != nil {
			t.Fatalf("%s: the array was freed with a frame carrying it on the medium", tc.name)
		}
		e.SendGuaranteed(gmsg(0, 1, 9, "next"))
		e.flushUnit(e.tx.get(1).form) // the sink hands the batch's last frame back
		got := e.BatchRecs()
		switch {
		case !tc.comesBack && got != nil:
			t.Fatalf("%s: the array of a batch never acknowledged was reused", tc.name)
		case tc.comesBack && (cap(got) != cap(recs) || &got[:1][0] != &recs[0]):
			t.Fatalf("%s: the acknowledged batch's array did not come back", tc.name)
		case tc.comesBack && (len(got) != 0 || recs[0].Body != nil || recs[1].Body != nil):
			t.Fatalf("%s: the array came back holding %d records or pinning a body", tc.name, len(got))
		}
	}
}

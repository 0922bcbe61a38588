package transport

import (
	"bytes"
	"fmt"
	"testing"

	"publishing/internal/frame"
	"publishing/internal/lan"
	"publishing/internal/simtime"
	"publishing/internal/trace"
)

// The one ownership rule of the wire (lan.Medium.Send): a frame handed to a
// medium is not written again, by the sender, the medium, any receiver or any
// tap, until the medium hands it back (lan.Releaser). watchedMedium checks
// it on a live medium. It encodes every frame at Send, again when a station
// or tap is handed it, and again when it comes back; all three encodings
// must be byte-equal but for the medium's corrupt mark, its one write. A
// frame may be sent again only after it came back, nobody may be handed one
// that is not on the medium, and at quiescence every frame has come back.
type watchedMedium struct {
	lan.Medium
	t   *testing.T
	out map[*frame.Frame][]byte
	// sent and back count frames sent and handed back.
	sent, back int
}

// encodeClean encodes f as sent, before the medium could mark it corrupt.
func encodeClean(f *frame.Frame) []byte {
	g := *f
	g.Corrupt = false
	return g.AppendEncode(nil)
}

func (w *watchedMedium) Send(src frame.NodeID, f *frame.Frame) {
	if _, again := w.out[f]; again {
		w.t.Errorf("frame %v handed to the medium again before it came back", f)
	}
	w.out[f] = encodeClean(f)
	w.sent++
	w.Medium.Send(src, f)
}

func (w *watchedMedium) Attach(id frame.NodeID, s lan.Station) {
	w.Medium.Attach(id, watchedStation{w, s})
}

func (w *watchedMedium) AttachTap(id frame.NodeID, tap lan.Tap) {
	w.Medium.AttachTap(id, watchedTap{w, tap})
}

// heard checks a frame at hand-over.
func (w *watchedMedium) heard(who string, f *frame.Frame) {
	want, ok := w.out[f]
	switch {
	case !ok:
		w.t.Errorf("%s was handed %v, which is not on the medium", who, f)
	case f.Corrupt || !bytes.Equal(f.AppendEncode(nil), want):
		w.t.Errorf("%s was handed %v, written to since Send", who, f)
	}
}

// quiescent checks that every frame came back.
func (w *watchedMedium) quiescent() {
	if len(w.out) != 0 || w.back != w.sent {
		w.t.Errorf("%d of %d frames came back; %d are still out", w.back, w.sent, len(w.out))
	}
}

type watchedStation struct {
	w *watchedMedium
	s lan.Station
}

func (s watchedStation) Receive(f *frame.Frame) {
	s.w.heard("station", f)
	s.s.Receive(f)
}

// Release checks the frame coming back and passes it on to its sender.
func (s watchedStation) Release(f *frame.Frame) {
	want, ok := s.w.out[f]
	switch {
	case !ok:
		s.w.t.Errorf("%v came back, but it is not on the medium", f)
	case !bytes.Equal(encodeClean(f), want):
		s.w.t.Errorf("%v came back written to since Send", f)
	}
	delete(s.w.out, f)
	s.w.back++
	s.s.(lan.Releaser).Release(f)
}

type watchedTap struct {
	w   *watchedMedium
	tap lan.Tap
}

func (t watchedTap) Observe(f *frame.Frame) bool {
	t.w.heard("tap", f)
	return t.tap.Observe(f)
}

// TestSentFramesAreImmutable drives three endpoints through every kind of
// frame the transport sends — single guaranteed frames, coalesced bundles
// with unguaranteed riders, piggybacked and flushed acks, retransmissions,
// broadcasts and recorder acks — on each medium that carries a recorder,
// with loss, duplication, receiver and tap misses, and corruption armed.
// The endpoints reuse every frame that comes back, so a frame written while
// on the medium, or reused before it came back, fails here.
func TestSentFramesAreImmutable(t *testing.T) {
	for _, name := range []string{"perfect", "ackether", "ring", "star"} {
		t.Run(name, func(t *testing.T) {
			sched := simtime.NewScheduler()
			log := trace.New(sched.Now)
			log.Enable(false)
			cfg, rng := lan.DefaultConfig(), simtime.NewRand(3)
			var med lan.Medium
			switch name {
			case "perfect":
				med = lan.NewPerfect(cfg, sched, rng, log)
			case "ackether":
				med = lan.NewAckEther(cfg, sched, rng, log)
			case "ring":
				med = lan.NewRing(cfg, sched, rng, log)
			case "star":
				med = lan.NewStar(cfg, sched, rng, log, tapNode)
			}
			w := &watchedMedium{Medium: med, t: t, out: make(map[*frame.Frame][]byte)}
			checkImmutable(t, w, sched, log)
		})
	}
}

// tapNode is the recorder's node (the star's hub); endpoints are 0..2.
const tapNode = 3

func checkImmutable(t *testing.T, w *watchedMedium, sched *simtime.Scheduler, log *trace.Log) {
	const nodes, rounds = 3, 60
	cfg := DefaultConfig()
	cfg.Window = 2
	eps := make([]*Endpoint, nodes)
	got := make(map[frame.MsgID]int)
	for i := range eps {
		eps[i] = New(frame.NodeID(i), w, sched, log, cfg)
		eps[i].Deliver = func(f *frame.Frame) bool {
			if f.Type == frame.Guaranteed {
				got[f.ID]++
			}
			return true
		}
	}
	w.AttachTap(tapNode, tapFunc(func(*frame.Frame) bool { return true }))
	faults := w.Faults()
	faults.LossProb = 0.03
	faults.DupProb = 0.05
	faults.ReceiverMissProb = 0.03
	faults.TapMissProb = 0.03
	faults.CorruptProb = 0.02

	// Every node sends a burst to its successor (bundles) and one message to
	// its predecessor (reverse traffic for piggybacked acks) each round, plus
	// an unguaranteed rider and, now and then, a broadcast and a recorder ack.
	seq := uint64(0)
	for r := 0; r < rounds; r++ {
		sched.At(simtime.Time(r)*3*simtime.Millisecond, func() {
			for i, ep := range eps {
				src, next, prev := frame.NodeID(i), frame.NodeID((i+1)%nodes), frame.NodeID((i+nodes-1)%nodes)
				for k := 0; k < 3; k++ {
					seq++
					ep.SendGuaranteed(gmsg(src, next, seq, fmt.Sprintf("r%d-%d", r, k)))
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
	sched.RunAll(10_000_000)
	w.quiescent()

	if len(got) != int(seq) {
		t.Errorf("%d of %d guaranteed messages delivered", len(got), seq)
	}
	for id, n := range got {
		if n != 1 {
			t.Errorf("%v delivered %d times", id, n)
		}
	}
	// The run must have produced every kind of frame and fault it claims to.
	var s Stats
	for _, ep := range eps {
		es := ep.Stats()
		s.FramesCoalesced += es.FramesCoalesced
		s.AcksPiggybacked += es.AcksPiggybacked
		s.AcksDelayedFlush += es.AcksDelayedFlush
		s.Retransmits += es.Retransmits
	}
	ms := w.Stats()
	for what, n := range map[string]uint64{
		"coalesced records": s.FramesCoalesced, "piggybacked acks": s.AcksPiggybacked,
		"flushed ack frames": s.AcksDelayedFlush, "retransmissions": s.Retransmits,
		"corrupted frames": ms.FramesCorrupted, "tap misses": ms.TapMisses,
	} {
		if n == 0 {
			t.Errorf("no %s: the run does not exercise what it checks", what)
		}
	}
}

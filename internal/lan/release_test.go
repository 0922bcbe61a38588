package lan

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"publishing/internal/frame"
	"publishing/internal/simtime"
)

// Frames come back (Releaser): every medium hands each sent frame back to
// the station that sent it exactly once, after the frame's last Receive or
// Observe, or where it drops the frame. The sender reuses a frame it gets
// back, so a Release before the last listener, a second one, or none at all
// would let a live frame be rewritten or leak the sender's table.

// heardEvent is one call a medium made: a station receiving a frame ('r'),
// a tap observing it ('o'), or the sender getting it back ('x').
type heardEvent struct {
	kind byte
	who  frame.NodeID
	f    int // the frame's index in send order
	at   simtime.Time
}

type heardLog struct {
	sched *simtime.Scheduler
	index map[*frame.Frame]int
	src   []frame.NodeID // each frame's sender, by index
	ev    []heardEvent
	// onRelease, if set, runs at every Release.
	onRelease func()
}

func (l *heardLog) add(kind byte, who frame.NodeID, f *frame.Frame) {
	i, ok := l.index[f]
	if !ok {
		panic(fmt.Sprintf("%c by n%d of a frame nobody sent", kind, who))
	}
	l.ev = append(l.ev, heardEvent{kind, who, i, l.sched.Now()})
}

type heardStation struct {
	log *heardLog
	id  frame.NodeID
}

func (s heardStation) Receive(f *frame.Frame) { s.log.add('r', s.id, f) }

// releasingStation is a heardStation that takes its frames back.
type releasingStation struct{ heardStation }

func (s releasingStation) Release(f *frame.Frame) {
	s.log.add('x', s.id, f)
	if s.log.onRelease != nil {
		s.log.onRelease()
	}
}

type heardTap struct {
	log *heardLog
	id  frame.NodeID
}

func (t heardTap) Observe(f *frame.Frame) bool { t.log.add('o', t.id, f); return true }

// releasePlan is one traffic pattern and fault plan.
type releasePlan struct {
	name  string
	media []string // nil: every medium
	cfg   func(*Config)
	// arm sets up faults and traffic; send transmits a fresh frame.
	arm func(m Medium, sched *simtime.Scheduler, send func(src, dst frame.NodeID, t frame.Type))
}

// releaseNodes are the stations; the tap (the star's hub) is node 3.
const releaseNodes = 3

// steadyTraffic has every station send, in turn, a guaranteed unicast, an
// unguaranteed broadcast, an Ack and a guaranteed broadcast.
func steadyTraffic(sched *simtime.Scheduler, n int, gap simtime.Time, send func(src, dst frame.NodeID, t frame.Type)) {
	types := []frame.Type{frame.Guaranteed, frame.Unguaranteed, frame.Ack, frame.Guaranteed}
	for i := 0; i < n; i++ {
		src := frame.NodeID(i % releaseNodes)
		dst := (src + 1) % releaseNodes
		if i%4 == 1 || i%4 == 3 {
			dst = frame.Broadcast
		}
		typ := types[i%4]
		sched.At(simtime.Time(i)*gap, func() { send(src, dst, typ) })
	}
}

var releasePlans = []releasePlan{
	{name: "clean", arm: func(m Medium, sched *simtime.Scheduler, send func(frame.NodeID, frame.NodeID, frame.Type)) {
		steadyTraffic(sched, 120, 500*simtime.Microsecond, send)
	}},
	{name: "faults", arm: func(m Medium, sched *simtime.Scheduler, send func(frame.NodeID, frame.NodeID, frame.Type)) {
		p := m.Faults()
		p.LossProb, p.CorruptProb, p.DupProb = 0.1, 0.1, 0.3
		p.ReceiverMissProb, p.TapMissProb = 0.1, 0.1
		steadyTraffic(sched, 300, 500*simtime.Microsecond, send)
	}},
	{name: "down", arm: func(m Medium, sched *simtime.Scheduler, send func(frame.NodeID, frame.NodeID, frame.Type)) {
		steadyTraffic(sched, 120, 500*simtime.Microsecond, send)
		p := m.Faults()
		for k := simtime.Time(0); k < 6; k++ {
			at := k * 10 * simtime.Millisecond
			src := frame.NodeID(k % releaseNodes)
			// Down at Send: a frame sent while its sender is down.
			sched.At(at+simtime.Microsecond, func() {
				p.SetDown(src, true)
				send(src, (src+1)%releaseNodes, frame.Guaranteed)
			})
			// Down mid-flight: the sender goes down with frames on the wire.
			sched.At(at+2*simtime.Microsecond, func() { p.SetDown(src, false) })
			sched.At(at+3*simtime.Microsecond, func() { send(src, (src+1)%releaseNodes, frame.Guaranteed) })
			sched.At(at+200*simtime.Microsecond, func() { p.SetDown(src, true) })
			sched.At(at+5*simtime.Millisecond, func() { p.SetDown(src, false) })
		}
	}},
	{name: "storm", media: []string{"ether", "ackether"}, cfg: func(c *Config) { c.InterframeGap, c.SlotTime = 0, 100*simtime.Microsecond },
		arm: func(m Medium, sched *simtime.Scheduler, send func(frame.NodeID, frame.NodeID, frame.Type)) {
			// With no interframe gap a small frame is on the wire for about one
			// slot, so an attempt while another is on the wire collides
			// instead of deferring. A queue of frames keeps the wire busy, every
			// back-off ends in another collision, and frames reach the
			// 16-attempt drop.
			for i := 0; i < 4000; i++ {
				src := frame.NodeID(i % releaseNodes)
				send(src, (src+1)%releaseNodes, frame.Unguaranteed)
			}
		}},
	{name: "ackslot", media: []string{"ring"}, cfg: func(c *Config) { c.AckSlot = simtime.Millisecond },
		arm: func(m Medium, sched *simtime.Scheduler, send func(frame.NodeID, frame.NodeID, frame.Type)) {
			// Frames far apart, so each circulates alone and its token is
			// released long before its acknowledge slot is filled.
			steadyTraffic(sched, 40, 10*simtime.Millisecond, send)
		}},
}

// runRelease drives one plan on one medium and returns the calls the medium
// made, its counters, and the next draw of its random stream.
func runRelease(t *testing.T, medium string, plan releasePlan, releasing bool) (*heardLog, Stats, uint64) {
	t.Helper()
	sched, rng := simtime.NewScheduler(), simtime.NewRand(5)
	cfg := DefaultConfig()
	if plan.cfg != nil {
		plan.cfg(&cfg)
	}
	m := builders[medium](cfg, sched, rng, nil)
	log := &heardLog{sched: sched, index: make(map[*frame.Frame]int)}
	for i := frame.NodeID(0); i < releaseNodes; i++ {
		s := heardStation{log, i}
		if releasing {
			m.Attach(i, releasingStation{s})
		} else {
			m.Attach(i, s)
		}
	}
	m.AttachTap(releaseNodes, heardTap{log, releaseNodes})
	if r, ok := m.(*Ring); ok && plan.name == "ackslot" && releasing {
		log.onRelease = func() {
			if r.busy {
				t.Errorf("ring: a frame came back before its token was released")
			}
		}
	}
	seq := uint64(0)
	plan.arm(m, sched, func(src, dst frame.NodeID, typ frame.Type) {
		seq++
		f := guaranteed(src, dst, seq, "x")
		f.Type = typ
		log.index[f] = len(log.src)
		log.src = append(log.src, src)
		m.Send(src, f)
	})
	sched.RunAll(50_000_000)
	return log, *m.Stats(), rng.Uint64()
}

// TestEveryFrameComesBackOnce runs every medium under every plan that
// applies to it and checks, per sent frame: one Release, to its sender;
// every Receive and Observe of the frame before it, none after; and the
// same listener calls, counters and random draws as a run whose stations
// take nothing back.
func TestEveryFrameComesBackOnce(t *testing.T) {
	for _, name := range []string{"perfect", "ether", "ackether", "ring", "star"} {
		for _, plan := range releasePlans {
			if plan.media != nil && !slices.Contains(plan.media, name) {
				continue
			}
			t.Run(name+"/"+plan.name, func(t *testing.T) {
				log, stats, draw := runRelease(t, name, plan, true)
				released := make([]int, len(log.src))
				for _, e := range log.ev {
					switch {
					case e.kind == 'x':
						released[e.f]++
						if e.who != log.src[e.f] {
							t.Fatalf("frame %d from n%d came back to n%d", e.f, log.src[e.f], e.who)
						}
					case released[e.f] > 0:
						t.Fatalf("frame %d: %c by n%d after it came back", e.f, e.kind, e.who)
					}
				}
				for i, n := range released {
					if n != 1 {
						t.Fatalf("frame %d came back %d times; want once", i, n)
					}
				}

				plain, plainStats, plainDraw := runRelease(t, name, plan, false)
				var heard []heardEvent
				for _, e := range log.ev {
					if e.kind != 'x' {
						heard = append(heard, e)
					}
				}
				if !reflect.DeepEqual(heard, plain.ev) || stats != plainStats || draw != plainDraw {
					t.Fatal("handing frames back changed what the medium did")
				}
				checkReleasePlan(t, name, plan.name, stats)
			})
		}
	}
}

// checkReleasePlan fails a plan whose run does not exercise what it is for.
func checkReleasePlan(t *testing.T, medium, plan string, s Stats) {
	t.Helper()
	var missing []string
	switch plan {
	case "faults":
		if s.FramesLost == 0 || s.FramesCorrupted == 0 || s.TapMisses == 0 {
			missing = append(missing, "loss, corruption or a tap miss")
		}
		if medium != "ring" && s.FramesDuped == 0 {
			missing = append(missing, "a duplicate")
		}
	case "down", "storm":
		if s.FramesLost == 0 {
			missing = append(missing, "a dropped frame")
		}
	}
	if len(missing) > 0 {
		t.Fatalf("the run has no %v: it does not exercise its plan (%v)", missing, &s)
	}
}

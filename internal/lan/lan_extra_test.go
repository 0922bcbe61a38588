package lan

import (
	"math/rand"
	"testing"

	"publishing/internal/frame"
	"publishing/internal/simtime"
)

// Classic Ethernet gives up after 16 attempts of excessive collisions.
func TestEtherExcessiveCollisionsDropsFrame(t *testing.T) {
	r := newRig(t, builders["ether"], 3, false)
	m := r.m.(*Ether)
	m.maxAttempts = 2
	// Jam the channel by scheduling colliding sends forever.
	var flood func()
	n := uint64(0)
	flood = func() {
		n++
		r.m.Send(1, guaranteed(1, 2, n+1000, "noise"))
		r.m.Send(2, guaranteed(2, 1, n+5000, "noise"))
		if n < 50 {
			r.sched.After(DefaultConfig().SlotTime/4, flood)
		}
	}
	r.m.Send(0, guaranteed(0, 2, 1, "victim"))
	flood()
	r.sched.RunAll(1_000_000)
	if r.m.Stats().FramesLost == 0 {
		t.Fatal("nothing was dropped despite constant collisions")
	}
}

// The Acknowledging Ethernet without any tap still reserves its ack slot
// and delivers (publishing off but hardware present).
func TestAckEtherNoTap(t *testing.T) {
	r := newRig(t, builders["ackether"], 2, false)
	r.m.Send(0, guaranteed(0, 1, 1, "x"))
	r.sched.RunAll(10000)
	if len(r.stations[1].got) != 1 {
		t.Fatal("ackether without tap did not deliver")
	}
}

// Ring broadcast with a tap: all stations get the frame, each on the pass
// consistent with its position relative to the recorder.
func TestRingBroadcastWithTap(t *testing.T) {
	r := newRig(t, builders["ring"], 4, true)
	r.m.Send(0, guaranteed(0, frame.Broadcast, 1, "all"))
	r.sched.RunAll(100000)
	for i := frame.NodeID(1); i <= 3; i++ {
		if len(r.stations[i].got) != 1 {
			t.Fatalf("station %d got %d", i, len(r.stations[i].got))
		}
	}
}

// Acks are gated like messages: a tap that fails to store an ack blocks its
// delivery (the §4.4.1 acknowledgement-blocking requirement).
func TestAckGating(t *testing.T) {
	r := newRig(t, builders["perfect"], 2, true)
	r.tap.fail = true
	ack := &frame.Frame{Type: frame.Ack, Src: 0, Dst: 1,
		ID: frame.MsgID{Sender: frame.ProcID{Node: 0, Local: 1}, Seq: 1}}
	r.m.Send(0, ack)
	r.sched.RunAll(10000)
	if len(r.stations[1].got) != 0 {
		t.Fatal("unstored ack was delivered")
	}
	// Unguaranteed frames are never gated.
	r.m.Send(0, &frame.Frame{Type: frame.Unguaranteed, Src: 0, Dst: 1, Body: []byte("fyi")})
	r.sched.RunAll(10000)
	if len(r.stations[1].got) != 1 {
		t.Fatal("unguaranteed frame was gated")
	}
}

// Star: a frame addressed to the hub node itself is delivered there.
func TestStarDirectedToHub(t *testing.T) {
	r := newRig(t, builders["star"], 4, true) // hub is node 3 with a station too
	r.m.Send(0, guaranteed(0, 3, 1, "for the hub"))
	r.sched.RunAll(10000)
	if len(r.stations[3].got) != 1 {
		t.Fatalf("hub station got %d", len(r.stations[3].got))
	}
}

// FaultPlan accessors behave.
func TestFaultPlanBasics(t *testing.T) {
	var p FaultPlan
	if p.Down(3) {
		t.Fatal("fresh plan has a down node")
	}
	p.SetDown(3, true)
	if !p.Down(3) || p.Down(4) {
		t.Fatal("SetDown wrong")
	}
	p.SetDown(3, false)
	if p.Down(3) {
		t.Fatal("SetDown(false) wrong")
	}
	p.SetPartition(1, 2)
	if p.reachable(1, 0) || !p.reachable(1, 1) {
		t.Fatal("partition reachability wrong")
	}
	p.Heal()
	if !p.reachable(1, 0) {
		t.Fatal("heal wrong")
	}
}

// reachable's early return for a plan with nothing down and no partition
// agrees with the full check, read straight off the plan's maps, across
// random sequences of SetDown, SetPartition and Heal.
func TestReachableMatchesFullCheck(t *testing.T) {
	const nodes = 6
	rng := rand.New(rand.NewSource(1))
	for plan := 0; plan < 200; plan++ {
		var p FaultPlan
		for step := 0; step < 30; step++ {
			id := frame.NodeID(rng.Intn(nodes))
			switch rng.Intn(5) {
			case 0, 1:
				p.SetDown(id, rng.Intn(2) == 0)
			case 2, 3:
				p.SetPartition(id, rng.Intn(3))
			case 4:
				p.Heal()
			}
			for a := frame.NodeID(0); a < nodes; a++ {
				for b := frame.NodeID(0); b < nodes; b++ {
					want := !p.down[b] && p.partition[a] == p.partition[b]
					if got := p.reachable(a, b); got != want {
						t.Fatalf("plan %d step %d: reachable(%d, %d) = %v, full check %v (down %v, partition %v)",
							plan, step, a, b, got, want, p.down, p.partition)
					}
				}
			}
		}
	}
}

// Media keep working after a long idle gap (no stuck channel state).
func TestIdleGapThenTraffic(t *testing.T) {
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			r := newRig(t, build, 2, true)
			r.m.Send(0, guaranteed(0, 1, 1, "a"))
			r.sched.RunAll(100000)
			r.sched.At(r.sched.Now()+10*simtime.Minute, func() {
				r.m.Send(0, guaranteed(0, 1, 2, "b"))
			})
			r.sched.RunAll(100000)
			if len(r.stations[1].got) != 2 {
				t.Fatalf("got %d after idle gap", len(r.stations[1].got))
			}
		})
	}
}

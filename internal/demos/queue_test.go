package demos

import (
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"publishing/internal/frame"
	"publishing/internal/metrics"
	"publishing/internal/simtime"
)

// sliceQueue is the input queue as a plain slice — the implementation the
// ring replaced, kept here as the model its behaviour is checked against.
type sliceQueue struct {
	items []queued
}

func (q *sliceQueue) push(m Msg, link *frame.Link) {
	q.items = append(q.items, queued{msg: m, link: link})
}

func (q *sliceQueue) pop(want []uint16) (item queued, head frame.MsgID, outOfOrder, ok bool) {
	for i := range q.items {
		if matches(q.items[i].msg.Channel, want) {
			item = q.items[i]
			if i > 0 {
				outOfOrder = true
				head = q.items[0].msg.ID
			}
			q.items = append(q.items[:i], q.items[i+1:]...)
			return item, head, outOfOrder, true
		}
	}
	return queued{}, frame.MsgID{}, false, false
}

func (q *sliceQueue) ids() []frame.MsgID {
	out := make([]frame.MsgID, len(q.items))
	for i := range q.items {
		out[i] = q.items[i].msg.ID
	}
	return out
}

func (q *sliceQueue) anyMatch(want []uint16) bool {
	for i := range q.items {
		if matches(q.items[i].msg.Channel, want) {
			return true
		}
	}
	return false
}

// queueDiff drives the ring and the slice model with one op sequence and
// fails on the first step where they disagree.
type queueDiff struct {
	t     testing.TB
	ring  msgQueue
	model sliceQueue
	seq   uint64

	// wrappedGrowths counts growths past the first segment with the head
	// off slot 0, which move the ring's wrapped front.
	growths, wrappedGrowths, wraps int
}

// eachSlot calls fn on every slot of every segment of q, in physical order.
func eachSlot(q *msgQueue, fn func(j int, s *queued)) {
	j := 0
	for _, seg := range append([][]queued{q.small}, q.segs...) {
		for i := range seg {
			fn(j, &seg[i])
			j++
		}
	}
}

// wantSet decodes 0–3 distinct channels out of the four in use.
func wantSet(arg byte) []uint16 {
	var want []uint16
	for i := byte(0); i < arg&3; i++ {
		want = append(want, uint16((arg>>2+i)&3))
	}
	return want
}

// step applies one op byte: the low two bits pick push (twice as likely),
// pop or the read-only checks, the rest the channel or wanted set.
func (d *queueDiff) step(op byte) {
	d.t.Helper()
	arg := op >> 2
	switch op & 3 {
	case 0, 1:
		d.seq++
		m := Msg{ID: mkID(1, d.seq), Channel: uint16(arg & 3), Body: []byte{op}}
		link := &frame.Link{Code: uint32(d.seq)}
		size := d.ring.size()
		if d.ring.n == size && size >= smallMax && d.ring.head > 0 {
			d.wrappedGrowths++
		}
		d.ring.push(m, link)
		d.model.push(m, link)
		if d.ring.size() != size {
			d.growths++
		}
	case 2:
		want := wantSet(arg)
		head0 := d.ring.head
		item, head, ooo, ok := d.ring.pop(want)
		mItem, mHead, mOoo, mOk := d.model.pop(want)
		if !reflect.DeepEqual(item, mItem) || head != mHead || ooo != mOoo || ok != mOk {
			d.t.Fatalf("pop(%v): ring (%+v, %v, %v, %v), model (%+v, %v, %v, %v)",
				want, item, head, ooo, ok, mItem, mHead, mOoo, mOk)
		}
		if d.ring.head < head0 {
			d.wraps++
		}
	case 3:
		want := wantSet(arg)
		if got, model := d.ring.anyMatch(want), d.model.anyMatch(want); got != model {
			d.t.Fatalf("anyMatch(%v) = %v, model %v", want, got, model)
		}
		if got, model := d.ring.appendIDs([]frame.MsgID{}), d.model.ids(); !reflect.DeepEqual(got, model) {
			d.t.Fatalf("ids = %v, model %v", got, model)
		}
	}
	if d.ring.len() != len(d.model.items) {
		d.t.Fatalf("len = %d, model %d", d.ring.len(), len(d.model.items))
	}
	// Every slot of every segment outside the live span is zero: the ring
	// pins nothing. Each pushed message has a body and a link, so a live
	// slot is never zero.
	live := make(map[*queued]bool, d.ring.n)
	for i := 0; i < d.ring.n; i++ {
		live[d.ring.at(i)] = true
	}
	slots := 0
	eachSlot(&d.ring, func(j int, s *queued) {
		slots++
		if zero := s.msg.Body == nil && s.link == nil && s.msg.ID == (frame.MsgID{}); zero == live[s] {
			d.t.Fatalf("slot %d (head %d, %d queued): live %v, holds %v", j, d.ring.head, d.ring.n, live[s], s.msg.ID)
		}
	})
	if slots != d.ring.size() || len(live) != d.ring.n {
		d.t.Fatalf("%d slots in the segments, %d distinct live ones; want %d and %d", slots, len(live), d.ring.size(), d.ring.n)
	}
}

// Random push/pop/anyMatch/ids against the slice model, in alternating
// fill and drain phases so the ring grows several times, several of them
// past the first segment with a wrapped front to move, and its head laps
// the ring many times.
func TestQueueMatchesSliceModel(t *testing.T) {
	rng := simtime.NewRand(17)
	d := &queueDiff{t: t}
	for phase := 0; phase < 60; phase++ {
		// Ops 0 and 1 push, so a uniform op byte fills the queue; drain
		// phases turn most pushes into pops.
		for i := 0; i < 200; i++ {
			op := byte(rng.Intn(256))
			if phase%2 == 1 && op&3 < 2 && rng.Intn(4) != 0 {
				op = op&^3 | 2
			}
			d.step(op)
		}
	}
	t.Logf("%d growths (%d wrapped past the first segment), %d wrap-arounds, %d pushed",
		d.growths, d.wrappedGrowths, d.wraps, d.seq)
	if d.growths < 3 || d.wrappedGrowths < 3 || d.wraps < 10 {
		t.Fatalf("sequence too tame: %d growths (%d wrapped past the first segment), %d wrap-arounds",
			d.growths, d.wrappedGrowths, d.wraps)
	}
}

// FuzzMsgQueue runs the same differential check over arbitrary op bytes.
func FuzzMsgQueue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 4, 8, 2, 2, 2, 2})                // fill, drain past empty
	f.Add([]byte{0, 4, 0, 4, 0x16, 3, 2, 2})          // selective pop past the head
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 3}) // grow past 8 slots with the head on slot 1
	f.Fuzz(func(t *testing.T, ops []byte) {
		d := &queueDiff{t: t}
		for _, op := range ops {
			d.step(op)
		}
	})
}

// A push/pop pair on a warmed-up queue allocates nothing, however deep.
func TestQueueSteadyStateAllocs(t *testing.T) {
	for _, depth := range []int{1, 10_000} {
		var q msgQueue
		for i := 0; i < depth; i++ {
			q.push(Msg{ID: mkID(1, uint64(i))}, nil)
		}
		q.pop(nil)
		allocs := testing.AllocsPerRun(1000, func() {
			q.push(Msg{}, nil)
			q.pop(nil)
		})
		if allocs != 0 {
			t.Errorf("depth %d: %v allocs per push/pop pair, want 0", depth, allocs)
		}
	}
}

// fillCost reports the heap allocations, and their bytes, of pushing n
// messages into each of runs fresh queues, per queue; the queues themselves
// are allocated beforehand.
func fillCost(n, runs int) (allocs, bytes uint64) {
	qs := make([]msgQueue, runs)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs, total := ms.Mallocs, ms.TotalAlloc
	for r := range qs {
		for i := 0; i < n; i++ {
			qs[r].push(Msg{}, nil)
		}
	}
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(qs)
	return (ms.Mallocs - mallocs) / uint64(runs), (ms.TotalAlloc - total) / uint64(runs)
}

// A replay allocates each slot of the ring it fills once. 10,000 messages
// pushed into a fresh queue allocate at most 5 % more than the 16,384 slots
// they grow the ring to: 1.006 times them, each segment added once. A ring
// that doubled by copying into a new array allocated every slot of every
// size it passed through, 2.0 times. A queue that never holds more than 8
// messages allocates the arrays of 1, 2, 4 and 8 slots it always did, and
// no segment table.
func TestQueueGrowthAllocatesEachSlotOnce(t *testing.T) {
	slot := uint64(unsafe.Sizeof(queued{}))
	best := uint64(1<<64 - 1)
	for try := 0; try < 3; try++ {
		_, bytes := fillCost(10_000, 1)
		best = min(best, bytes)
	}
	ceiling := 16_384 * slot * 105 / 100
	t.Logf("10,000 pushes allocated %d B: %.4f times the 16,384 slots of %d B (ceiling %d B)",
		best, float64(best)/float64(16_384*slot), slot, ceiling)
	if best > ceiling {
		t.Errorf("10,000 pushes allocated %d B, over %d B: is the ring copied as it grows?", best, ceiling)
	}

	// The shallow queue's own arrays, allocated as the copying ring did.
	const runs = 100
	keep := make([][]queued, 0, 4*runs)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	total := ms.TotalAlloc
	for r := 0; r < runs; r++ {
		for size := 1; size <= smallMax; size *= 2 {
			keep = append(keep, make([]queued, size))
		}
	}
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(keep)
	want := (ms.TotalAlloc - total) / runs
	if allocs, bytes := fillCost(smallMax, runs); allocs != 4 || bytes != want {
		t.Errorf("filling 8 slots allocated %d arrays and %d B, want 4 and %d B", allocs, bytes, want)
	}
}

// The scaling guard for recovery replay: a head read costs the same from a
// queue 100,000 deep as from one 1,000 deep. A slice queue that shifts its
// backlog on every read is hundreds of times apart here (sliceQueue above:
// ≈ 500×); the bound of 20 is far from both that and from anything this
// host's timing drift produces.
func TestQueueHeadPopIndependentOfDepth(t *testing.T) {
	if raceEnabled {
		t.Skip("timing under the race detector says nothing about the queue")
	}
	const pops = 1000
	timePops := func(depth int) time.Duration {
		best := time.Duration(1<<63 - 1)
		for try := 0; try < 3; try++ {
			var q msgQueue
			for i := 0; i < depth; i++ {
				q.push(Msg{ID: mkID(1, uint64(i))}, nil)
			}
			start := time.Now()
			for i := 0; i < pops; i++ {
				q.pop(nil)
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	shallow, deep := timePops(1_000), timePops(100_000)
	ratio := float64(deep) / float64(shallow)
	t.Logf("%d head pops: %v from 100,000 deep, %v from 1,000 deep (ratio %.1f)", pops, deep, shallow, ratio)
	if ratio >= 20 {
		t.Fatal("head pop cost grows with queue depth (want ratio < 20)")
	}
}

// Migration carries a wrapped, non-empty queue across in queue order.
func TestMigrateWrappedQueue(t *testing.T) {
	e := newTenv(t, 2, frame.ProcID{Node: 0, Local: 99})
	var handled []uint64
	e.reg.RegisterMachine("svc", func(args []byte) Machine {
		return &funcMachine{handle: func(ctx *PCtx, m Msg) { handled = append(handled, m.ID.Seq) }}
	})
	src, dst := e.kernels[0], e.kernels[1]
	id, err := src.Spawn(ProcSpec{Name: "svc", Recoverable: true}, SpawnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e.run(simtime.Second)
	p := src.procs[id]
	p.stopped = true // parked in Receive; nothing below is consumed here

	// Three in, two out, two in: a four-slot ring holding slots 2, 3, 0.
	for seq := uint64(1); seq <= 3; seq++ {
		src.pushToQueue(p, Msg{ID: mkID(9, seq)}, nil)
	}
	p.queue.pop(nil)
	p.queue.pop(nil)
	link := &frame.Link{To: id, Code: 5}
	src.pushToQueue(p, Msg{ID: mkID(9, 4)}, link)
	src.pushToQueue(p, Msg{ID: mkID(9, 5)}, nil)
	if p.queue.head+p.queue.n <= p.queue.size() {
		t.Fatalf("queue not wrapped: head %d, n %d, cap %d", p.queue.head, p.queue.n, p.queue.size())
	}
	want := []frame.MsgID{mkID(9, 3), mkID(9, 4), mkID(9, 5)}

	img, err := src.ExportProcess(id, 1)
	if err != nil {
		t.Fatal(err)
	}
	var exported []frame.MsgID
	for _, q := range img.Queue {
		exported = append(exported, q.Msg.ID)
	}
	if !reflect.DeepEqual(exported, want) || img.Queue[1].Link != link {
		t.Fatalf("exported queue %v (link %v), want %v with the link on the second", exported, img.Queue[1].Link, want)
	}
	if err := dst.ImportProcess(img); err != nil {
		t.Fatal(err)
	}
	if got := dst.procs[id].queue.appendIDs(nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("imported queue %v, want %v", got, want)
	}
	e.run(10 * simtime.Second)
	if !reflect.DeepEqual(handled, []uint64{3, 4, 5}) {
		t.Fatalf("handled %v at the new home, want [3 4 5]", handled)
	}
}

// A replay batch lands in the queue in order, and the kernel keeps nothing
// of the batch's record array, which its sender reuses once the frame is
// acknowledged: a record overwritten afterwards changes no queued message
// or link.
func TestReplayBatchKeepsNoRecord(t *testing.T) {
	e := newTenv(t, 1, frame.ProcID{Node: 0, Local: 99})
	e.reg.RegisterMachine("svc", func(args []byte) Machine {
		return &funcMachine{handle: func(ctx *PCtx, m Msg) {}}
	})
	k := e.kernels[0]
	id, err := k.Spawn(ProcSpec{Name: "svc", Recoverable: true},
		SpawnOptions{Recovering: true, RecoveryGen: 2, Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	recs := []frame.BundleRec{
		{ID: mkID(9, 1), Body: []byte("first")},
		{ID: mkID(9, 2), Body: []byte("second"), HasLink: true, Link: frame.Link{To: id, Code: 7}},
	}
	hdr := frame.AppendBatchHdr(nil, frame.BatchHdr{Kind: frame.BatchRecords, Proc: id, Gen: 2, Seq: 1, Count: uint32(len(recs))})
	k.handleReplayFrame(&frame.Frame{Channel: frame.ChanReplay, Body: hdr, Recs: recs})
	clear(recs)

	p := k.procs[id]
	if got, want := p.queue.appendIDs(nil), []frame.MsgID{mkID(9, 1), mkID(9, 2)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("queued %v, want %v", got, want)
	}
	if m := p.queue.at(1).msg; string(m.Body) != "second" {
		t.Fatalf("second message's body = %q", m.Body)
	}
	if l := p.queue.at(1).link; l == nil || l.Code != 7 {
		t.Fatalf("second record's link = %v", l)
	}
}

// A recreated incarnation takes over its predecessor's ring (§4.7's
// destroy-then-recreate): empty, every slot zeroed, at the capacity the
// predecessor grew it to. The old incarnation keeps no array, none of its
// queued messages reaches the new one, and the depth gauge drops them.
func TestRecreateInheritsQueueRing(t *testing.T) {
	e := newTenv(t, 1, frame.ProcID{Node: 0, Local: 99})
	var handled []uint64
	e.reg.RegisterMachine("svc", func(args []byte) Machine {
		return &funcMachine{handle: func(ctx *PCtx, m Msg) { handled = append(handled, m.ID.Seq) }}
	})
	k := e.kernels[0]
	k.qDepth = metrics.NewRegistry().Gauge(0, "kernel", "queue_depth")
	id, err := k.Spawn(ProcSpec{Name: "svc", Recoverable: true}, SpawnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e.run(simtime.Second)
	old := k.procs[id]
	old.stopped = true // parked in Receive; nothing below is consumed here
	link := &frame.Link{To: id, Code: 5}
	for seq := uint64(1); seq <= 20; seq++ {
		k.pushToQueue(old, Msg{ID: mkID(9, seq), Body: []byte("old")}, link)
	}
	// A read, as the kernel's receive makes one: the head moves off zero.
	old.queue.pop(nil)
	k.qDepth.Add(-1)
	ring := old.queue.size()
	segs := append([][]queued{old.queue.small}, old.queue.segs...)
	if ring != 32 || len(segs) != 3 || old.queue.len() != 19 || k.qDepth.Value() != 19 {
		t.Fatalf("before the crash: ring %d in %d segments, queued %d, gauge %d; want 32 in 3, 19, 19",
			ring, len(segs), old.queue.len(), k.qDepth.Value())
	}
	k.CrashProcess(id, "test")

	if _, err := k.Spawn(ProcSpec{Name: "svc", Recoverable: true}, SpawnOptions{
		FixedID: &id, Recovering: true, Quiet: true,
	}); err != nil {
		t.Fatal(err)
	}
	p := k.procs[id]
	if p == old {
		t.Fatal("process not replaced")
	}
	if p.queue.size() != ring || p.queue.head != 0 || p.queue.len() != 0 {
		t.Fatalf("new queue: ring %d, head %d, queued %d; want %d, 0, 0", p.queue.size(), p.queue.head, p.queue.len(), ring)
	}
	for i, seg := range append([][]queued{p.queue.small}, p.queue.segs...) {
		if &seg[0] != &segs[i][0] {
			t.Fatalf("segment %d is a new array, not the predecessor's", i)
		}
	}
	eachSlot(&p.queue, func(j int, s *queued) {
		if !reflect.DeepEqual(*s, queued{}) {
			t.Fatalf("inherited slot %d holds %+v", j, *s)
		}
	})
	if old.queue.small != nil || old.queue.segs != nil || old.queue.len() != 0 {
		t.Fatalf("old incarnation still holds a ring of %d with %d queued", old.queue.size(), old.queue.len())
	}
	if k.qDepth.Value() != 0 {
		t.Fatalf("queue-depth gauge = %d after the recreate, want 0", k.qDepth.Value())
	}

	p.recovering = false
	k.pushToQueue(p, Msg{ID: mkID(9, 21)}, nil)
	e.run(10 * simtime.Second)
	if !reflect.DeepEqual(handled, []uint64{21}) {
		t.Fatalf("handled %v, want only the new incarnation's [21]", handled)
	}
	if k.qDepth.Value() != 0 {
		t.Fatalf("queue-depth gauge = %d with the queue drained, want 0", k.qDepth.Value())
	}
}

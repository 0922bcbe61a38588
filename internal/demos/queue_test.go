package demos

import (
	"reflect"
	"testing"
	"time"

	"publishing/internal/frame"
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

	growths, wraps int
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
		size := len(d.ring.buf)
		d.ring.push(m, link)
		d.model.push(m, link)
		if len(d.ring.buf) != size {
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
		if got, model := d.ring.ids(), d.model.ids(); !reflect.DeepEqual(got, model) {
			d.t.Fatalf("ids = %v, model %v", got, model)
		}
	}
	if d.ring.len() != len(d.model.items) {
		d.t.Fatalf("len = %d, model %d", d.ring.len(), len(d.model.items))
	}
	// Every slot outside the live span is zero: the ring pins nothing.
	for i := d.ring.n; i < len(d.ring.buf); i++ {
		if s := d.ring.at(i); s.msg.Body != nil || s.link != nil || s.msg.ID != (frame.MsgID{}) {
			d.t.Fatalf("vacated slot %d past the tail still holds %v", i-d.ring.n, s.msg.ID)
		}
	}
}

// Random push/pop/anyMatch/ids against the slice model, in alternating
// fill and drain phases so the ring grows several times and its head laps
// the buffer many times.
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
	t.Logf("%d growths, %d wrap-arounds, %d pushed", d.growths, d.wraps, d.seq)
	if d.growths < 3 || d.wraps < 10 {
		t.Fatalf("sequence too tame: %d growths, %d wrap-arounds", d.growths, d.wraps)
	}
}

// FuzzMsgQueue runs the same differential check over arbitrary op bytes.
func FuzzMsgQueue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 4, 8, 2, 2, 2, 2})       // fill, drain past empty
	f.Add([]byte{0, 4, 0, 4, 0x16, 3, 2, 2}) // selective pop past the head
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
	e := newTenv(t, 2, true, frame.ProcID{Node: 0, Local: 99})
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
	if p.queue.head+p.queue.n <= len(p.queue.buf) {
		t.Fatalf("queue not wrapped: head %d, n %d, cap %d", p.queue.head, p.queue.n, len(p.queue.buf))
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
	if got := dst.procs[id].queue.ids(); !reflect.DeepEqual(got, want) {
		t.Fatalf("imported queue %v, want %v", got, want)
	}
	e.run(10 * simtime.Second)
	if !reflect.DeepEqual(handled, []uint64{3, 4, 5}) {
		t.Fatalf("handled %v at the new home, want [3 4 5]", handled)
	}
}

// A replay batch lands in the queue in order, and the kernel's decode
// scratch keeps no reference to the bodies and links it handed over.
func TestReplayBatchScratchCleared(t *testing.T) {
	e := newTenv(t, 1, true, frame.ProcID{Node: 0, Local: 99})
	e.reg.RegisterMachine("svc", func(args []byte) Machine {
		return &funcMachine{handle: func(ctx *PCtx, m Msg) {}}
	})
	k := e.kernels[0]
	id, err := k.Spawn(ProcSpec{Name: "svc", Recoverable: true},
		SpawnOptions{Recovering: true, RecoveryGen: 2, Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	recs := []ReplayRec{
		{ID: mkID(9, 1), Body: []byte("first")},
		{ID: mkID(9, 2), Body: []byte("second"), Link: &frame.Link{To: id, Code: 7}},
	}
	batch := BeginReplayBatch(nil, id, 2, 1)
	for i := range recs {
		batch = AppendReplayRec(batch, &recs[i])
	}
	FinishReplayBatch(batch, len(recs))
	k.handleReplayFrame(&frame.Frame{Channel: ChanReplay, Body: batch})

	p := k.procs[id]
	if got, want := p.queue.ids(), []frame.MsgID{mkID(9, 1), mkID(9, 2)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("queued %v, want %v", got, want)
	}
	if l := p.queue.at(1).link; l == nil || l.Code != 7 {
		t.Fatalf("second record's link = %v", l)
	}
	scratch := k.replayRecs[:cap(k.replayRecs)]
	if len(scratch) < len(recs) {
		t.Fatalf("scratch not kept: cap %d", len(scratch))
	}
	for i, r := range scratch {
		if r.Body != nil || r.Link != nil {
			t.Fatalf("scratch record %d still holds a body or link", i)
		}
	}
}

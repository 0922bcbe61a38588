package recorder

import (
	"bytes"
	"encoding/hex"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"publishing/internal/demos"
	"publishing/internal/frame"
	"publishing/internal/recorder/tap"
	"publishing/internal/simtime"
	"publishing/internal/stablestore"
)

// storedCases covers every shape a message record takes: absent, empty and
// full-frame bodies; From the sender or another process; no link, a process
// link, a kernel link; negative nodes and the extremes of every integer
// field.
func storedCases() map[string]storedMsg {
	hi := frame.ProcID{Node: math.MaxInt32, Local: math.MaxUint32}
	lo := frame.ProcID{Node: math.MinInt32, Local: 0}
	return map[string]storedMsg{
		"zero":       {},
		"empty-body": {ID: mid(1, 1), Body: []byte{}},
		"typical": {ID: frame.MsgID{Sender: procA(), Seq: 42}, From: procA(), Channel: 2, Code: 9,
			Body: bytes.Repeat([]byte{0xAB}, 48), ArrSeq: 41},
		"extremes": {ID: frame.MsgID{Sender: hi, Seq: math.MaxUint64}, From: lo,
			Channel: math.MaxUint16, Code: math.MaxUint32, Body: []byte{0}, ArrSeq: math.MaxUint64},
		"negative-node": {ID: frame.MsgID{Sender: frame.ProcID{Node: frame.Broadcast, Local: 1}, Seq: 2},
			From: frame.ProcID{Node: frame.Broadcast, Local: 1}},
		"link": {ID: mid(1, 3), Body: []byte("with link"),
			Link: &frame.Link{To: procB(), Channel: 4, Code: 77}},
		"kernel-link": {ID: mid(1, 4),
			Link: &frame.Link{To: lo, Channel: math.MaxUint16, Code: math.MaxUint32, DeliverToKernel: true}},
		"zero-link": {ID: mid(1, 5), Body: []byte{}, Link: &frame.Link{}},
		"max-body": {ID: mid(1, 6), From: procA(),
			Body: bytes.Repeat([]byte{0x5A}, frame.MaxBody), Link: &frame.Link{To: procA(), Code: 1}},
	}
}

// The round trip is field for field over what a record stores; ArrSeq is
// the store's seq, handed back by the caller. The lengths are the layout's:
// flags, the id's node, local and seq, From when it is not the sender,
// channel, code, the link's node, local, channel and code, the body length,
// the body.
func TestStoredMsgRoundTrip(t *testing.T) {
	wantLens := map[string]int{
		"zero":          1 + 3 + 2 + 1,
		"empty-body":    1 + 3 + 2 + 2 + 1,
		"typical":       1 + 3 + 2 + 1 + 48,
		"extremes":      1 + (5 + 5 + 10) + (5 + 1) + (3 + 5) + 1 + 1,
		"negative-node": 1 + 3 + 2 + 1,
		"link":          1 + 3 + 2 + 2 + 4 + 1 + 9,
		"kernel-link":   1 + 3 + 2 + 2 + (5 + 1 + 3 + 5) + 1,
		"zero-link":     1 + 3 + 2 + 2 + 4 + 1,
		"max-body":      1 + 3 + 2 + 2 + 4 + 2 + frame.MaxBody,
	}
	for name, want := range storedCases() {
		enc := appendStoredMsg(nil, &want)
		got, err := decodeStoredMsg(enc, want.ArrSeq)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: round trip\n got %+v\nwant %+v", name, got, want)
		}
		if len(enc) != wantLens[name] {
			t.Fatalf("%s: %d bytes, layout says %d", name, len(enc), wantLens[name])
		}
		// The decoded body is the record's, not a copy, and appending to it
		// cannot write past it.
		if len(want.Body) > 0 && (&got.Body[0] != &enc[len(enc)-len(want.Body)] || cap(got.Body) != len(got.Body)) {
			t.Fatalf("%s: decoded body does not alias exactly the record's body bytes", name)
		}
	}
}

func TestStoredMsgRoundTripProperty(t *testing.T) {
	prop := func(node int32, local uint32, seq uint64, ch uint16, code uint32, arr uint64,
		body []byte, nilBody, fromSender, hasLink, kernel bool) bool {
		p := frame.ProcID{Node: frame.NodeID(node), Local: local}
		want := storedMsg{ID: frame.MsgID{Sender: p, Seq: seq}, From: p, Channel: ch, Code: code, ArrSeq: arr}
		if !fromSender {
			want.From = frame.ProcID{Node: frame.NodeID(^node), Local: ^local}
		}
		if !nilBody {
			want.Body = append([]byte{}, body...)
		}
		if hasLink {
			want.Link = &frame.Link{To: p, Channel: ^ch, Code: ^code, DeliverToKernel: kernel}
		}
		got, err := decodeStoredMsg(appendStoredMsg(nil, &want), arr)
		return err == nil && reflect.DeepEqual(got, want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	advProp := func(n1, n2 int32, l1, l2 uint32, s1, s2, q uint64) bool {
		want := tap.Advisory{
			ReadID: frame.MsgID{Sender: frame.ProcID{Node: frame.NodeID(n1), Local: l1}, Seq: s1},
			HeadID: frame.MsgID{Sender: frame.ProcID{Node: frame.NodeID(n2), Local: l2}, Seq: s2},
			AdvSeq: q,
		}
		got, err := decodeAdvisory(appendAdvisory(nil, &want), q)
		if err != nil || got != want {
			return false
		}
		ls, err := decodeLastSent(appendLastSent(nil, q))
		return err == nil && ls == q
	}
	if err := quick.Check(advProp, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Every strict prefix of a valid record, and a valid record with anything
// after it, is an error — never a panic, never a shorter record.
func TestRecordDecodersRejectDamage(t *testing.T) {
	decoders := map[string]func([]byte) error{
		"msg":  func(b []byte) error { _, err := decodeStoredMsg(b, 0); return err },
		"adv":  func(b []byte) error { _, err := decodeAdvisory(b, 0); return err },
		"last": func(b []byte) error { _, err := decodeLastSent(b); return err },
	}
	valid := map[string][][]byte{
		"adv":  {appendAdvisory(nil, &tap.Advisory{ReadID: mid(1, 2), HeadID: mid(1, 1), AdvSeq: 3})},
		"last": {appendLastSent(nil, 99), appendLastSent(nil, math.MaxUint64)},
	}
	for _, sm := range storedCases() {
		valid["msg"] = append(valid["msg"], appendStoredMsg(nil, &sm))
	}
	for kind, encs := range valid {
		decode := decoders[kind]
		for _, enc := range encs {
			if err := decode(enc); err != nil {
				t.Fatalf("%s: valid record rejected: %v", kind, err)
			}
			for n := 0; n < len(enc); n++ {
				if decode(enc[:n]) == nil {
					t.Fatalf("%s: %d-byte prefix of a %d-byte record accepted", kind, n, len(enc))
				}
			}
			if decode(append(enc[:len(enc):len(enc)], 0)) == nil {
				t.Fatalf("%s: trailing byte accepted", kind)
			}
		}
	}
	// Bits of the message record that carry no field are checked, not
	// ignored, and each value has one encoding.
	idLen := 1 + len(appendMsgID(nil, frame.MsgID{Sender: procA(), Seq: 42})) // flags, id of "typical"
	for name, c := range map[string]struct {
		base   string
		damage func([]byte) []byte
	}{
		"unknown flag":             {"link", func(b []byte) []byte { b[0] |= 0x80; return b }},
		"link flag cleared":        {"link", func(b []byte) []byte { b[0] &^= smLinkPresent; return b }},
		"body flag cleared":        {"link", func(b []byte) []byte { b[0] &^= smBodyPresent; return b }},
		"from flag cleared":        {"link", func(b []byte) []byte { b[0] &^= smFromDiffers; return b }},
		"from flag set":            {"typical", func(b []byte) []byte { b[0] |= smFromDiffers; return b }},
		"kernel flag without link": {"typical", func(b []byte) []byte { b[0] |= smLinkToKernel; return b }},
		"body length grown":        {"link", func(b []byte) []byte { b[len(b)-len("with link")-1]++; return b }},
		"from equal to the sender": {"typical", func(b []byte) []byte {
			b[0] |= smFromDiffers
			return slices.Insert(b, idLen, appendProcID(nil, procA())...)
		}},
		"padded varint": {"zero", func(b []byte) []byte { // the id's node, 0 in two bytes
			return slices.Insert(b, 1, 0x80)
		}},
		"channel out of range": {"zero", func(b []byte) []byte { // 65536 where 0 was
			return slices.Replace(b, 4, 5, 0x80, 0x80, 0x04)
		}},
	} {
		sm := storedCases()[c.base]
		bad := c.damage(appendStoredMsg(nil, &sm))
		if _, err := decodeStoredMsg(bad, 0); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
	for name, bad := range map[string][]byte{
		"adv padded seq":  {0x12, 0x01, 0x82, 0x00, 0x12, 0x01, 0x01},
		"last padded":     {0x80, 0x00},
		"last overflowed": bytes.Repeat([]byte{0xFF}, 10),
	} {
		if decoders[strings.Fields(name)[0]](bad) == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

// The layout is pinned: these bytes are what a store written today holds.
func TestRecordGoldenBytes(t *testing.T) {
	sm := storedMsg{
		ID:   frame.MsgID{Sender: frame.ProcID{Node: 1, Local: 2}, Seq: 3},
		From: frame.ProcID{Node: -1, Local: 5}, Channel: 6, Code: 300, Body: []byte("hi"), ArrSeq: 8,
		Link: &frame.Link{To: frame.ProcID{Node: 10, Local: 11}, Channel: 12, Code: 13, DeliverToKernel: true},
	}
	adv := tap.Advisory{ReadID: mid(1, 2), HeadID: mid(3, 4), AdvSeq: 5}
	for name, c := range map[string]struct {
		got  []byte
		want string
	}{
		"msg": {appendStoredMsg(nil, &sm), "0f" + // flags: link, body, From, kernel
			"02" + "02" + "03" + // ID: node 1 zigzagged, local, seq
			"01" + "05" + // From: node -1 zigzagged, local
			"06" + "ac02" + // Channel, Code 300
			"14" + "0b" + "0c" + "0d" + // Link: node 10 zigzagged, local, Channel, Code
			"02" + "6869"}, // Body
		"adv":  {appendAdvisory(nil, &adv), "12" + "01" + "02" + "12" + "03" + "04"},
		"last": {appendLastSent(nil, 0x0102030405060708), "888e98a8c0e0808101"},
	} {
		if got := hex.EncodeToString(c.got); got != c.want {
			t.Fatalf("%s layout changed:\n got %s\nwant %s", name, got, c.want)
		}
	}
}

func TestRecordEncodersDoNotAllocate(t *testing.T) {
	sm := storedCases()["link"]
	adv := tap.Advisory{ReadID: mid(1, 2), HeadID: mid(1, 1), AdvSeq: 3}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() {
		buf = appendStoredMsg(buf[:0], &sm)
		buf = appendAdvisory(buf[:0], &adv)
		buf = appendLastSent(buf[:0], 7)
	}); n != 0 {
		t.Fatalf("encoding into a reused buffer allocates %v times", n)
	}
}

// Reading a message back (replay, reconstruct, handoff) decodes its record
// where the store keeps it: the only allocation is the Link a record carries.
func TestMessageDecoderAllocatesOnlyTheLink(t *testing.T) {
	for name, want := range map[string]float64{"typical": 0, "link": 1} {
		sm := storedCases()[name]
		enc := appendStoredMsg(nil, &sm)
		if n := testing.AllocsPerRun(100, func() {
			if _, err := decodeStoredMsg(enc, 0); err != nil {
				t.Fatal(err)
			}
		}); n != want {
			t.Errorf("%s: decoding allocates %v times, want %v", name, n, want)
		}
	}
}

// FuzzStoredRecord feeds arbitrary bytes to the three record decoders: they
// must not panic, and whatever they accept must be the one encoding of the
// value they return.
func FuzzStoredRecord(f *testing.F) {
	for _, sm := range storedCases() {
		f.Add(appendStoredMsg(nil, &sm))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const seq = 7 // the store's seq, which the record does not hold
		if sm, err := decodeStoredMsg(data, seq); err == nil {
			enc := appendStoredMsg(nil, &sm)
			if !bytes.Equal(enc, data) {
				t.Fatalf("accepted a non-canonical message record\n in  %x\n out %x", data, enc)
			}
			if again, err := decodeStoredMsg(enc, seq); err != nil || !reflect.DeepEqual(again, sm) {
				t.Fatalf("re-decode: %v\n got %+v\nwant %+v", err, again, sm)
			}
			if id, err := decodeStoredMsgID(data); err != nil || id != sm.ID {
				t.Fatalf("the id alone decodes to %v (%v), the record to %v", id, err, sm.ID)
			}
		}
		if adv, err := decodeAdvisory(data, seq); err == nil && !bytes.Equal(appendAdvisory(nil, &adv), data) {
			t.Fatalf("advisory record %x does not re-encode to itself", data)
		}
		if ls, err := decodeLastSent(data); err == nil && !bytes.Equal(appendLastSent(nil, ls), data) {
			t.Fatalf("last-sent record %x does not re-encode to itself", data)
		}
	})
}

// publishLinked is publish with a passed link on the message.
func publishLinked(r *Recorder, from, to frame.ProcID, seq uint64, body string, link frame.Link) {
	publishFrame(r, &frame.Frame{
		Type: frame.Guaranteed, Src: from.Node, Dst: to.Node,
		ID: frame.MsgID{Sender: from, Seq: seq}, From: from, To: to,
		Channel: 1, Code: uint32(seq), Body: []byte(body), PassedLink: &link,
	})
}

// fillDatabase drives r through every kind of record rebuild reads: plain,
// link-passing and empty messages, out-of-order reads, two checkpoints of one
// process (the first trimming a non-prefix of its stream), a process that
// never checkpoints, and one that dies. The clock moves so SeenAt varies.
func fillDatabase(r *Recorder, sched *simtime.Scheduler) {
	a, b := procA(), procB()
	c := frame.ProcID{Node: 1, Local: 4}
	register(r, a, "a")
	register(r, b, "b")
	register(r, c, "c")
	step := func() { sched.Run(sched.Now() + simtime.Millisecond) }
	readOrder := func(p frame.ProcID, read, head frame.MsgID) {
		r.handleNotice(&demos.Notice{Kind: demos.NoticeReadOrder, Proc: p, ReadID: read, HeadID: head})
	}
	aMsg := func(seq uint64) frame.MsgID { return frame.MsgID{Sender: a, Seq: seq} }

	for i := uint64(1); i <= 3; i++ {
		publish(r, a, b, i, "plain")
		step()
	}
	publishLinked(r, a, b, 4, "reply here", frame.Link{To: a, Channel: 2, Code: 40})
	publishLinked(r, a, b, 5, "", frame.Link{To: c, Channel: 3, Code: 50, DeliverToKernel: true})
	step()
	// b reads #3 past #1, then checkpoints having read #3 and #1: the
	// checkpoint drops arrival seqs 0 and 2, not a prefix.
	readOrder(b, aMsg(3), aMsg(1))
	r.handleNotice(&demos.Notice{Kind: demos.NoticeCheckpoint, Proc: b,
		Checkpoint: ckImage("first", aMsg(5)), SendSeq: 1, ReadCount: 2, StateKB: 1,
		Queued: []frame.MsgID{aMsg(2), aMsg(4), aMsg(5)}})
	publish(r, a, b, 6, "after first checkpoint")
	readOrder(b, aMsg(4), aMsg(2))
	step()
	r.handleNotice(&demos.Notice{Kind: demos.NoticeCheckpoint, Proc: b,
		Checkpoint: ckImage("second", aMsg(6)), SendSeq: 2, ReadCount: 4, StateKB: 3,
		Queued: []frame.MsgID{aMsg(5), aMsg(6)}})
	// Arrivals and an advisory past the last checkpoint, so the rebuilt
	// ArrSeqNext and AdvSeqNext come from records rather than from the trim.
	publishLinked(r, a, b, 7, "tail", frame.Link{To: b, Code: 70})
	publish(r, a, b, 8, "tail")
	readOrder(b, aMsg(7), aMsg(5))
	// c: messages and an advisory, no checkpoint. b sends too.
	publish(r, b, c, 1, "to c")
	publishLinked(r, b, c, 2, "to c", frame.Link{To: b, Channel: 9, Code: 1})
	readOrder(c, frame.MsgID{Sender: b, Seq: 2}, frame.MsgID{Sender: b, Seq: 1})
	step()
	// d is created, receives, and is destroyed.
	d := frame.ProcID{Node: 0, Local: 8}
	register(r, d, "d")
	publish(r, a, d, 9, "to the dead")
	r.handleNotice(&demos.Notice{Kind: demos.NoticeDestroyed, Proc: d})
}

// entryView is what a database entry holds that stable storage must bring
// back. CkMarks are the checkpoint's acceptance marks, in sender order. Left
// out: LastCkAt (reset to the restart time), recorded (rebuilt from the
// retained messages; the checkpoint's marks fence what it trimmed),
// Recovering.
type entryView struct {
	Spec                   demos.ProcSpec
	Node                   frame.NodeID
	LastSent               uint64
	Arrivals               []storedMsg
	Advisories             []tap.Advisory
	ArrSeqNext, AdvSeqNext uint64
	Checkpoint             []byte
	CkMarks                []frame.MsgID
	CkSendSeq, CkReadCount uint64
	CkStateKB              int
	Rev                    uint64
	Dead                   bool
}

func viewDB(r *Recorder) map[frame.ProcID]entryView {
	out := make(map[frame.ProcID]entryView, len(r.db))
	for p, e := range r.db {
		// The arrivals in log order, each read from its record.
		arrivals := make([]storedMsg, e.Arrivals.Len())
		for i := range arrivals {
			seq, ref := e.Arrivals.At(i)
			arrivals[i] = readArrival(r.store, e.keys.msg, seq, ref)
		}
		out[p] = entryView{Spec: e.Spec, Node: e.Node, LastSent: e.LastSent,
			Arrivals: arrivals, Advisories: e.Advisories, ArrSeqNext: e.ArrSeqNext, AdvSeqNext: e.AdvSeqNext,
			Checkpoint: e.Checkpoint, CkMarks: e.CkMarks, CkSendSeq: e.CkSendSeq, CkReadCount: e.CkReadCount,
			CkStateKB: e.CkStateKB, Rev: e.Rev, Dead: e.Dead}
	}
	return out
}

// A crashed recorder restarted over its store holds the database it had,
// field for field. The subtest is named for the store engine, Paged.
func TestRestartRebuildsDatabaseFieldForField(t *testing.T) {
	t.Run("paged", restartRebuildsDatabaseFieldForField)
}

func restartRebuildsDatabaseFieldForField(t *testing.T) {
	r, sched, _ := newBench(t)
	fillDatabase(r, sched)
	before := viewDB(r)
	// The scenario must hold what it claims to cover.
	b := before[procB()]
	links, kernel := 0, 0
	for _, sm := range b.Arrivals {
		if sm.Link != nil {
			links++
			if sm.Link.DeliverToKernel {
				kernel++
			}
		}
	}
	if !bytes.HasPrefix(b.Checkpoint, []byte("second")) || len(b.CkMarks) != 1 || len(b.Arrivals) != 4 || links != 2 || kernel != 1 || len(b.Advisories) != 1 {
		t.Fatalf("scenario drifted: checkpoint %q, %d arrivals (%d links, %d kernel), %d advisories",
			b.Checkpoint, len(b.Arrivals), links, kernel, len(b.Advisories))
	}
	d := frame.ProcID{Node: 0, Local: 8}
	if dead := before[d]; !dead.Dead || dead.ArrSeqNext != 1 {
		t.Fatalf("scenario drifted: d dead=%v ArrSeqNext=%d", dead.Dead, dead.ArrSeqNext)
	}

	r.Crash()
	if err := r.Restart(); err != nil {
		t.Fatal(err)
	}
	DiffDatabase(t, before, viewDB(r))
}

// DatabaseView snapshots r's database for DiffDatabase. It and DiffDatabase
// are exported to the cluster-level check in rebuild_oracle_test.go.
func DatabaseView(r *Recorder) map[frame.ProcID]entryView { return viewDB(r) }

// DiffDatabase reports, field for field, every entry a rebuilt database got
// wrong. Destruction empties a stream for good, so a rebuild reads back a
// dead process's death and revision and leaves its arrival counter at zero
// and its checkpoint marks empty.
func DiffDatabase(t testing.TB, before, after map[frame.ProcID]entryView) {
	t.Helper()
	if len(after) != len(before) {
		t.Fatalf("rebuilt %d processes, had %d", len(after), len(before))
	}
	for p, want := range before {
		if want.Dead {
			want.ArrSeqNext, want.CkMarks = 0, nil
		}
		got := after[p]
		wv, gv := reflect.ValueOf(want), reflect.ValueOf(got)
		for i := 0; i < wv.NumField(); i++ {
			if !reflect.DeepEqual(wv.Field(i).Interface(), gv.Field(i).Interface()) {
				t.Errorf("%s.%s:\n rebuilt %+v\n     had %+v", p, wv.Type().Field(i).Name,
					gv.Field(i).Interface(), wv.Field(i).Interface())
			}
		}
	}
}

// One damaged per-message record fails the restart, naming the record, and
// the recorder stays crashed; it used to be skipped, and recovery served a
// stream one message short.
func TestRestartFailsOnDamagedRecord(t *testing.T) {
	flip := func(d []byte) []byte { d[0] ^= 0xFF; return d }
	truncate := func(d []byte) []byte { return d[:len(d)-1] }
	for name, c := range map[string]struct {
		ns     string
		damage func([]byte) []byte
	}{
		"msg flipped byte": {"msg", flip},
		"msg truncated":    {"msg", truncate},
		"adv truncated":    {"adv", truncate},
		"last truncated":   {"last", truncate},
	} {
		t.Run(name, func(t *testing.T) {
			r, sched := newBenchOn(t, stablestore.New())
			fillDatabase(r, sched)
			recs, err := r.store.ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			damaged := stablestore.New()
			var hit *stablestore.Record
			for i := range recs {
				if hit == nil && strings.HasPrefix(recs[i].Key, c.ns+":") {
					hit = &recs[i]
					hit.Data = c.damage(hit.Data)
				}
				if _, err := damaged.Append(recs[i]); err != nil {
					t.Fatal(err)
				}
			}
			if hit == nil {
				t.Fatalf("scenario wrote no %s record", c.ns)
			}
			r2, _ := newBenchOn(t, damaged)
			r2.Crash()
			err = r2.Restart()
			if err == nil {
				t.Fatalf("restart over a store with a damaged %s record succeeded", c.ns)
			}
			if !strings.Contains(err.Error(), hit.Key) {
				t.Fatalf("error does not name the record's key %q: %v", hit.Key, err)
			}
			if !r2.Crashed() || len(r2.db) != 0 {
				t.Fatalf("recorder came up on a partial database: crashed=%v, %d entries", r2.Crashed(), len(r2.db))
			}
		})
	}
}

// BenchmarkPersistMessage is the per-record cost of the publish path's
// append: encode one stored message and hand it to the store.
func BenchmarkPersistMessage(b *testing.B) {
	for _, size := range []struct {
		name string
		body int
	}{{"48B", 48}, {"1KB", 1024}} {
		b.Run(size.name, func(b *testing.B) {
			r, _ := newBenchOn(b, stablestore.New())
			register(r, procB(), "b")
			e := r.db[procB()]
			sm := storedMsg{ID: frame.MsgID{Sender: procA()}, From: procA(), Body: make([]byte, size.body)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sm.ID.Seq, sm.ArrSeq = uint64(i+1), uint64(i)
				r.persistMessage(e, &sm)
			}
			b.ReportMetric(float64(len(r.encScratch)), "B/record")
		})
	}
}

// BenchmarkRecorderRebuild is the restart cost: a store of 100,000 records
// (50,000 messages and their last-sent watermarks, spread over 200
// checkpointed processes) read back into a database.
func BenchmarkRecorderRebuild(b *testing.B) {
	const procs, msgs = 200, 50_000
	r, _ := newBenchOn(b, stablestore.New())
	ids := make([]frame.ProcID, procs)
	for i := range ids {
		ids[i] = frame.ProcID{Node: frame.NodeID(i % 2), Local: uint32(i/2 + 1)}
		register(r, ids[i], "p")
	}
	body := string(make([]byte, 48))
	seq := make([]uint64, procs)
	for i := 0; i < msgs; i++ {
		from := i % procs
		seq[from]++
		publish(r, ids[from], ids[(from+1)%procs], seq[from], body)
		if i == msgs/2 {
			for _, p := range ids {
				e := r.db[p]
				var read []frame.MsgID
				for k := 0; k < e.Arrivals.Len()/2; k++ {
					seq, ref := e.Arrivals.At(k)
					read = append(read, (*tapFx)(r).ArrivalID(&e.Stream, seq, ref))
				}
				r.handleNotice(&demos.Notice{Kind: demos.NoticeCheckpoint, Proc: p, Checkpoint: ckImage("ck", read...),
					ReadCount: uint64(len(read))})
			}
		}
	}
	stored, err := r.store.ReadAll()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		r.Crash()
		if err := r.rebuild(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N*len(stored)), "ns/record")
	b.ReportMetric(float64(len(stored)), "records")
}

// A checkpoint that trims the highest arrival seqs leaves them dead in the
// store. A restart must number new arrivals above them: taking the next seq
// from the retained messages alone reuses dead seqs, and the restart after
// that reads the new arrivals as dropped. The subtest is named for the store
// engine, Paged.
func TestRestartNumbersArrivalsAboveCheckpointedSeqs(t *testing.T) {
	t.Run("paged", restartNumbersArrivalsAboveCheckpointedSeqs)
}

func restartNumbersArrivalsAboveCheckpointedSeqs(t *testing.T) {
	r, _, _ := newBench(t)
	register(r, procB(), "b")
	for i := uint64(1); i <= 3; i++ {
		publish(r, procA(), procB(), i, "read")
	}
	r.handleNotice(&demos.Notice{
		Kind: demos.NoticeCheckpoint, Proc: procB(),
		Checkpoint: ckImage("all read", frame.MsgID{Sender: procA(), Seq: 3}), SendSeq: 1, ReadCount: 3, StateKB: 1,
	})
	if _, _, _, _, queued := r.Entry(procB()); queued != 0 {
		t.Fatalf("checkpoint retained %d arrivals, want 0", queued)
	}
	next := r.db[procB()].ArrSeqNext
	restart := func() {
		t.Helper()
		r.Crash()
		if err := r.Restart(); err != nil {
			t.Fatal(err)
		}
	}
	restart()
	if got := r.db[procB()].ArrSeqNext; got != next {
		t.Fatalf("ArrSeqNext after restart = %d, was %d", got, next)
	}
	publish(r, procA(), procB(), 4, "kept")
	publish(r, procA(), procB(), 5, "kept")
	restart()
	sum := r.StreamSummary(procB())
	if len(sum) != 2 || sum[0].Seq != 4 || sum[1].Seq != 5 {
		t.Fatalf("arrivals after the second restart: %v, want messages 4 and 5", sum)
	}
}

// A checkpoint that trims every message a sender wrote leaves no record to
// rebuild that sender's watermark from. The checkpoint's acceptance marks
// are stored with it, so a restarted recorder still fences a late
// retransmission of the sender's last message out of the stream.
func TestRestartKeepsFullyTrimmedSendersFence(t *testing.T) {
	r, _, _ := newBench(t)
	register(r, procB(), "b")
	last := frame.MsgID{Sender: procA(), Seq: 3}
	for seq := uint64(1); seq <= last.Seq; seq++ {
		publish(r, procA(), procB(), seq, "read")
	}
	r.handleNotice(&demos.Notice{Kind: demos.NoticeCheckpoint, Proc: procB(),
		Checkpoint: ckImage("all read", last), SendSeq: 1, ReadCount: 3, StateKB: 1})
	if sum := r.StreamSummary(procB()); len(sum) != 0 {
		t.Fatalf("the checkpoint left %v in the stream, want it empty", sum)
	}
	r.Crash()
	if err := r.Restart(); err != nil {
		t.Fatal(err)
	}
	publish(r, procA(), procB(), last.Seq, "late retransmission")
	if sum := r.StreamSummary(procB()); len(sum) != 0 {
		t.Fatalf("a late copy of %v entered the restarted recorder's stream: %v", last, sum)
	}
	publish(r, procA(), procB(), last.Seq+1, "new")
	if sum := r.StreamSummary(procB()); len(sum) != 1 || sum[0].Seq != last.Seq+1 {
		t.Fatalf("stream after a new message = %v, want only #%d", sum, last.Seq+1)
	}
}

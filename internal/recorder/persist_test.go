package recorder

import (
	"bytes"
	"encoding/hex"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"publishing/internal/demos"
	"publishing/internal/frame"
	"publishing/internal/simtime"
	"publishing/internal/stablestore"
)

// storedCases covers every shape a message record takes: absent, empty and
// full-frame bodies; no link, a process link, a kernel link; the extremes of
// every integer field.
func storedCases() map[string]pendingMsg {
	hi := frame.ProcID{Node: math.MaxInt32, Local: math.MaxUint32}
	lo := frame.ProcID{Node: math.MinInt32, Local: 0}
	return map[string]pendingMsg{
		"zero":       {},
		"empty-body": {storedMsg: storedMsg{ID: mid(1, 1), Body: []byte{}}},
		"typical": {storedMsg: storedMsg{ID: mid(7, 42), From: procA(), Channel: 2, Code: 9,
			Body: bytes.Repeat([]byte{0xAB}, 48), ArrSeq: 41}, To: procB(), SeenAt: 3 * simtime.Millisecond},
		"extremes": {storedMsg: storedMsg{ID: frame.MsgID{Sender: hi, Seq: math.MaxUint64}, From: lo,
			Channel: math.MaxUint16, Code: math.MaxUint32, Body: []byte{0}, ArrSeq: math.MaxUint64},
			To: frame.ProcID{Node: frame.Broadcast, Local: 1}, SeenAt: math.MaxInt64},
		"negative-time": {storedMsg: storedMsg{ID: mid(1, 2)}, SeenAt: -1},
		"link": {storedMsg: storedMsg{ID: mid(1, 3), Body: []byte("with link"),
			Link: &frame.Link{To: procB(), Channel: 4, Code: 77}}},
		"kernel-link": {storedMsg: storedMsg{ID: mid(1, 4),
			Link: &frame.Link{To: lo, Channel: math.MaxUint16, Code: math.MaxUint32, DeliverToKernel: true}}},
		"zero-link": {storedMsg: storedMsg{ID: mid(1, 5), Body: []byte{}, Link: &frame.Link{}}},
		"max-body": {storedMsg: storedMsg{ID: mid(1, 6), From: procA(),
			Body: bytes.Repeat([]byte{0x5A}, frame.MaxBody), Link: &frame.Link{To: procA(), Code: 1}}, To: procB()},
	}
}

func TestStoredMsgRoundTrip(t *testing.T) {
	for name, want := range storedCases() {
		enc := appendStoredMsg(nil, &want)
		got, err := decodeStoredMsg(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: round trip\n got %+v\nwant %+v", name, got, want)
		}
		wantLen := storedMsgFixedLen + len(want.Body)
		if want.Link != nil {
			wantLen += storedLinkLen
		}
		if len(enc) != wantLen {
			t.Fatalf("%s: %d bytes, layout says %d", name, len(enc), wantLen)
		}
		// The decoded record owns its bytes: the scratch it came from is
		// overwritten by the next persist call.
		for i := range enc {
			enc[i] = 0xFF
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decoded record aliases its input", name)
		}
	}
}

func TestStoredMsgRoundTripProperty(t *testing.T) {
	prop := func(node int32, local uint32, seq uint64, ch uint16, code uint32, arr uint64, seen int64,
		body []byte, nilBody, hasLink, kernel bool) bool {
		p := frame.ProcID{Node: frame.NodeID(node), Local: local}
		want := pendingMsg{storedMsg: storedMsg{ID: frame.MsgID{Sender: p, Seq: seq}, From: p, Channel: ch, Code: code, ArrSeq: arr},
			To: frame.ProcID{Node: frame.NodeID(^node), Local: ^local}, SeenAt: simtime.Time(seen)}
		if !nilBody {
			want.Body = append([]byte{}, body...)
		}
		if hasLink {
			want.Link = &frame.Link{To: p, Channel: ^ch, Code: ^code, DeliverToKernel: kernel}
		}
		got, err := decodeStoredMsg(appendStoredMsg(nil, &want))
		return err == nil && reflect.DeepEqual(got, want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	advProp := func(n1, n2 int32, l1, l2 uint32, s1, s2, q uint64) bool {
		want := advisory{
			ReadID: frame.MsgID{Sender: frame.ProcID{Node: frame.NodeID(n1), Local: l1}, Seq: s1},
			HeadID: frame.MsgID{Sender: frame.ProcID{Node: frame.NodeID(n2), Local: l2}, Seq: s2},
			AdvSeq: q,
		}
		got, err := decodeAdvisory(appendAdvisory(nil, &want))
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
		"msg":  func(b []byte) error { _, err := decodeStoredMsg(b); return err },
		"adv":  func(b []byte) error { _, err := decodeAdvisory(b); return err },
		"last": func(b []byte) error { _, err := decodeLastSent(b); return err },
	}
	valid := map[string][][]byte{
		"adv":  {appendAdvisory(nil, &advisory{ReadID: mid(1, 2), HeadID: mid(1, 1), AdvSeq: 3})},
		"last": {appendLastSent(nil, 99)},
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
	// Bits of the message record that carry no field are checked, not ignored.
	base := storedCases()["link"]
	enc := appendStoredMsg(nil, &base)
	for name, damage := range map[string]func([]byte){
		"unknown flag":       func(b []byte) { b[0] |= 0x80 },
		"link flag cleared":  func(b []byte) { b[0] &^= smLinkPresent },
		"body flag cleared":  func(b []byte) { b[0] &^= smBodyPresent },
		"body length grown":  func(b []byte) { b[storedMsgFixedLen-1]++ },
		"kernel byte not 01": func(b []byte) { b[len(b)-1] = 2 },
	} {
		bad := append([]byte(nil), enc...)
		damage(bad)
		if _, err := decodeStoredMsg(bad); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

// The layout is pinned: these bytes are what a store written today holds.
func TestRecordGoldenBytes(t *testing.T) {
	sm := pendingMsg{
		storedMsg: storedMsg{
			ID:   frame.MsgID{Sender: frame.ProcID{Node: 1, Local: 2}, Seq: 3},
			From: frame.ProcID{Node: 1, Local: 2}, Channel: 6, Code: 7, Body: []byte("hi"), ArrSeq: 8,
			Link: &frame.Link{To: frame.ProcID{Node: 10, Local: 11}, Channel: 12, Code: 13, DeliverToKernel: true},
		},
		To: frame.ProcID{Node: -1, Local: 5}, SeenAt: 9,
	}
	adv := advisory{ReadID: mid(1, 2), HeadID: mid(3, 4), AdvSeq: 5}
	for name, c := range map[string]struct {
		got  []byte
		want string
	}{
		"msg": {appendStoredMsg(nil, &sm), "03" + // flags: link, body
			"00000001" + "00000002" + "0000000000000003" + // ID
			"00000001" + "00000002" + // From
			"ffffffff" + "00000005" + // To
			"0006" + "00000007" + // Channel, Code
			"0000000000000008" + "0000000000000009" + // ArrSeq, SeenAt
			"00000002" + "6869" + // Body
			"0000000a" + "0000000b" + "000c" + "0000000d" + "01"}, // Link
		"adv": {appendAdvisory(nil, &adv),
			"00000009" + "00000001" + "0000000000000002" +
				"00000009" + "00000003" + "0000000000000004" +
				"0000000000000005"},
		"last": {appendLastSent(nil, 0x0102030405060708), "0102030405060708"},
	} {
		if got := hex.EncodeToString(c.got); got != c.want {
			t.Fatalf("%s layout changed:\n got %s\nwant %s", name, got, c.want)
		}
	}
}

func TestRecordEncodersDoNotAllocate(t *testing.T) {
	sm := storedCases()["link"]
	adv := advisory{ReadID: mid(1, 2), HeadID: mid(1, 1), AdvSeq: 3}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() {
		buf = appendStoredMsg(buf[:0], &sm)
		buf = appendAdvisory(buf[:0], &adv)
		buf = appendLastSent(buf[:0], 7)
	}); n != 0 {
		t.Fatalf("encoding into a reused buffer allocates %v times", n)
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
		if sm, err := decodeStoredMsg(data); err == nil {
			enc := appendStoredMsg(nil, &sm)
			if !bytes.Equal(enc, data) {
				t.Fatalf("accepted a non-canonical message record\n in  %x\n out %x", data, enc)
			}
			if again, err := decodeStoredMsg(enc); err != nil || !reflect.DeepEqual(again, sm) {
				t.Fatalf("re-decode: %v\n got %+v\nwant %+v", err, again, sm)
			}
		}
		if adv, err := decodeAdvisory(data); err == nil && !bytes.Equal(appendAdvisory(nil, &adv), data) {
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
		Checkpoint: []byte("first"), SendSeq: 1, ReadCount: 2, StateKB: 1,
		Queued: []frame.MsgID{aMsg(2), aMsg(4), aMsg(5)}})
	publish(r, a, b, 6, "after first checkpoint")
	readOrder(b, aMsg(4), aMsg(2))
	step()
	r.handleNotice(&demos.Notice{Kind: demos.NoticeCheckpoint, Proc: b,
		Checkpoint: []byte("second"), SendSeq: 2, ReadCount: 4, StateKB: 3,
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
// back. Left out: LastCkAt (reset to the restart time), recorded and trimDebt
// (in-memory conservatism, see procEntry), Recovering.
type entryView struct {
	Spec                   demos.ProcSpec
	Node                   frame.NodeID
	LastSent               uint64
	Arrivals               []storedMsg
	Advisories             []advisory
	ArrSeqNext, AdvSeqNext uint64
	Checkpoint             []byte
	CkSendSeq, CkReadCount uint64
	CkStateKB              int
	BaseReads              uint64
	Rev                    uint64
	Dead                   bool
}

func viewDB(db map[frame.ProcID]*procEntry) map[frame.ProcID]entryView {
	out := make(map[frame.ProcID]entryView, len(db))
	for p, e := range db {
		out[p] = entryView{Spec: e.Spec, Node: e.Node, LastSent: e.LastSent,
			Arrivals: reconstruct(e.Arrivals, nil), Advisories: e.Advisories, ArrSeqNext: e.ArrSeqNext, AdvSeqNext: e.AdvSeqNext,
			Checkpoint: e.Checkpoint, CkSendSeq: e.CkSendSeq, CkReadCount: e.CkReadCount,
			CkStateKB: e.CkStateKB, BaseReads: e.BaseReads, Rev: e.Rev, Dead: e.Dead}
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
	before := viewDB(r.db)
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
	if string(b.Checkpoint) != "second" || len(b.Arrivals) != 4 || links != 2 || kernel != 1 || len(b.Advisories) != 1 {
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
	DiffDatabase(t, before, viewDB(r.db))
}

// DatabaseView snapshots r's database for DiffDatabase. It and DiffDatabase
// are exported to the cluster-level check in rebuild_oracle_test.go.
func DatabaseView(r *Recorder) map[frame.ProcID]entryView { return viewDB(r.db) }

// DiffDatabase reports, field for field, every entry a rebuilt database got
// wrong. Destruction empties a stream for good, so a rebuild reads back a
// dead process's death and revision and leaves its arrival counter at zero.
func DiffDatabase(t testing.TB, before, after map[frame.ProcID]entryView) {
	t.Helper()
	if len(after) != len(before) {
		t.Fatalf("rebuilt %d processes, had %d", len(after), len(before))
	}
	for p, want := range before {
		if want.Dead {
			want.ArrSeqNext = 0
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
			sm := pendingMsg{storedMsg: storedMsg{ID: frame.MsgID{Sender: procA()}, From: procA(),
				Body: make([]byte, size.body)}, To: procB(), SeenAt: simtime.Millisecond}
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
				r.handleNotice(&demos.Notice{Kind: demos.NoticeCheckpoint, Proc: p, Checkpoint: []byte("ck"),
					ReadCount: uint64(r.db[p].Arrivals.len()) / 2})
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
		Checkpoint: []byte("all read"), SendSeq: 1, ReadCount: 3, StateKB: 1,
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

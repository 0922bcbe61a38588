package demos

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"publishing/internal/frame"
)

// Cases for every body type the package codes: each op and kind, and the
// extremes of each field's range.

var (
	codecProc  = frame.ProcID{Node: 3, Local: 7}
	codecLink  = frame.Link{To: frame.ProcID{Node: -1, Local: math.MaxUint32}, Channel: math.MaxUint16, Code: math.MaxUint32, DeliverToKernel: true}
	codecSpecs = []ProcSpec{
		{},
		{Name: "worker", Args: []byte{0, 1, 2}, Recoverable: true, RecoveryTimeBound: math.MinInt64, InitialLink: codecLink},
		{Name: "процесс", RecoveryTimeBound: math.MaxInt64},
	}
)

func ctlCases() []CtlMsg {
	return []CtlMsg{
		{Op: OpCreate, Spec: codecSpecs[1], TargetNode: frame.Broadcast},
		{Op: OpCreate, Spec: codecSpecs[2], TargetNode: math.MaxInt32},
		{Op: OpRecreate, Spec: codecSpecs[1], Proc: codecProc, FirstSendSeq: 1, LastSentSeq: math.MaxUint64,
			Checkpoint: []byte("image"), CkChunks: math.MaxUint32, ReadCount: 9, RecoveryGen: 4},
		{Op: OpRecreate},
		{Op: OpDestroy}, {Op: OpMoveLink}, {Op: OpStop}, {Op: OpStart}, {Op: OpCheckpoint},
		{Op: OpRecoveryDone, Proc: codecProc, RecoveryGen: math.MaxUint64},
		{Op: OpQueryProcs, RestartNumber: 1 << 40},
	}
}

func noticeCases() []Notice {
	return []Notice{
		{Kind: NoticeCreated, Proc: codecProc, Spec: codecSpecs[1]},
		{Kind: NoticeDestroyed, Proc: codecProc},
		{Kind: NoticeReadOrder, Proc: codecProc, ReadID: frame.MsgID{Sender: codecProc, Seq: 5}, HeadID: frame.MsgID{Sender: frame.ProcID{Node: -1, Local: 1}, Seq: math.MaxUint64}},
		{Kind: NoticeCheckpoint, Proc: codecProc, Checkpoint: bytes.Repeat([]byte{0xA5}, 3000), SendSeq: 3, ReadCount: 4, StateKB: 3,
			Queued: []frame.MsgID{{Sender: codecProc, Seq: 1}, {Sender: frame.ProcID{Node: 9, Local: 2}, Seq: 8}}},
		{Kind: NoticeCheckpoint, StateKB: math.MinInt64},
		{Kind: NoticeCrashed, Proc: codecProc},
		{Kind: NoticeMigrated, Proc: codecProc, Node: 12},
	}
}

func replyCases() []CtlReply {
	return []CtlReply{
		{},
		{OK: true, Proc: codecProc, AckedBatch: 1},
		{Err: "demos: checkpoint for p1.2 incomplete (1/3 chunks)", RestartNumber: math.MaxUint64, AckedBatch: math.MaxUint64},
	}
}

func queryCases() []QueryResponse {
	return []QueryResponse{
		{},
		{RestartNumber: 3, Node: -1, Procs: []ProcReport{{Proc: codecProc, State: StateFunctioning}}},
		{RestartNumber: math.MaxUint64, Node: 5, Procs: []ProcReport{
			{Proc: frame.ProcID{Node: 5, Local: 1}, State: StateCrashed},
			{Proc: frame.ProcID{Node: 5, Local: 9}, State: StateRecovering},
			{Proc: frame.ProcID{Node: 5, Local: math.MaxUint32}},
		}},
	}
}

func imageCases() []checkpointImage {
	full := newLinkTable()
	full.insert(frame.Link{To: frame.ProcID{Node: 2, Local: 1}, Channel: 3})
	gone := full.insert(frame.Link{To: frame.ProcID{Node: 0, Local: 4}, Code: 7})
	full.insert(codecLink)
	full.remove(gone)
	return []checkpointImage{
		{},
		{Machine: []byte("state"), Links: *full, Marks: frame.Marks{{Sender: codecProc, Seq: 2}, {Sender: frame.ProcID{Node: 4}, Seq: math.MaxUint64}}},
		{Machine: bytes.Repeat([]byte{7}, 5000), Links: linkTable{next: math.MaxInt32}},
	}
}

func routeCases() []routeUpdate {
	return []routeUpdate{{}, {Proc: codecProc, Node: 4}, {Proc: frame.ProcID{Node: math.MinInt32, Local: math.MaxUint32}, Node: -1}}
}

func procMgrCases() []procMgrState {
	return []procMgrState{{}, {MemSched: 3, Requests: math.MaxUint64}}
}

func memSchedCases() []memSchedState {
	return []memSchedState{
		{Kernels: map[int32]LinkID{}},
		{Kernels: map[int32]LinkID{-1: 0, 0: 4, 1: 2, 7: 1, math.MaxInt32: math.MaxInt32}, Placed: 12},
	}
}

func nameSvcCases() []nameSvcState {
	return []nameSvcState{
		{Names: map[string][]LinkID{}},
		{Names: map[string][]LinkID{"": nil, "oracle": {1, 4}, "db": {2}, "zeta": {3, 5, 6}, "alpha": nil}},
	}
}

func nameReqCases() []NameReq {
	return []NameReq{{}, {Register: true, Name: "oracle"}}
}

// checkCodec checks code on vals: each round-trips, and decoding rejects the
// encoding cut short anywhere, with a byte after it, and with its first
// varint padded to a second byte.
func checkCodec[T any](t *testing.T, code func(*frame.Coder, *T), vals []T) {
	t.Helper()
	for i := range vals {
		b := frame.AppendBody(nil, &vals[i], code)
		var got T
		if err := frame.DecodeBody(b, &got, code); err != nil || !reflect.DeepEqual(got, vals[i]) {
			t.Fatalf("case %d: %x decodes to %+v (err %v), want %+v", i, b, got, err, vals[i])
		}
		for n := range len(b) {
			if frame.DecodeBody(b[:n], new(T), code) == nil {
				t.Fatalf("case %d: the %d-byte prefix of %x decodes", i, n, b)
			}
		}
		if frame.DecodeBody(append(b[:len(b):len(b)], 0), new(T), code) == nil {
			t.Fatalf("case %d: %x with a trailing byte decodes", i, b)
		}
		if b[0] < 0x80 {
			padded := append([]byte{b[0] | 0x80, 0}, b[1:]...)
			if frame.DecodeBody(padded, new(T), code) == nil {
				t.Fatalf("case %d: %x with its first varint padded decodes", i, b)
			}
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	t.Run("CtlMsg", func(t *testing.T) { checkCodec(t, codeCtl, ctlCases()) })
	t.Run("Notice", func(t *testing.T) { checkCodec(t, codeNotice, noticeCases()) })
	t.Run("CtlReply", func(t *testing.T) { checkCodec(t, codeReply, replyCases()) })
	t.Run("QueryResponse", func(t *testing.T) { checkCodec(t, codeQuery, queryCases()) })
	t.Run("ProcSpec", func(t *testing.T) { checkCodec(t, CodeSpec, codecSpecs) })
	t.Run("checkpointImage", func(t *testing.T) { checkCodec(t, codeImage, imageCases()) })
	t.Run("routeUpdate", func(t *testing.T) { checkCodec(t, codeRouteUpdate, routeCases()) })
	t.Run("procMgrState", func(t *testing.T) { checkCodec(t, codeProcMgr, procMgrCases()) })
	t.Run("memSchedState", func(t *testing.T) { checkCodec(t, codeMemSched, memSchedCases()) })
	t.Run("nameSvcState", func(t *testing.T) { checkCodec(t, codeNameSvc, nameSvcCases()) })
	t.Run("NameReq", func(t *testing.T) { checkCodec(t, codeNameReq, nameReqCases()) })
}

// A byte naming an op, kind or state no one sends, and a field that breaks
// its type's rule, fail to decode.
func TestCodecRejectsWrongKind(t *testing.T) {
	p := []byte{0x06, 0x07} // codecProc
	cases := []struct {
		name string
		err  error
	}{
		{"ctl op 0", frame.DecodeBody([]byte{0}, new(CtlMsg), codeCtl)},
		{"ctl op past the last", frame.DecodeBody([]byte{byte(OpCheckpoint) + 1}, new(CtlMsg), codeCtl)},
		{"notice kind 0", frame.DecodeBody(append([]byte{0}, p...), new(Notice), codeNotice)},
		{"notice kind past the last", frame.DecodeBody(append([]byte{byte(NoticeMigrated) + 1}, p...), new(Notice), codeNotice)},
		{"process state past the last", frame.DecodeBody([]byte{0, 0, 1, 0x06, 0x07, byte(StateRecovering) + 1}, new(QueryResponse), codeQuery)},
		{"bool 2", frame.DecodeBody([]byte{2, 0, 0, 0, 0, 0}, new(CtlReply), codeReply)},
		{"node past int32", frame.DecodeBody([]byte{0x80, 0x80, 0x80, 0x80, 0x10, 0}, new(routeUpdate), codeRouteUpdate)},
		{"link ids out of order", frame.DecodeBody([]byte{0, 10, 2, 4, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0}, new(checkpointImage), codeImage)},
		{"link id at next", frame.DecodeBody([]byte{0, 4, 1, 4, 0, 0, 0, 0, 0, 0}, new(checkpointImage), codeImage)},
		{"marks out of sender order", frame.DecodeBody([]byte{0, 0, 0, 2, 4, 1, 1, 2, 1, 1}, new(checkpointImage), codeImage)},
		{"map keys out of order", frame.DecodeBody([]byte{2, 4, 1, 2, 1, 0}, new(memSchedState), codeMemSched)},
		{"map key repeated", frame.DecodeBody([]byte{2, 2, 1, 2, 1, 0}, new(memSchedState), codeMemSched)},
	}
	for _, c := range cases {
		if c.err == nil {
			t.Errorf("%s: decodes", c.name)
		}
	}
	// The same bytes with the order put right decode: the cases above fail
	// on the order alone.
	for name, b := range map[string][]byte{
		"link ids in order": {0, 10, 2, 2, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0},
		"marks in order":    {0, 0, 0, 2, 2, 1, 1, 4, 1, 1},
	} {
		if err := frame.DecodeBody(b, new(checkpointImage), codeImage); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// A map's entries are coded in key order, not Go's random range order, so
// a system process's checkpoint has the same bytes in every run.
func TestSystemProcSnapshotsDeterministic(t *testing.T) {
	machines := map[string]Machine{
		SysProcMgr:  &ProcMgr{st: procMgrState{MemSched: 2, Requests: 9}},
		SysMemSched: &MemSched{st: memSchedState{Kernels: map[int32]LinkID{0: 1, 1: 2, 2: 3, 3: 4, 4: 5, 5: 6}, Placed: 6}},
		SysNameSvc:  &NameSvc{st: nameSvcState{Names: map[string][]LinkID{"a": {1}, "b": {2, 3}, "c": {4}, "d": {5}, "e": nil}}},
	}
	for name, m := range machines {
		first, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < 50; i++ {
			if b, _ := m.Snapshot(); !bytes.Equal(b, first) {
				t.Fatalf("%s: snapshot %d is %x, the first was %x", name, i, b, first)
			}
		}
	}
}

// A body decoded from fuzzed input is accepted only if it is the one
// encoding of what it decodes to.
func fuzzCodec[T any](f *testing.F, code func(*frame.Coder, *T), seeds []T) {
	for i := range seeds {
		f.Add(frame.AppendBody(nil, &seeds[i], code))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var v T
		if frame.DecodeBody(b, &v, code) != nil {
			return
		}
		if again := frame.AppendBody(nil, &v, code); !bytes.Equal(again, b) {
			t.Fatalf("%x decodes to %+v, which encodes to %x", b, v, again)
		}
	})
}

func FuzzCtlMsg(f *testing.F)        { fuzzCodec(f, codeCtl, ctlCases()) }
func FuzzNotice(f *testing.F)        { fuzzCodec(f, codeNotice, noticeCases()) }
func FuzzCtlReply(f *testing.F)      { fuzzCodec(f, codeReply, replyCases()) }
func FuzzQueryResponse(f *testing.F) { fuzzCodec(f, codeQuery, queryCases()) }
func FuzzProcSpec(f *testing.F)      { fuzzCodec(f, CodeSpec, codecSpecs) }
func FuzzCheckpointImage(f *testing.F) {
	fuzzCodec(f, codeImage, imageCases())
}
func FuzzRouteUpdate(f *testing.F)   { fuzzCodec(f, codeRouteUpdate, routeCases()) }
func FuzzProcMgrState(f *testing.F)  { fuzzCodec(f, codeProcMgr, procMgrCases()) }
func FuzzMemSchedState(f *testing.F) { fuzzCodec(f, codeMemSched, memSchedCases()) }
func FuzzNameSvcState(f *testing.F)  { fuzzCodec(f, codeNameSvc, nameSvcCases()) }
func FuzzNameReq(f *testing.F)       { fuzzCodec(f, codeNameReq, nameReqCases()) }

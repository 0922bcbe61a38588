package recorder

import (
	"bytes"
	"maps"
	"math"
	"reflect"
	"slices"
	"testing"

	"publishing/internal/demos"
	"publishing/internal/frame"
)

// Cases for the recorder's rare store records and its peer traffic.

var codecSpec = demos.ProcSpec{Name: "worker", Args: []byte{1}, Recoverable: true, RecoveryTimeBound: 5,
	InitialLink: frame.Link{To: frame.ProcID{Node: 2, Local: 1}, Channel: 3, Code: 4, DeliverToKernel: true}}

func procMetaCases() []procMeta {
	return []procMeta{{}, {Spec: codecSpec, Node: frame.Broadcast}}
}

func ckMetaCases() []ckMeta {
	return []ckMeta{
		{},
		{Blob: bytes.Repeat([]byte{9}, 2000), SendSeq: 4, ReadCount: math.MaxUint64, StateKB: 2,
			DroppedArr: []uint64{1, 2, 7}, AdvTrim: 3, RetainedOrder: []uint64{9, 8, math.MaxUint64}},
	}
}

func peerCases() []peerMsg {
	return []peerMsg{
		{Kind: peerHandoffReq, Code: 1, Rank: 2},
		{Kind: peerHandoffReq, Code: math.MaxUint32, Rank: 0, Cov: []procCov{
			{Proc: procA(), Dead: true, Cov: 4, LastSent: 9}, {Proc: frame.ProcID{Node: 5, Local: 1}, LastSent: math.MaxUint64}}},
		{Kind: peerHandoffData, Code: 7, Rank: 1, Proc: procA(), Chunk: 2, Total: 3, Data: []byte("chunk")},
		{Kind: peerHandoffDone, Code: 7, Rank: 1, Procs: 12},
		{Kind: peerHandoffCommit, Code: 7, Rank: math.MaxInt64},
	}
}

func handoffCases() []handoffProc {
	var msgs []storedMsg
	cases := storedCases()
	for _, name := range slices.Sorted(maps.Keys(cases)) {
		sm := cases[name]
		sm.ArrSeq = 0 // not shipped: the requester numbers its own arrivals
		msgs = append(msgs, sm)
	}
	return []handoffProc{
		{},
		{Proc: procA(), Spec: codecSpec, Node: 3, Dead: true, LastSent: 8, Ck: []byte("image"), CkSendSeq: 2,
			CkReadCount: 5, CkStateKB: 1, Cov: 11, Msgs: msgs, Recorded: []frame.MsgID{mid(1, 4), mid(2, 9)}},
	}
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
	t.Run("procMeta", func(t *testing.T) { checkCodec(t, codeProcMeta, procMetaCases()) })
	t.Run("ckMeta", func(t *testing.T) { checkCodec(t, codeCkMeta, ckMetaCases()) })
	t.Run("peerMsg", func(t *testing.T) { checkCodec(t, codePeer, peerCases()) })
	t.Run("handoffProc", func(t *testing.T) { checkCodec(t, codeHandoffProc, handoffCases()) })
}

// A peer message of a kind no recorder sends fails to decode.
func TestPeerCodecRejectsWrongKind(t *testing.T) {
	for _, kind := range []byte{0, 1, 2, byte(peerHandoffCommit) + 1} {
		if err := frame.DecodeBody([]byte{kind, 0, 0}, new(peerMsg), codePeer); err == nil {
			t.Errorf("peer kind %d decodes", kind)
		}
	}
}

// A full Data chunk, with every other field at its widest, fills a frame
// body exactly: handoffChunkBytes is the most the body leaves the chunk.
func TestHandoffChunkFillsFrameBody(t *testing.T) {
	m := peerMsg{Kind: peerHandoffData, Code: math.MaxUint32, Rank: math.MinInt64,
		Proc: frame.ProcID{Node: math.MinInt32, Local: math.MaxUint32}, Chunk: math.MaxUint32, Total: math.MaxUint32,
		Data: make([]byte, handoffChunkBytes)}
	if n := len(frame.AppendBody(nil, &m, codePeer)); n != frame.MaxBody {
		t.Fatalf("a full Data chunk encodes to %d bytes, frame.MaxBody is %d", n, frame.MaxBody)
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

func FuzzProcMeta(f *testing.F)    { fuzzCodec(f, codeProcMeta, procMetaCases()) }
func FuzzCkMeta(f *testing.F)      { fuzzCodec(f, codeCkMeta, ckMetaCases()) }
func FuzzPeerMsg(f *testing.F)     { fuzzCodec(f, codePeer, peerCases()) }
func FuzzHandoffProc(f *testing.F) { fuzzCodec(f, codeHandoffProc, handoffCases()) }

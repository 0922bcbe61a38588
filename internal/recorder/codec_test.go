package recorder

import (
	"bytes"
	"maps"
	"math"
	"slices"
	"testing"

	"publishing/internal/demos"
	"publishing/internal/frame"
	"publishing/internal/frame/frametest"
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
	var msgs []frame.BundleRec
	cases := storedCases()
	for _, name := range slices.Sorted(maps.Keys(cases)) {
		msgs = append(msgs, cases[name])
	}
	return []handoffProc{
		{},
		{Proc: procA(), Spec: codecSpec, Node: 3, Dead: true, LastSent: 8, Ck: []byte("image"), CkSendSeq: 2,
			CkReadCount: 5, CkStateKB: 1, Cov: 11, Msgs: msgs, Recorded: []frame.MsgID{mid(1, 4), mid(2, 9)}},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	t.Run("procMeta", func(t *testing.T) { frametest.CheckCodec(t, codeProcMeta, procMetaCases()) })
	t.Run("ckMeta", func(t *testing.T) { frametest.CheckCodec(t, codeCkMeta, ckMetaCases()) })
	t.Run("peerMsg", func(t *testing.T) { frametest.CheckCodec(t, codePeer, peerCases()) })
	t.Run("handoffProc", func(t *testing.T) { frametest.CheckCodec(t, codeHandoffProc, handoffCases()) })
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

func FuzzProcMeta(f *testing.F)    { frametest.FuzzCodec(f, codeProcMeta, procMetaCases()) }
func FuzzCkMeta(f *testing.F)      { frametest.FuzzCodec(f, codeCkMeta, ckMetaCases()) }
func FuzzPeerMsg(f *testing.F)     { frametest.FuzzCodec(f, codePeer, peerCases()) }
func FuzzHandoffProc(f *testing.F) { frametest.FuzzCodec(f, codeHandoffProc, handoffCases()) }

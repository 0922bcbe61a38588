package txn

import (
	"bytes"
	"math"
	"testing"

	"publishing/internal/demos"
	"publishing/internal/frame/frametest"
)

// Cases for every body and state the package codes: each field at the
// extremes of its range, and empty maps and slices.

var codecOps = []Op{
	{Participant: "bankA", Key: "alice", Delta: math.MinInt64},
	{Participant: "bankB", Key: "bob", Delta: math.MaxInt64},
	{},
}

func participantCases() []participantState {
	return []participantState{
		{Values: map[string]int{}, Intentions: map[uint64][]Op{}},
		{
			Values:     map[string]int{"alice": 70, "bob": -1, "": 0, "carol": math.MaxInt64, "dave": math.MinInt64},
			Intentions: map[uint64][]Op{0: nil, 4: codecOps, math.MaxUint64: codecOps[:1]},
			Prepared:   math.MaxUint64, Committed: 3, Aborted: 1,
		},
	}
}

func coordCases() []coordState {
	return []coordState{
		{Links: map[string]demos.LinkID{}, Live: map[uint64]*liveTx{}},
		{
			ParticipantNames: []string{"bankA", "bankB", ""},
			Links:            map[string]demos.LinkID{"bankA": 1, "bankB": math.MaxInt32, "": demos.NoLink},
			NextTx:           math.MaxUint64,
			Live: map[uint64]*liveTx{
				1: {},
				7: {Ops: codecOps, Parts: []string{"bankA", "bankB"}, VotesIn: 2, Reply: 3, Phase: 2, Commit: true, DecidedIn: 1},
			},
			CommittedTotal: 5, AbortedTotal: math.MaxUint64,
		},
	}
}

func TestStateCodecRoundTrip(t *testing.T) {
	t.Run("participantState", func(t *testing.T) { frametest.CheckCodec(t, codeParticipant, participantCases()) })
	t.Run("coordState", func(t *testing.T) { frametest.CheckCodec(t, codeCoord, coordCases()) })
	t.Run("participant names", func(t *testing.T) {
		frametest.CheckCodec(t, codeNames, [][]string{nil, {"bankA", "bankB"}})
	})
}

// A map's entries are coded in key order, not Go's random range order, so
// a participant's intentions and a coordinator's transaction table, which
// §6.4 rebuilds with the rest of the process state, checkpoint to the same
// bytes in every run.
func TestTxnSnapshotsDeterministic(t *testing.T) {
	ops := []Op{{Participant: "bankA", Key: "alice", Delta: -5}, {Participant: "bankB", Key: "bob", Delta: 5}}
	machines := map[string]demos.Machine{
		ImageParticipant: &Participant{st: participantState{
			Values:     map[string]int{"alice": 70, "bob": 30, "carol": 5, "dave": 0, "erin": 12},
			Intentions: map[uint64][]Op{4: ops[:1], 5: ops[1:]},
			Prepared:   5, Committed: 3,
		}},
		ImageCoordinator: &Coordinator{st: coordState{
			ParticipantNames: []string{"bankA", "bankB"},
			Links:            map[string]demos.LinkID{"bankA": 1, "bankB": 2},
			NextTx:           5,
			Live: map[uint64]*liveTx{
				4: {Ops: ops, Parts: []string{"bankA", "bankB"}, VotesIn: 1, Reply: 3, Phase: 1},
				5: {Ops: ops, Parts: []string{"bankA", "bankB"}, VotesIn: 2, Reply: 4, Phase: 2, Commit: true},
			},
		}},
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

func FuzzBegin(f *testing.F) {
	frametest.FuzzCodec(f, codeBegin, []Begin{{}, {Ops: codecOps}})
}
func FuzzOutcome(f *testing.F) {
	frametest.FuzzCodec(f, codeOutcome, []Outcome{{}, {TxID: math.MaxUint64, Committed: true, Reason: "committed"}})
}
func FuzzPrepare(f *testing.F) {
	frametest.FuzzCodec(f, codePrepare, []Prepare{{}, {TxID: 7, Ops: codecOps}})
}
func FuzzVote(f *testing.F) {
	frametest.FuzzCodec(f, codeVote, []Vote{{}, {TxID: math.MaxUint64, Yes: true}})
}
func FuzzDecide(f *testing.F) {
	frametest.FuzzCodec(f, codeDecide, []Decide{{}, {TxID: 3, Commit: true}})
}
func FuzzDecided(f *testing.F) {
	frametest.FuzzCodec(f, codeDecided, []Decided{{}, {TxID: math.MaxUint64}})
}
func FuzzRead(f *testing.F) {
	frametest.FuzzCodec(f, codeRead, []Read{{}, {Key: "alice"}})
}
func FuzzReadReply(f *testing.F) {
	frametest.FuzzCodec(f, codeReadReply, []ReadReply{{}, {Key: "bob", Value: math.MinInt64}})
}
func FuzzParticipantState(f *testing.F) { frametest.FuzzCodec(f, codeParticipant, participantCases()) }
func FuzzCoordState(f *testing.F)       { frametest.FuzzCodec(f, codeCoord, coordCases()) }

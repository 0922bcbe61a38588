package frame

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestMarksModel checks Marks against a map from each sender to the highest
// sequence noted for it. After every Note the slice holds one mark per
// sender, equal to the map's, sorted by ProcID.Compare; Covers agrees with
// the map for noted and unnoted senders alike. The ids reach the ends of
// both halves of the packed search key: Node −1 (the Broadcast sentinel)
// and the int32 extremes, Local 0 and MaxUint32.
func TestMarksModel(t *testing.T) {
	nodes := []NodeID{math.MinInt32, -2, -1, 0, 1, 2, math.MaxInt32}
	locals := []uint32{0, 1, 7, math.MaxUint32 - 1, math.MaxUint32}
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		var m Marks
		model := make(map[ProcID]uint64)
		for step := 0; step < 500; step++ {
			id := MsgID{
				Sender: ProcID{Node: nodes[r.Intn(len(nodes))], Local: locals[r.Intn(len(locals))]},
				Seq:    uint64(r.Intn(16)),
			}
			if r.Intn(2) == 0 {
				s, ok := model[id.Sender]
				if want := ok && id.Seq <= s; m.Covers(id) != want {
					t.Fatalf("seed %d step %d: Covers(%v) = %v, model says %v", seed, step, id, !want, want)
				}
				continue
			}
			m.Note(id)
			if s, ok := model[id.Sender]; !ok || id.Seq > s {
				model[id.Sender] = id.Seq
			}
			if len(m) != len(model) {
				t.Fatalf("seed %d step %d: %d marks for %d senders", seed, step, len(m), len(model))
			}
			for i, x := range m {
				if i > 0 && m[i-1].Sender.Compare(x.Sender) >= 0 {
					t.Fatalf("seed %d step %d: marks out of order at %d: %v then %v", seed, step, i, m[i-1], x)
				}
				if s, ok := model[x.Sender]; !ok || s != x.Seq {
					t.Fatalf("seed %d step %d: mark %v, model holds %d (%v)", seed, step, x, s, ok)
				}
			}
		}
	}
}

// BenchmarkMarksCovers256 is one acceptance check against a process that has
// taken messages from 256 senders, as a kernel's mark is read per delivery.
func BenchmarkMarksCovers256(b *testing.B) {
	var m Marks
	ids := make([]MsgID, 256)
	for i := range ids {
		ids[i] = MsgID{Sender: ProcID{Node: NodeID(i), Local: 1}, Seq: 9}
		m.Note(ids[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !m.Covers(ids[i&255]) {
			b.Fatal("a noted id is not covered")
		}
	}
}

// TestMarksSingleSearchForms checks Take and Mark against the two-call forms
// they replace, over random ids including the seq extremes: Take against
// Covers then Note (on a twin), and Mark against Covers of the id and of its
// successor, the pair a recorder's fence asks.
func TestMarksSingleSearchForms(t *testing.T) {
	senders := []ProcID{{Node: -1}, {Node: 0, Local: 1}, {Node: 3, Local: 7}, {Node: math.MaxInt32, Local: math.MaxUint32}}
	seqs := []uint64{0, 1, 2, 5, 9, math.MaxUint64 - 1, math.MaxUint64}
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		var took, noted Marks
		for step := 0; step < 400; step++ {
			id := MsgID{Sender: senders[r.Intn(len(senders))], Seq: seqs[r.Intn(len(seqs))]}
			if r.Intn(3) == 0 {
				seq, ok := took.Mark(id.Sender)
				next := MsgID{Sender: id.Sender, Seq: id.Seq + 1}
				if got, want := ok && id.Seq+1 <= seq, took.Covers(next); got != want {
					t.Fatalf("seed %d step %d: Mark says %v is below its mark: %v, Covers(%v) says %v", seed, step, id, got, next, want)
				}
				if got, want := ok && id.Seq <= seq, took.Covers(id); got != want {
					t.Fatalf("seed %d step %d: Mark says %v is covered: %v, Covers says %v", seed, step, id, got, want)
				}
				continue
			}
			want := noted.Covers(id)
			if !want {
				noted.Note(id)
			}
			if got := took.Take(id); got != want {
				t.Fatalf("seed %d step %d: Take(%v) = %v, Covers = %v", seed, step, id, got, want)
			}
			if !slices.Equal(took, noted) {
				t.Fatalf("seed %d step %d: Take left %v, Covers+Note %v", seed, step, took, noted)
			}
		}
	}
}

package stablestore

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// invalidationModel is the store as a list of records and the rule that
// kills a message record: a cut at or above its seq, or its seq named one
// by one. Regular records and oversized ones (chains) are kept apart, as
// ReadAll returns every regular page before the chains.
type invalidationModel struct {
	regular, chains []Record
	through         map[string]uint64
	seqs            map[string]map[uint64]bool
}

func (m *invalidationModel) dead(r Record) bool {
	if r.Kind != KindMessage {
		return false
	}
	if t, ok := m.through[r.Key]; ok && r.Seq <= t {
		return true
	}
	return m.seqs[r.Key][r.Seq]
}

// compact drops the dead records and returns how many went.
func (m *invalidationModel) compact() int {
	n := len(m.regular) + len(m.chains)
	m.regular = slices.DeleteFunc(m.regular, m.dead)
	m.chains = slices.DeleteFunc(m.chains, m.dead)
	return n - len(m.regular) - len(m.chains)
}

func (m *invalidationModel) all() []Record {
	return append(slices.Clone(m.regular), m.chains...)
}

func (m *invalidationModel) key(key string) []Record {
	out := slices.DeleteFunc(m.all(), func(r Record) bool { return r.Key != key })
	slices.SortStableFunc(out, func(a, b Record) int {
		switch {
		case a.Seq < b.Seq:
			return -1
		case a.Seq > b.Seq:
			return 1
		}
		return 0
	})
	return out
}

func sameRecords(got, want []Record) bool {
	return slices.EqualFunc(got, want, func(a, b Record) bool {
		return a.Kind == b.Kind && a.Key == b.Key && a.Seq == b.Seq && string(a.Data) == string(b.Data)
	})
}

func dumpRecords(rs []Record) string {
	var b strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&b, " %d/%s/%d", r.Kind, r.Key, r.Seq)
	}
	return b.String()
}

// TestInvalidationModel runs random Append, Invalidate, InvalidateSeqs,
// Flush and Compact sequences against the model. Compact drops exactly the
// model's dead records; ReadAll, and ReadKey for every key, match the model
// after each Compact and at the end. Seqs span several 64-seq words, so
// the per-key dead set grows across them, and cuts land above and below
// its members; a cut at the largest seq kills every message of its key.
// Oversized records are checkpoints, as the recorder writes them: a chain
// is never compacted.
func TestInvalidationModel(t *testing.T) {
	keys := []string{"msg:p1.1", "msg:p2.1", "adv:p1.1"}
	for seed := int64(1); seed <= 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := New()
		m := &invalidationModel{through: map[string]uint64{}, seqs: map[string]map[uint64]bool{}}
		check := func(step int, what string) {
			t.Helper()
			all, err := s.ReadAll()
			if err != nil {
				t.Fatalf("seed %d step %d: ReadAll: %v", seed, step, err)
			}
			if want := m.all(); !sameRecords(all, want) {
				t.Fatalf("seed %d step %d (%s): ReadAll\n got%s\nwant%s", seed, step, what, dumpRecords(all), dumpRecords(want))
			}
			for _, k := range keys {
				got, err := s.ReadKey(k)
				if err != nil {
					t.Fatalf("seed %d step %d: ReadKey(%s): %v", seed, step, k, err)
				}
				if want := m.key(k); !sameRecords(got, want) {
					t.Fatalf("seed %d step %d (%s): ReadKey(%s)\n got%s\nwant%s", seed, step, what, k, dumpRecords(got), dumpRecords(want))
				}
			}
		}
		for step := 0; step < 400; step++ {
			key := keys[r.Intn(len(keys))]
			switch op := r.Intn(20); {
			case op < 11:
				rec := Record{Kind: KindMessage, Key: key, Seq: uint64(r.Intn(300)),
					Data: []byte(fmt.Sprintf("%d-%d", seed, step))}
				switch r.Intn(12) {
				case 0:
					rec.Kind = KindCheckpoint
					rec.Data = make([]byte, PageSize+r.Intn(2*PageSize))
					rec.Data[0] = byte(step)
				case 1:
					rec.Kind = KindMeta
				}
				if _, err := s.Append(rec); err != nil {
					t.Fatal(err)
				}
				if rec.size() > PageSize {
					m.chains = append(m.chains, rec)
				} else {
					m.regular = append(m.regular, rec)
				}
			case op < 13:
				through := uint64(r.Intn(300))
				if r.Intn(10) == 0 {
					through = ^uint64(0)
				}
				s.Invalidate(key, through)
				if cur, ok := m.through[key]; !ok || through > cur {
					m.through[key] = through
				}
			case op < 17:
				seqs := make([]uint64, r.Intn(8))
				for i := range seqs {
					seqs[i] = uint64(r.Intn(300))
				}
				s.InvalidateSeqs(key, seqs)
				if m.seqs[key] == nil {
					m.seqs[key] = map[uint64]bool{}
				}
				for _, q := range seqs {
					m.seqs[key][q] = true
				}
			case op < 18:
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
			default:
				want := m.compact()
				got, err := s.Compact()
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("seed %d step %d: Compact dropped %d records; the model's dead set holds %d", seed, step, got, want)
				}
				check(step, "after Compact")
			}
		}
		want := m.compact()
		if got, err := s.Compact(); err != nil || got != want {
			t.Fatalf("seed %d: final Compact dropped %d (%v); want %d", seed, got, err, want)
		}
		check(-1, "final")
	}
}

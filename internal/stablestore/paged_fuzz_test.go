package stablestore

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// FuzzPagedOpen writes arbitrary bytes as a page file and opens it: the
// store's one external input. Open either fails or returns a store that reads
// back whole — ReadAll succeeds, and every key's ReadKey equals ReadAll
// filtered to that key in seq order. The seeds are an intact store holding a
// chain and a compacted-empty page, and TestOpenRejectsCorruptPages's two
// damaged images: the chain over-claim that used to open and under-read, and
// a page that does not decode.
func FuzzPagedOpen(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(intactImage(f))
	for _, name := range []string{"chain over-claim", "undecodable page"} {
		img := fourPageImage(f)
		corruptions[name](img)
		f.Add(img)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.db")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path)
		if err != nil {
			return
		}
		defer s.Close()
		all, err := s.ReadAll()
		if err != nil {
			t.Fatalf("Open succeeded but ReadAll failed: %v", err)
		}
		byKey := make(map[string][]Record)
		for _, r := range all {
			byKey[r.Key] = append(byKey[r.Key], r)
		}
		for key, want := range byKey {
			sort.SliceStable(want, func(i, j int) bool { return want[i].Seq < want[j].Seq })
			got, err := s.ReadKey(key)
			if err != nil {
				t.Fatalf("ReadKey(%q): %v", key, err)
			}
			if len(got) != len(want) {
				t.Fatalf("ReadKey(%q) = %d records, ReadAll holds %d", key, len(got), len(want))
			}
			for i := range got {
				g, w := got[i], want[i]
				if g.Kind != w.Kind || g.Seq != w.Seq || !bytes.Equal(g.Data, w.Data) {
					t.Fatalf("ReadKey(%q)[%d] = %+v, ReadAll has %+v", key, i, g, w)
				}
			}
		}
	})
}

// intactImage is a file image of a store holding small records of two keys,
// an oversized checkpoint on a three-page chain, and a page emptied by
// compaction.
func intactImage(tb testing.TB) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "intact.db")
	s, err := Open(path)
	if err != nil {
		tb.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		s.Append(Record{Kind: KindMessage, Key: "msg:a", Seq: i, Data: make([]byte, 1500)})
	}
	s.Append(Record{Kind: KindCheckpoint, Key: "ck:a", Seq: 1, Data: bytes.Repeat([]byte{7}, 2*PageSize+100)})
	s.Append(msg("msg:b", 1, "after the chain"))
	s.Invalidate("msg:a", 2)
	if _, err := s.Compact(); err != nil {
		tb.Fatal(err)
	}
	if err := s.Close(); err != nil {
		tb.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return img
}

package stablestore

import (
	"bytes"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

// FuzzPagedOpen writes arbitrary bytes as a page file and opens it: the
// store's one external input. Open either fails or returns a store that reads
// back whole — ReadAll succeeds, and every key's ReadKey equals ReadAll
// filtered to that key in seq order and counts a page read for each page,
// or each page of each run, that Scan names a Ref of the key's records on.
// The seeds are an intact store holding a chain and an all-zero page, and
// TestOpenRejectsCorruptPages's damaged images: among them the chain
// over-claim that used to open and under-read, a page that does not decode,
// and key ids undefined, out of order or naming a key twice.
func FuzzPagedOpen(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(intactImage(f))
	names := slices.Sorted(maps.Keys(corruptions))
	for _, name := range names {
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
		// spans[key][page] is how many pages the page or run a Ref of one
		// of key's records names holds.
		spans := make(map[string]map[uint32]uint64)
		if err := s.Scan(func(r Record, ref Ref) error {
			if spans[r.Key] == nil {
				spans[r.Key] = make(map[uint32]uint64)
			}
			spans[r.Key][ref.Page] = uint64(runPages(*s.page(uint64(ref.Page))))
			return nil
		}); err != nil {
			t.Fatalf("Scan after ReadAll: %v", err)
		}
		for key, want := range byKey {
			sort.SliceStable(want, func(i, j int) bool { return want[i].Seq < want[j].Seq })
			before := s.Stats().PageReads
			got, err := s.ReadKey(key)
			if err != nil {
				t.Fatalf("ReadKey(%q): %v", key, err)
			}
			var pages uint64
			for _, n := range spans[key] {
				pages += n
			}
			if reads := s.Stats().PageReads - before; reads != pages {
				t.Fatalf("ReadKey(%q) counted %d page reads, its records lie on %d", key, reads, pages)
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

// intactImage is a file image of a store holding small records of two keys
// and an oversized checkpoint on a three-page chain, behind a page of zero
// bytes. The store never writes one, but Open reads external input, so a
// zero page must open (as a page holding no records).
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
	if err := s.Close(); err != nil {
		tb.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return append(make([]byte, PageSize), img...)
}

// FuzzRecordHeader feeds arbitrary bytes to the one header parser and the
// readers built on it. None may panic; a header the parser accepts has a
// kind an encoder writes and is appendHeader's encoding of what it read, so
// one record has one encoding; and the header's length (which Open reads to
// find chains) agrees with decodeOne: every record decodeOne accepts is as
// long as its header says, and every header length that fits in the bytes
// is a record decodeOne accepts. recordAt finds every caller's record
// decodeOne reads, by its key id and seq, and never a key-name record.
func FuzzRecordHeader(f *testing.F) {
	f.Add(appendRecord(nil, KindMessage, 0, 1, []byte("hi")))
	f.Add(appendRecord(nil, KindMeta, 3, 0, nil))
	f.Add(appendRecord(nil, KindCheckpoint, 300, 1<<40, make([]byte, 300)))
	f.Add(appendRecord(nil, kindKeyName, 0, 0, []byte("msg:p0.1")))
	f.Add([]byte{1, 0x80, 0x00})                       // a padded key id
	f.Add(appendRecord(nil, kindKeyName+1, 0, 1, nil)) // an unknown kind
	f.Add(fourPageImage(f)[:PageSize])
	f.Fuzz(func(t *testing.T, b []byte) {
		h, ok := parseHeader(b)
		if ok {
			if h.kind < KindMessage || h.kind > kindKeyName {
				t.Fatalf("accepted a header of unknown kind %d", h.kind)
			}
			enc := appendHeader(nil, h.kind, h.id, h.seq, h.n-h.data)
			if !bytes.Equal(enc, b[:h.data]) {
				t.Fatalf("accepted a header that re-encodes differently\n in  %x\n out %x", b[:h.data], enc)
			}
		}
		d, err := decodeOne(b)
		switch {
		case err == nil && d.n > 0 && (!ok || h.n != d.n):
			t.Fatalf("decodeOne read a %d-byte record, the header says %d (ok %v)", d.n, h.n, ok)
		case ok && h.n <= len(b) && (err != nil || d.n != h.n):
			t.Fatalf("the header says a %d-byte record, decodeOne reads %d (%v)", h.n, d.n, err)
		}
		if err == nil && d.n > 0 {
			data, found := recordAt(b, d.id, d.seq)
			if want := d.kind != kindKeyName; found != want {
				t.Fatalf("recordAt finds kind %d's record: %v, want %v", d.kind, found, want)
			}
			if found && !bytes.Equal(data, dataAt(b, 0, d)) {
				t.Fatalf("recordAt reads other data than decodeOne")
			}
		}
	})
}

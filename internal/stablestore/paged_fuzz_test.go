package stablestore

import (
	"bytes"
	"encoding/binary"
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

// FuzzRecordHeader feeds arbitrary bytes to the one header parser and the
// three readers built on it. None may panic; a header the parser accepts is
// appendRecord's encoding of what it read, so one record has one encoding;
// and recordLen agrees with decodeOne: every record decodeOne accepts is as
// long as recordLen says, and every length recordLen reads that fits in the
// bytes is a record decodeOne accepts.
func FuzzRecordHeader(f *testing.F) {
	for _, r := range []Record{
		msg("msg:p0.1", 1, "hi"),
		{Kind: KindMeta, Key: "restart"},
		{Kind: KindCheckpoint, Key: "ck:p1.2", Seq: 1 << 40, Data: make([]byte, 300)},
	} {
		f.Add(appendRecord(nil, &r))
	}
	f.Add([]byte{1, 0x80, 0x00}) // a padded key length
	f.Add(fourPageImage(f)[:PageSize])
	f.Fuzz(func(t *testing.T, b []byte) {
		h, ok := parseHeader(b)
		if ok {
			// appendRecord's header, written without the data it would copy.
			enc := binary.AppendUvarint([]byte{byte(h.kind)}, uint64(len(h.key)))
			enc = append(enc, h.key...)
			enc = binary.AppendUvarint(binary.AppendUvarint(enc, h.seq), uint64(h.n-h.data))
			if !bytes.Equal(enc, b[:h.data]) {
				t.Fatalf("accepted a header that re-encodes differently\n in  %x\n out %x", b[:h.data], enc)
			}
		}
		rec, n, err := decodeOne(b)
		total, lok := recordLen(b)
		switch {
		case err == nil && n > 0 && (!lok || total != n):
			t.Fatalf("decodeOne read a %d-byte record, recordLen says %d (ok %v)", n, total, lok)
		case lok && total <= len(b) && (err != nil || n != total):
			t.Fatalf("recordLen read a %d-byte record, decodeOne says %d (%v)", total, n, err)
		}
		if err == nil && n > 0 {
			if d, ok := recordAt(b, rec.Key, rec.Seq); !ok || !bytes.Equal(d, rec.Data) {
				t.Fatalf("recordAt does not find the record decodeOne read")
			}
		}
	})
}

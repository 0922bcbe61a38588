package stablestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"
)

func msg(key string, seq uint64, data string) Record {
	return Record{Kind: KindMessage, Key: key, Seq: seq, Data: []byte(data)}
}

func TestAppendReadBack(t *testing.T) {
	s := New()
	for i := uint64(1); i <= 10; i++ {
		if _, err := s.Append(msg("p1.1", i, fmt.Sprintf("body-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := s.ReadKey("p1.1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Fatalf("read %d records", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) || string(r.Data) != fmt.Sprintf("body-%d", i+1) {
			t.Fatalf("record %d wrong: %+v", i, r)
		}
	}
}

func TestBufferingWritesPagesLazily(t *testing.T) {
	s := New()
	// Small records accumulate in the 4 KB buffer: no page writes yet.
	for i := uint64(1); i <= 5; i++ {
		if _, err := s.Append(msg("k", i, "0123456789")); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().PageWrites; got != 0 {
		t.Fatalf("premature page writes: %d", got)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().PageWrites; got != 1 {
		t.Fatalf("page writes after flush = %d, want 1", got)
	}
	// Filling past a page forces a write without an explicit flush —
	// the §5.1 "one disk write per 4k of messages" behaviour.
	big := make([]byte, 1500)
	for i := uint64(6); i <= 9; i++ {
		if _, err := s.Append(Record{Kind: KindMessage, Key: "k", Seq: i, Data: big}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().PageWrites; got < 2 {
		t.Fatalf("full buffer not written: %d writes", got)
	}
}

func TestInvalidateAndCompact(t *testing.T) {
	s := New()
	for i := uint64(1); i <= 20; i++ {
		s.Append(msg("a", i, "aaaaaaaaaa"))
		s.Append(msg("b", i, "bbbbbbbbbb"))
	}
	s.Invalidate("a", 15)
	dropped, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 15 {
		t.Fatalf("dropped %d, want 15", dropped)
	}
	ra, _ := s.ReadKey("a")
	rb, _ := s.ReadKey("b")
	if len(ra) != 5 {
		t.Fatalf("a has %d live records, want 5", len(ra))
	}
	if ra[0].Seq != 16 {
		t.Fatalf("a starts at %d, want 16", ra[0].Seq)
	}
	if len(rb) != 20 {
		t.Fatalf("b lost records: %d", len(rb))
	}
	// Checkpoints are never compacted by message invalidation.
	s.Append(Record{Kind: KindCheckpoint, Key: "a", Seq: 15, Data: []byte("ck")})
	s.Invalidate("a", 99)
	s.Compact()
	recs, _ := s.ReadKey("a")
	foundCk := false
	for _, r := range recs {
		if r.Kind == KindCheckpoint {
			foundCk = true
		}
	}
	if !foundCk {
		t.Fatal("checkpoint compacted away")
	}
}

func TestOversizedRecords(t *testing.T) {
	s := New()
	big := make([]byte, 3*PageSize)
	for i := range big {
		big[i] = byte(i % 251)
	}
	if _, err := s.Append(Record{Kind: KindCheckpoint, Key: "p", Seq: 1, Data: big}); err != nil {
		t.Fatal(err)
	}
	s.Append(msg("p", 2, "after"))
	recs, err := s.ReadKey("p")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	if len(recs[0].Data) != len(big) {
		t.Fatalf("oversized data truncated: %d", len(recs[0].Data))
	}
	for i := range big {
		if recs[0].Data[i] != big[i] {
			t.Fatalf("oversized data corrupt at %d", i)
		}
	}
}

func TestFileBackedReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "publish.db")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 8; i++ {
		s.Append(msg("proc", i, fmt.Sprintf("m%d", i)))
	}
	s.Append(Record{Kind: KindCheckpoint, Key: "proc", Seq: 4, Data: []byte("ckpt")})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything must still be there — this is the recorder
	// rebuilding its database from disk after its own crash (§4.5).
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	recs, err := s2.ReadKey("proc")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 9 {
		t.Fatalf("reloaded %d records, want 9", len(recs))
	}
}

func TestReadAllOrdersByInsertion(t *testing.T) {
	s := New()
	keys := []string{"x", "y", "x", "z", "y"}
	for i, k := range keys {
		s.Append(msg(k, uint64(i), "d"))
	}
	all, err := s.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(keys) {
		t.Fatalf("got %d records", len(all))
	}
	for i, r := range all {
		if r.Key != keys[i] {
			t.Fatalf("insertion order broken at %d: %s", i, r.Key)
		}
	}
}

// Peek reads what ReadAll reads — the open write buffer and an oversized
// chain included — but leaves the buffer open and counts nothing: the next
// small append still lands on the buffer's page.
func TestPeekIsReadOnly(t *testing.T) {
	s := New()
	s.Append(msg("x", 1, "a"))
	s.Append(Record{Kind: KindCheckpoint, Key: "x", Seq: 2, Data: make([]byte, 2*PageSize)})
	page, _ := s.Append(msg("y", 3, "b"))
	before := s.Stats()
	peeked, err := s.Peek()
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats() != before {
		t.Fatalf("Peek changed the stats: %+v, then %+v", before, s.Stats())
	}
	if next, _ := s.Append(msg("y", 4, "c")); next != page {
		t.Fatalf("append after Peek landed on page %d, want the open buffer's page %d", next, page)
	}
	all, err := s.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var want []Record // ReadAll's order without the later append
	for _, r := range all {
		if r.Seq != 4 {
			want = append(want, r)
		}
	}
	if len(want) != 3 || !reflect.DeepEqual(peeked, want) {
		t.Fatalf("Peek read %+v, ReadAll then read %+v", peeked, all)
	}
}

func TestPagesFootprint(t *testing.T) {
	s := New()
	if s.Pages() != 0 {
		t.Fatal("empty store has pages")
	}
	s.Append(msg("k", 1, "x"))
	if s.Pages() != 1 {
		t.Fatalf("pages = %d", s.Pages())
	}
	data := make([]byte, 2000)
	for i := uint64(0); i < 10; i++ {
		s.Append(Record{Kind: KindMessage, Key: "k", Seq: i + 2, Data: data})
	}
	if s.Pages() < 5 {
		t.Fatalf("pages = %d, want >= 5", s.Pages())
	}
}

// Property: any set of records survives an append/flush/readback cycle.
func TestRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(keys []uint8, payload []byte) bool {
		if len(payload) > PageSize/2 {
			payload = payload[:PageSize/2]
		}
		s := New()
		for i, k := range keys {
			if _, err := s.Append(Record{
				Kind: KindMessage,
				Key:  fmt.Sprintf("p%d", k%4),
				Seq:  uint64(i),
				Data: payload,
			}); err != nil {
				return false
			}
		}
		all, err := s.ReadAll()
		if err != nil {
			return false
		}
		if len(all) != len(keys) {
			return false
		}
		for i, r := range all {
			if r.Seq != uint64(i) || !bytesEqual(r.Data, payload) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestMetaRecords(t *testing.T) {
	s := New()
	s.Append(Record{Kind: KindMeta, Key: "restart", Seq: 3})
	s.Append(Record{Kind: KindMeta, Key: "restart", Seq: 4})
	recs, err := s.ReadKey("restart")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].Seq != 4 {
		t.Fatalf("meta records: %+v", recs)
	}
}

func TestOversizedChainSurvivesCompactAndReopen(t *testing.T) {
	// An oversized record's chain map is volatile; before rebuildIndexLocked
	// a reopened store decoded the chain's first page as a self-contained
	// page and failed. The full cycle — append, compact, reopen — must
	// reconstruct the record byte-identically through both read paths.
	path := filepath.Join(t.TempDir(), "chain.db")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 6; i++ {
		s.Append(msg("p9.1", i, fmt.Sprintf("pre-%d", i)))
	}
	big := make([]byte, 2*PageSize+123)
	for i := range big {
		big[i] = byte((i*7 + 13) % 256)
	}
	if _, err := s.Append(Record{Kind: KindCheckpoint, Key: "ck:p9.1", Seq: 1, Data: big}); err != nil {
		t.Fatal(err)
	}
	s.Append(msg("p9.1", 7, "post"))
	s.Invalidate("p9.1", 4)
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	check := func(name string, recs []Record, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s after reopen: %v", name, err)
		}
		found := false
		for _, r := range recs {
			if r.Kind != KindCheckpoint {
				continue
			}
			found = true
			if len(r.Data) != len(big) {
				t.Fatalf("%s: chain record %d bytes, want %d", name, len(r.Data), len(big))
			}
			for i := range big {
				if r.Data[i] != big[i] {
					t.Fatalf("%s: chain record corrupt at byte %d", name, i)
				}
			}
		}
		if !found {
			t.Fatalf("%s: chain record missing", name)
		}
	}
	all, err := s2.ReadAll()
	check("ReadAll", all, err)
	byKey, err := s2.ReadKey("ck:p9.1")
	check("ReadKey", byKey, err)
	if len(byKey) != 1 {
		t.Fatalf("ReadKey returned %d records, want 1", len(byKey))
	}
	// The small records around the chain survive too (minus the compacted).
	small, err := s2.ReadKey("p9.1")
	if err != nil {
		t.Fatal(err)
	}
	if len(small) != 3 || small[0].Seq != 5 || small[2].Seq != 7 {
		t.Fatalf("small records after compact+reopen: %+v", small)
	}
}

func TestReadKeyMatchesReadAllFilter(t *testing.T) {
	// The per-key page index must not change ReadKey's results vs the old
	// filter-over-ReadAll implementation.
	s := New()
	keys := []string{"a", "b", "c"}
	for i := uint64(1); i <= 300; i++ {
		s.Append(msg(keys[i%3], i, fmt.Sprintf("body-%d", i)))
	}
	all, err := s.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		var want []Record
		for _, r := range all {
			if r.Key == key {
				want = append(want, r)
			}
		}
		got, err := s.ReadKey(key)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("key %s: %d records via index, %d via scan", key, len(got), len(want))
		}
		for i := range got {
			if got[i].Seq != want[i].Seq || string(got[i].Data) != string(want[i].Data) {
				t.Fatalf("key %s record %d: %+v vs %+v", key, i, got[i], want[i])
			}
		}
	}
}

func TestWriteFaultInjection(t *testing.T) {
	s := New()
	if _, err := s.Append(msg("k", 1, "survives")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	fail := true
	s.SetWriteFault(func() error {
		if fail {
			return fmt.Errorf("disk offline")
		}
		return nil
	})
	if _, err := s.Append(msg("k", 2, "buffered")); err != nil {
		t.Fatalf("buffered append should not touch the page layer: %v", err)
	}
	if err := s.Flush(); err == nil {
		t.Fatal("flush succeeded despite injected write fault")
	}
	if got := s.Stats().WriteFaults; got == 0 {
		t.Fatal("write fault not counted")
	}

	// An oversized record hits the page layer synchronously.
	big := Record{Kind: KindCheckpoint, Key: "k", Seq: 3, Data: make([]byte, 2*PageSize)}
	if _, err := s.Append(big); err == nil {
		t.Fatal("oversized append succeeded despite injected write fault")
	}

	// Heal: the store keeps working and earlier data is intact.
	fail = false
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.SetWriteFault(nil)
	recs, err := s.ReadKey("k")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || string(recs[0].Data) != "survives" {
		t.Fatalf("pre-fault record lost: %+v", recs)
	}
}

// fourPageImage writes a four-page store — page 0 holds msg:a, pages 1-2 the
// four records of msg:b, page 3 msg:c — and returns its file image.
func fourPageImage(tb testing.TB) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "src.db")
	s, err := Open(path)
	if err != nil {
		tb.Fatal(err)
	}
	recs := []Record{{Kind: KindMessage, Key: "msg:a", Seq: 1, Data: make([]byte, 3000)}}
	for i := uint64(1); i <= 4; i++ {
		recs = append(recs, Record{Kind: KindMessage, Key: "msg:b", Seq: i, Data: make([]byte, 1500)})
	}
	recs = append(recs, Record{Kind: KindMessage, Key: "msg:c", Seq: 1, Data: make([]byte, 2000)})
	for _, r := range recs {
		if _, err := s.Append(r); err != nil {
			tb.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		tb.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	if len(img) != 4*PageSize {
		tb.Fatalf("image is %d bytes, want 4 pages", len(img))
	}
	return img
}

// corruptions damage fourPageImage's image in the two ways Open must reject,
// each by rewriting one record's data-length field.
var corruptions = map[string]func(img []byte){
	// Page 0's msg:a claims 16,383 bytes, the most its two-byte field holds:
	// with its header, more than the four pages of the file.
	"chain over-claim": func(img []byte) {
		setDataLen(img, 0, "msg:a", 1<<14-1)
	},
	// msg:b's second record on page 1 claims more than the page holds.
	"undecodable page": func(img []byte) {
		second := PageSize + (&Record{Key: "msg:b", Seq: 1, Data: make([]byte, 1500)}).size()
		setDataLen(img, second, "msg:b", 3000)
	},
}

// setDataLen rewrites the data-length field of the record at img[off:],
// whose key is key and whose seq is under 128, to claim dl bytes. The field
// keeps its width, so nothing after it moves.
func setDataLen(img []byte, off int, key string, dl uint64) {
	at := off + 1 + 1 + len(key) + 1 // kind, key length, key, seq
	if _, w := binary.Uvarint(img[at:]); w != uvarintLen(dl) {
		panic(fmt.Sprintf("data length %d does not fit the %d-byte field at %d", dl, w, at))
	}
	binary.PutUvarint(img[at:], dl)
}

// A damaged page file fails Open. It used to open: a first record whose
// length header claimed more than a page made page 0 a chain over pages the
// file does not have, swallowing msg:b's pages, and a page that did not
// decode was left out of the key index — either way ReadKey("msg:b") came
// back short with a nil error, and only ReadAll failed.
func TestOpenRejectsCorruptPages(t *testing.T) {
	for name, damage := range corruptions {
		t.Run(name, func(t *testing.T) {
			img := fourPageImage(t)
			damage(img)
			path := filepath.Join(t.TempDir(), "bad.db")
			if err := os.WriteFile(path, img, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(path)
			if err == nil {
				recs, rerr := s.ReadKey("msg:b")
				s.Close()
				t.Fatalf("Open accepted a corrupt page file; ReadKey(msg:b) = %d records, err %v", len(recs), rerr)
			}
			if !errors.Is(err, errCorruptPage) {
				t.Fatalf("Open error %v, want a corrupt-page error", err)
			}
		})
	}
}

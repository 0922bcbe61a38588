package stablestore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// A sealed page keeps only its records' bytes: its len and cap are both
// the bytes AppendKey wrote, and the page counts as one page all the same.
func TestSealedPageHoldsItsRecords(t *testing.T) {
	s := New()
	k := s.Key("msg:p1.1")
	want := recordLen(0, 0, len("msg:p1.1"))
	for seq := uint64(1); seq <= 5; seq++ {
		data := bytes.Repeat([]byte{byte(seq)}, 40)
		if _, err := s.AppendKey(k, KindMessage, seq, data); err != nil {
			t.Fatal(err)
		}
		want += recordLen(0, seq, len(data))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if page := *s.page(0); len(page) != want || cap(page) != want {
		t.Fatalf("sealed page: len %d cap %d, want both %d", len(page), cap(page), want)
	}
	before := s.Stats().PageReads
	if recs, err := s.ReadKey("msg:p1.1"); err != nil || len(recs) != 5 {
		t.Fatalf("ReadKey: %d records (%v), want 5", len(recs), err)
	}
	if got := s.Stats().PageReads - before; got != 1 {
		t.Fatalf("ReadKey of one short page counted %d page reads, want 1", got)
	}
}

// Slices that Lookup and Scan hand out stay byte-identical whatever the
// store does next, and a page that outgrows the slab tail it opened in
// moves without rewriting a byte. The next page opens in the tail that the
// sealed one left in its slab; when a record would run past the slab's
// end, the open page moves to a new slab under the same page id. A Lookup
// slice taken before the move still reads its record from the bytes it was
// handed, Lookup at the same Ref reads it from the page's new place, and
// the records written after the move follow it there.
func TestReadSlicesSurviveTheNextPage(t *testing.T) {
	s := New()
	k := s.Key("msg:p1.1")
	body := func(seq uint64) []byte { return bytes.Repeat([]byte{byte(seq*7 + 1)}, 60) }
	// The first slab is one page: a sealed page of 12 records leaves a
	// tail of about 3 KB in it.
	seq := uint64(1)
	for ; seq <= 12; seq++ {
		if _, err := s.AppendKey(k, KindMessage, seq, body(seq)); err != nil {
			t.Fatal(err)
		}
	}
	scanned := map[uint64][]byte{}
	if err := s.Scan(func(r Record, ref Ref) error { // seals page 0
		scanned[r.Seq] = r.Data
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sealed, first := len(*s.page(0)), seq
	ref, err := s.AppendKey(k, KindMessage, first, body(first))
	if err != nil {
		t.Fatal(err)
	}
	open := uint64(ref.Page)
	if tail := cap(*s.page(open)); open != 1 || tail != PageSize-sealed {
		t.Fatalf("next page %d opened with room for %d B, want page 1 in the %d B the sealed page left", open, tail, PageSize-sealed)
	}
	looked, err := s.Lookup(k, first, ref)
	if err != nil {
		t.Fatal(err)
	}
	before := &(*s.page(open))[0]
	for seq++; &(*s.page(open))[0] == before; seq++ { // fill the tail until the page moves
		if r, err := s.AppendKey(k, KindMessage, seq, body(seq)); err != nil || uint64(r.Page) != open {
			t.Fatalf("record %d at %+v (%v), want it on page %d", seq, r, err, open)
		}
	}
	if moved := *s.page(open); cap(moved) != PageSize || &looked[0] == &moved[ref.Off] {
		t.Fatalf("moved page has room for %d B and shares the Lookup slice's bytes", cap(moved))
	}
	if !bytes.Equal(looked, body(first)) {
		t.Fatalf("Lookup slice changed: %x", looked)
	}
	if d, err := s.Lookup(k, first, ref); err != nil || !bytes.Equal(d, body(first)) || &d[0] == &looked[0] {
		t.Fatalf("Lookup at %+v after the move: %x (%v), want the record from its new place", ref, d, err)
	}
	for seq := uint64(1); seq < first; seq++ {
		if !bytes.Equal(scanned[seq], body(seq)) {
			t.Fatalf("Scan slice of #%d changed: %x", seq, scanned[seq])
		}
	}
	recs, err := s.ReadKey("msg:p1.1")
	if err != nil || uint64(len(recs)) != seq-1 {
		t.Fatalf("ReadKey: %d records (%v), want %d", len(recs), err, seq-1)
	}
	for _, r := range recs {
		if !bytes.Equal(r.Data, body(r.Seq)) {
			t.Fatalf("record #%d reads %x", r.Seq, r.Data)
		}
	}
}

// A file-backed store writes every page whole, a page sealed short followed
// by zero padding, and Open reads back the records an in-memory twin holds.
func TestFileHoldsWholePages(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	file, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	twin := New()
	both := func(r Record) {
		t.Helper()
		if _, err := file.Append(r); err != nil {
			t.Fatal(err)
		}
		if _, err := twin.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	for seq := uint64(1); seq <= 20; seq++ {
		both(msg(fmt.Sprintf("msg:p%d.1", seq%3), seq, fmt.Sprintf("body %d", seq)))
		if seq%6 == 0 {
			if err := file.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := twin.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if seq == 10 {
			both(Record{Kind: KindCheckpoint, Key: "ck:p1.1", Seq: 1, Data: bytes.Repeat([]byte{9}, PageSize+500)})
		}
	}
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}
	if err := twin.Flush(); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(img) != twin.Pages()*PageSize {
		t.Fatalf("file is %d bytes, want %d pages", len(img), twin.Pages())
	}
	short := 0
	for id := range twin.Pages() {
		page := *twin.page(uint64(id))
		if len(page) < PageSize {
			short++
		}
		if got := img[id*PageSize : (id+1)*PageSize]; !bytes.Equal(got, padded(page)) {
			t.Fatalf("page %d on file is not the page zero-padded", id)
		}
	}
	if short < 3 {
		t.Fatalf("%d pages were sealed short, want at least 3", short)
	}
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, errA := re.ReadAll()
	want, errB := twin.ReadAll()
	if errA != nil || errB != nil || !sameRecords(got, want) {
		t.Fatalf("reopened ReadAll (%v, %v)\n reopened%s\n     twin%s", errA, errB, dumpRecords(got), dumpRecords(want))
	}
}

// A store flushed every few records holds about its records' bytes, not a
// whole page per flush: 1,000 records of 100 B, flushed every 8, allocate
// under 1.5 times their encoded bytes (4 KB per flush would be 4.9 times).
func TestFlushHeavyStreamHeapBytes(t *testing.T) {
	data := make([]byte, 100)
	s := New()
	k := s.Key("msg:p1.1")
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	records := recordLen(0, 0, len("msg:p1.1"))
	for seq := uint64(1); seq <= 1000; seq++ {
		if _, err := s.AppendKey(k, KindMessage, seq, data); err != nil {
			t.Fatal(err)
		}
		records += recordLen(0, seq, len(data))
		if seq%8 == 0 {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.ReadMemStats(&ms)
	got := ms.TotalAlloc - before
	if ceiling := uint64(records) * 3 / 2; got > ceiling {
		t.Fatalf("%d pages of %d record bytes allocated %d B, want at most %d", s.Pages(), records, got, ceiling)
	}
	t.Logf("%d pages of %d record bytes allocated %d B", s.Pages(), records, got)
}

// The store indexes nothing per record: what it allocates follows its pages
// (their bytes in the arena, a page-table slot each, the slab tails no page
// fits in), not the records on them or how many keys share a page. 32,768
// records of 100 B, appended round-robin over 64 keys with a Flush every 8,
// so that every record lands on a page its key's record before it does not,
// allocate at most 2 % of their encoded bytes more than the same records
// appended, on the same pages, under one key: 0.1 % more. A page list per
// key, grown by one id for each record, took 6 % more. And they allocate at
// most 1.05 times their encoded bytes: 1.04 times, most of the rest being
// the page table's 24-B slot per page. A page table regrown by copying and
// a slab tail left whenever it had less than a page read 1.17 times.
func TestStoreAllocatesOnlyItsPages(t *testing.T) {
	const records, keys, every = 32768, 64, 8
	data := make([]byte, 100)
	// fill appends the records, the i'th under key key(i), and returns the
	// bytes it allocated and the bytes it encoded.
	fill := func(key func(i int) int) (alloc, encoded uint64) {
		s := New()
		handles := make([]Key, keys)
		for i := range handles {
			handles[i] = s.Key(fmt.Sprintf("msg:p%d.1", i))
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		for i := range records {
			k := handles[key(i)]
			seq := uint64(i/keys + 1)
			if _, err := s.AppendKey(k, KindMessage, seq, data); err != nil {
				t.Fatal(err)
			}
			encoded += uint64(recordLen(k.k.id, seq, len(data)))
			if (i+1)%every == 0 {
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc - before, encoded
	}
	spread, encoded := fill(func(i int) int { return i % keys })
	one, _ := fill(func(int) int { return 0 })
	per := func(b uint64) float64 { return float64(b) / records }
	t.Logf("per record: %.1f B encoded, %.1f B allocated over %d keys, %.1f B under one key",
		per(encoded), per(spread), keys, per(one))
	if ceiling := one + encoded/50; spread > ceiling {
		t.Errorf("%d keys allocate %.1f B per record, over one key's %.1f B by more than 2 %% of the %.1f B encoded",
			keys, per(spread), per(one), per(encoded))
	}
	if ceiling := encoded * 105 / 100; spread > ceiling {
		t.Errorf("%d keys allocate %.1f B per record, over 1.05 times the %.1f B encoded: are pages copied or slab tails dropped?",
			keys, per(spread), per(encoded))
	}
}

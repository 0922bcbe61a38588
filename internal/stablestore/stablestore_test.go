package stablestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
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
	before := *s.Stats()
	peeked, err := s.Peek()
	if err != nil {
		t.Fatal(err)
	}
	if *s.Stats() != before {
		t.Fatalf("Peek changed the stats: %+v, then %+v", before, *s.Stats())
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

func TestOversizedChainSurvivesReopen(t *testing.T) {
	// An oversized record's chain map is volatile; before rebuildIndex a
	// reopened store decoded the chain's first page as a self-contained
	// page and failed. The cycle — append, close, reopen — must reconstruct
	// the record byte-identically through both read paths.
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
	// The small records around the chain survive too.
	small, err := s2.ReadKey("p9.1")
	if err != nil {
		t.Fatal(err)
	}
	if len(small) != 7 || small[0].Seq != 1 || small[6].Seq != 7 || string(small[6].Data) != "post" {
		t.Fatalf("small records after reopen: %+v", small)
	}
}

// ReadKey, a scan filtered to one key, returns ReadAll's records of the key
// stably sorted by seq, and counts a page read for each page, or each page
// of each run, that AppendKey put one of the key's records on. The records
// are spread over four keys with flushes between, repeat seqs (ties keep
// ReadAll's order) and include oversized ones (runs, which ReadAll returns
// after the regular pages).
func TestReadKeyMatchesReadAllFilter(t *testing.T) {
	s := New()
	keys := []string{"a", "b", "c", "d"}
	// spans[key][page] is how many pages the page or run AppendKey put one
	// of key's records on holds: the record's own pages for a run.
	spans := make(map[string]map[uint32]uint64)
	for i := uint64(1); i <= 300; i++ {
		key := keys[i%uint64(len(keys))]
		k := s.Key(key)
		data := []byte(fmt.Sprintf("body-%d", i))
		if i%37 == 0 {
			data = bytes.Repeat(data, 2*PageSize/len(data))
		}
		seq := 1000 - i%50
		ref, err := s.AppendKey(k, KindMessage, seq, data)
		if err != nil {
			t.Fatal(err)
		}
		if spans[key] == nil {
			spans[key] = make(map[uint32]uint64)
		}
		spans[key][ref.Page] = uint64(max(1, (recordLen(k.k.id, seq, len(data))+PageSize-1)/PageSize))
		if i%9 == 0 {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
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
		sort.SliceStable(want, func(i, j int) bool { return want[i].Seq < want[j].Seq })
		before := s.Stats().PageReads
		got, err := s.ReadKey(key)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRecords(got, want) {
			t.Fatalf("key %s: ReadKey%s\nReadAll filtered%s", key, dumpRecords(got), dumpRecords(want))
		}
		var pages uint64
		for _, n := range spans[key] {
			pages += n
		}
		if reads := s.Stats().PageReads - before; reads != pages {
			t.Errorf("key %s: ReadKey counted %d page reads, its records lie on %d", key, reads, pages)
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

// fourPageImage writes a four-page store and returns its file image. Page
// 0 holds msg:a's key-name record, its one record and msg:b's key-name
// record; pages 1-2 the four records of msg:b, and page 2 then msg:c's
// key-name record; page 3 msg:c's one record. Key ids follow first
// appends: msg:a 0, msg:b 1, msg:c 2.
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
	for _, want := range []struct {
		at      int
		kind    RecordKind
		id, seq uint64
	}{
		{PageSize, KindMessage, 1, 1}, {PageSize + bRecLen, KindMessage, 1, 2},
		{cName, kindKeyName, 2, 0}, {cRec, KindMessage, 2, 1},
	} {
		if h, ok := parseHeader(img[want.at:]); !ok || h.kind != want.kind || h.id != want.id || h.seq != want.seq {
			tb.Fatalf("record at %d: %+v (ok %v), want kind %d id %d seq %d", want.at, h, ok, want.kind, want.id, want.seq)
		}
	}
	return img
}

// Offsets into fourPageImage's image.
var (
	// bRecLen is the length of each msg:b record.
	bRecLen = recordLen(1, 1, 1500)
	// cName is where msg:c's key-name record starts: after msg:b #3 and #4.
	cName = 2*PageSize + 2*bRecLen
	// cRec is where msg:c's one record starts.
	cRec = 3 * PageSize
)

// corruptions damage fourPageImage's image in the ways Open must reject.
// Each rewrites one field in place, so nothing after it moves; the last
// writes page 0 in the layout the store used before records carried key
// ids.
var corruptions = map[string]func(img []byte){
	// Page 1's first record, msg:b #1, claims 16,383 bytes, the most its
	// two-byte field holds: with its header, more than the three pages
	// from it to the end of the file.
	"chain over-claim": func(img []byte) {
		setDataLen(img, PageSize, 1<<14-1)
	},
	// msg:b's second record on page 1 claims more than the page holds.
	"undecodable page": func(img []byte) {
		setDataLen(img, PageSize+bRecLen, 3000)
	},
	// msg:c's record names key id 3, which no key-name record defines.
	"undefined key id": func(img []byte) {
		setID(img, cRec, 3)
	},
	// msg:c's key-name record gives it id 3, skipping id 2.
	"key id out of order": func(img []byte) {
		setID(img, cName, 3)
	},
	// msg:c's key-name record names msg:b again: its name's last byte,
	// after the record's four one-byte header fields, becomes 'b'.
	"key name redefined": func(img []byte) {
		img[cName+4+len("msg:c")-1] = 'b'
	},
	// Page 0 holds msg:a #1 as kind, key length, key, seq, data length,
	// data. Read in the current layout, its key length is a key id (5)
	// that nothing defines.
	"pre-change layout": func(img []byte) {
		old := append([]byte{byte(KindMessage), byte(len("msg:a"))}, "msg:a"...)
		old = binary.AppendUvarint(append(old, 1), 3000)
		clear(img[:PageSize])
		copy(img, old)
	},
}

// setDataLen rewrites the data-length field of the record at img[off:],
// whose key id and seq are each under 128, to claim dl bytes. The field
// keeps its width, so nothing after it moves.
func setDataLen(img []byte, off int, dl uint64) {
	at := off + 1 + 1 + 1 // kind, key id, seq
	if _, w := binary.Uvarint(img[at:]); w != uvarintLen(dl) {
		panic(fmt.Sprintf("data length %d does not fit the %d-byte field at %d", dl, w, at))
	}
	binary.PutUvarint(img[at:], dl)
}

// setID rewrites the one-byte key-id field of the record at img[off:].
func setID(img []byte, off int, id byte) {
	if id >= 0x80 || img[off+1] >= 0x80 {
		panic(fmt.Sprintf("key id at %d is not one byte", off+1))
	}
	img[off+1] = id
}

// A damaged page file fails Open. It used to open: a first record whose
// length header claimed more than a page made page 0 a chain over pages the
// file does not have, swallowing msg:b's pages, and a page that did not
// decode was left out of the key index — either way ReadKey("msg:b") came
// back short with a nil error, and only ReadAll failed. A record whose key
// id is undefined, and a key-name record that skips an id or names a key
// twice, would file records under no key or the wrong one; a file written
// in the layout before key ids reads as the first.
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

// A key name too long for a page is refused. Its key-name record would
// need a chain, and a chain lies after the open page, where the key's
// first small record goes: Open would meet the id before its name.
func TestKeyNameLongerThanAPageIsRefused(t *testing.T) {
	s := New()
	s.Append(msg("k", 1, "before"))
	if _, err := s.Append(msg(strings.Repeat("k", PageSize), 1, "x")); err == nil {
		t.Fatal("appended under a key name longer than a page")
	}
	s.Append(msg("k", 2, "after"))
	all, err := s.ReadAll()
	if err != nil || len(all) != 2 || string(all[1].Data) != "after" {
		t.Fatalf("ReadAll after the refusal: %s (%v)", dumpRecords(all), err)
	}
}

package stablestore

import (
	"bytes"
	"fmt"
	"testing"
)

// InvalidateSeqs marks nothing: ReadAll, Peek and ReadKey go on returning
// a record it named, ReadAll and Peek in insertion (page) order, ReadKey in
// seq order. No Compact drops it; the store keeps every record.
func TestInvalidatedRecordsReadUntilCompact(t *testing.T) {
	s := New()
	// Keys interleaved on one page, b's seqs descending: page order is
	// neither key order nor seq order.
	for _, r := range []Record{
		{Kind: KindMessage, Key: "b", Seq: 2, Data: []byte("b2")},
		{Kind: KindMessage, Key: "a", Seq: 1, Data: []byte("a1")},
		{Kind: KindMessage, Key: "b", Seq: 1, Data: []byte("b1")},
		{Kind: KindMessage, Key: "a", Seq: 2, Data: []byte("a2")},
	} {
		if _, err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	s.InvalidateSeqs("b", []uint64{2})

	names := func(recs []Record) string {
		var b bytes.Buffer
		for _, r := range recs {
			fmt.Fprintf(&b, "%s ", r.Data)
		}
		return b.String()
	}
	peek, err := s.Peek()
	if err != nil {
		t.Fatal(err)
	}
	all, err := s.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	keyB, err := s.ReadKey("b")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := names(peek), "b2 a1 b1 a2 "; got != want {
		t.Errorf("Peek: %s, want %s", got, want)
	}
	if got, want := names(all), "b2 a1 b1 a2 "; got != want {
		t.Errorf("ReadAll: %s, want %s", got, want)
	}
	if got, want := names(keyB), "b1 b2 "; got != want {
		t.Errorf("ReadKey(b): %s, want %s", got, want)
	}
}

// Lookup reads a record exactly where AppendKey put it, and Scan hands out
// the same refs as the appends. No record ever moves, so a ref is exact: an
// offset off by one either way, on the page that holds the record, is an
// error, not a search.
func TestLookupIsExact(t *testing.T) {
	s := New()
	k, other := s.Key("msg:k"), s.Key("msg:other")
	refs := make(map[uint64]Ref)
	for seq := uint64(0); seq < 200; seq++ {
		if _, err := s.AppendKey(other, KindMessage, seq, []byte("filler")); err != nil {
			t.Fatal(err)
		}
		ref, err := s.AppendKey(k, KindMessage, seq, []byte(fmt.Sprintf("k%03d", seq)))
		if err != nil {
			t.Fatal(err)
		}
		refs[seq] = ref
	}
	scanned := 0
	if err := s.Scan(func(r Record, ref Ref) error {
		if r.Key == "msg:k" {
			scanned++
			if refs[r.Seq] != ref {
				return fmt.Errorf("Scan puts %s #%d at %+v, AppendKey at %+v", r.Key, r.Seq, ref, refs[r.Seq])
			}
		}
		return nil
	}); err != nil || scanned != len(refs) {
		t.Fatalf("Scan: %v (%d records)", err, scanned)
	}
	for seq, ref := range refs {
		d, err := s.Lookup(k, seq, ref)
		if err != nil || string(d) != fmt.Sprintf("k%03d", seq) {
			t.Fatalf("Lookup #%d at %+v: %q (%v)", seq, ref, d, err)
		}
		for _, off := range []uint32{ref.Off - 1, ref.Off + 1} {
			if d, err := s.Lookup(k, seq, Ref{Page: ref.Page, Off: off}); err == nil {
				t.Fatalf("Lookup #%d at offset %d, off by one from %+v, read %q", seq, off, ref, d)
			}
		}
	}
	if _, err := s.Lookup(k, 500, refs[0]); err == nil {
		t.Fatal("Lookup found a record never appended")
	}
	if _, err := s.Lookup(k, 0, Ref{Page: 1 << 30}); err == nil {
		t.Fatal("Lookup read a page the store does not have")
	}
}

// Lookup reads a record larger than a page from its chain, at the ref
// AppendKey returned and at the one Scan hands out, between small records
// on the pages around it.
func TestLookupReadsOversizedRecords(t *testing.T) {
	s := New()
	k := s.Key("msg:k")
	big := make([]byte, 3*PageSize+100)
	for i := range big {
		big[i] = byte(i*7 + 3)
	}
	refs := make(map[uint64]Ref)
	for seq, data := range [][]byte{[]byte("small"), big, []byte("after")} {
		ref, err := s.AppendKey(k, KindMessage, uint64(seq), data)
		if err != nil {
			t.Fatal(err)
		}
		refs[uint64(seq)] = ref
	}
	if err := s.Scan(func(r Record, ref Ref) error {
		if refs[r.Seq] != ref {
			return fmt.Errorf("Scan puts #%d at %+v, AppendKey at %+v", r.Seq, ref, refs[r.Seq])
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for seq, want := range [][]byte{[]byte("small"), big, []byte("after")} {
		got, err := s.Lookup(k, uint64(seq), refs[uint64(seq)])
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Lookup #%d: %d bytes (%v), want %d", seq, len(got), err, len(want))
		}
	}
	if _, err := s.Lookup(k, 0, refs[1]); err == nil {
		t.Fatal("Lookup found #0 on the chain that holds #1")
	}
}

// An oversized record is read in place: its run of pages is one buffer, so
// a Lookup of a 5,000-B record allocates nothing.
func TestLookupOfOversizedRecordAllocatesNothing(t *testing.T) {
	s := New()
	k := s.Key("ck:p1.2")
	big := bytes.Repeat([]byte{0xa5}, 5000)
	ref, err := s.AppendKey(k, KindCheckpoint, 1, big)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if d, err := s.Lookup(k, 1, ref); err != nil || len(d) != len(big) {
			t.Fatalf("Lookup: %d bytes (%v)", len(d), err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Lookup of a %d-B record allocated %.0f times", len(big), allocs)
	}
}

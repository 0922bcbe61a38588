package stablestore

import (
	"bytes"
	"fmt"
	"testing"
)

// Invalidation only marks records: ReadAll, Peek and ReadKey go on
// returning an invalidated record, in insertion (page) order, until Compact
// drops it.
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
	s.Invalidate("a", 1)
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
		t.Errorf("Peek before Compact: %s, want %s", got, want)
	}
	if got, want := names(all), "b2 a1 b1 a2 "; got != want {
		t.Errorf("ReadAll before Compact: %s, want %s", got, want)
	}
	if got, want := names(keyB), "b1 b2 "; got != want {
		t.Errorf("ReadKey(b) before Compact: %s, want %s", got, want)
	}

	if n, err := s.Compact(); err != nil || n != 2 {
		t.Fatalf("Compact dropped %d (%v), want 2", n, err)
	}
	peek, _ = s.Peek()
	all, _ = s.ReadAll()
	keyB, _ = s.ReadKey("b")
	if got, want := names(peek), "b1 a2 "; got != want {
		t.Errorf("Peek after Compact: %s, want %s", got, want)
	}
	if got, want := names(all), "b1 a2 "; got != want {
		t.Errorf("ReadAll after Compact: %s, want %s", got, want)
	}
	if got, want := names(keyB), "b1 "; got != want {
		t.Errorf("ReadKey(b) after Compact: %s, want %s", got, want)
	}
}

// Lookup reads a record where AppendKey put it, and finds it on the same
// page once Compact has moved it; Scan hands out the same refs as the
// appends. A slice Lookup returned before a compaction keeps its bytes.
func TestLookupFollowsCompaction(t *testing.T) {
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

	before, err := s.Lookup(k, 199, refs[199])
	if err != nil || string(before) != "k199" {
		t.Fatalf("Lookup before Compact: %q (%v)", before, err)
	}
	s.Invalidate("msg:other", 1000)
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for seq, ref := range refs {
		d, err := s.Lookup(k, seq, ref)
		if err != nil || string(d) != fmt.Sprintf("k%03d", seq) {
			t.Fatalf("Lookup #%d after Compact: %q (%v)", seq, d, err)
		}
		if ref.Off != 0 {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("compaction moved no record: the scan went untested")
	}
	if string(before) != "k199" {
		t.Fatalf("a slice from before Compact now reads %q", before)
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

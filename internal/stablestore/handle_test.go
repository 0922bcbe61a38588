package stablestore

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

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

// samePages reports whether two stores hold byte-identical pages as the
// file holds them, each zero-padded to PageSize: a page sealed short in
// memory and the same page Open read back are the same page.
func samePages(a, b *Paged) bool {
	if a.npages != b.npages {
		return false
	}
	for id := range a.npages {
		if !bytes.Equal(padded(*a.page(id)), padded(*b.page(id))) {
			return false
		}
	}
	return true
}

// padded returns a copy of page zero-padded to PageSize, as sync writes it.
func padded(page []byte) []byte {
	p := make([]byte, PageSize)
	copy(p, page)
	return p
}

// TestHandlesMatchNames drives two file-backed stores with the same random
// sequence of appends and flushes: one by key name (Append), one through key
// handles (AppendKey). At random checks and at the end their pages are
// byte-identical and ReadAll, ReadKey and Stats agree, and so do the two
// files once reopened.
func TestHandlesMatchNames(t *testing.T) {
	names := []string{"msg:p1.1", "msg:p2.1", "adv:p1.1", "ck:p1.1"}
	for seed := int64(1); seed <= 20; seed++ {
		dir := t.TempDir()
		byName, err := Open(filepath.Join(dir, "name.db"))
		if err != nil {
			t.Fatal(err)
		}
		byHandle, err := Open(filepath.Join(dir, "handle.db"))
		if err != nil {
			t.Fatal(err)
		}
		// Handles are taken up front, before their keys hold anything.
		handles := make([]Key, len(names))
		for i, n := range names {
			handles[i] = byHandle.Key(n)
		}
		agree := func(a, b *Paged, step int, what string) {
			t.Helper()
			if !samePages(a, b) {
				t.Fatalf("seed %d step %d (%s): pages differ", seed, step, what)
			}
			if *a.Stats() != *b.Stats() {
				t.Fatalf("seed %d step %d (%s): stats %+v by name, %+v by handle", seed, step, what, *a.Stats(), *b.Stats())
			}
			ra, errA := a.ReadAll()
			rb, errB := b.ReadAll()
			if errA != nil || errB != nil || !sameRecords(ra, rb) {
				t.Fatalf("seed %d step %d (%s): ReadAll (%v, %v)\n name%s\nhandle%s", seed, step, what, errA, errB, dumpRecords(ra), dumpRecords(rb))
			}
			for _, n := range names {
				ka, errA := a.ReadKey(n)
				kb, errB := b.ReadKey(n)
				if errA != nil || errB != nil || !sameRecords(ka, kb) {
					t.Fatalf("seed %d step %d (%s): ReadKey(%s) (%v, %v)\n name%s\nhandle%s", seed, step, what, n, errA, errB, dumpRecords(ka), dumpRecords(kb))
				}
			}
		}

		r := rand.New(rand.NewSource(seed))
		for step := 0; step < 300; step++ {
			i := r.Intn(len(names))
			switch op := r.Intn(20); {
			case op < 17:
				rec := Record{Kind: KindMessage, Key: names[i], Seq: uint64(r.Intn(200)),
					Data: []byte(fmt.Sprintf("%d-%d", seed, step))}
				switch r.Intn(12) {
				case 0:
					rec.Kind = KindCheckpoint
					rec.Data = make([]byte, PageSize+r.Intn(2*PageSize))
					rec.Data[0] = byte(step)
				case 1:
					rec.Kind = KindMeta
				}
				pa, errA := byName.Append(rec)
				pb, errB := byHandle.AppendKey(handles[i], rec.Kind, rec.Seq, rec.Data)
				if errA != nil || errB != nil || pa != uint64(pb.Page) {
					t.Fatalf("seed %d step %d: Append landed on page %d (%v), AppendKey on %d (%v)", seed, step, pa, errA, pb.Page, errB)
				}
			case op < 19:
				if err := byName.Flush(); err != nil {
					t.Fatal(err)
				}
				if err := byHandle.Flush(); err != nil {
					t.Fatal(err)
				}
			default:
				agree(byName, byHandle, step, "check")
			}
		}
		agree(byName, byHandle, -1, "final")
		if err := byName.Close(); err != nil {
			t.Fatal(err)
		}
		if err := byHandle.Close(); err != nil {
			t.Fatal(err)
		}
		reName, err := Open(filepath.Join(dir, "name.db"))
		if err != nil {
			t.Fatal(err)
		}
		reHandle, err := Open(filepath.Join(dir, "handle.db"))
		if err != nil {
			t.Fatal(err)
		}
		agree(reName, reHandle, -1, "reopened")
		reName.Close()
		reHandle.Close()
	}
}

// An append through a handle that stays within the open page allocates
// nothing: the key is not looked up and the record is encoded in place.
func TestAppendKeyWithinAPageAllocatesNothing(t *testing.T) {
	s := New()
	k := s.Key("msg:p1.1")
	data := []byte("8 bytes!")
	if _, err := s.AppendKey(k, KindMessage, 0, data); err != nil { // opens the page
		t.Fatal(err)
	}
	seq := uint64(1)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.AppendKey(k, KindMessage, seq, data); err != nil {
			t.Fatal(err)
		}
		seq++
	})
	if allocs != 0 {
		t.Errorf("AppendKey allocates %.1f times per record", allocs)
	}
	if n := s.Pages(); n != 1 {
		t.Fatalf("the appends spilled onto %d pages, want 1", n)
	}
}

// A reopened store knows every key id its records carry, and goes on
// handing out ids where it left off. A file-backed store and an in-memory
// twin take the same appends: 300 keys, so ids need two-byte varints, then
// a checkpoint chain under a key whose key-name record is written just
// before it. The file is closed and opened again; ReadAll, ReadKey and
// Lookup through handles taken afresh read what the twin holds, and after
// more appends to old keys and new ones the two stores' pages are still
// byte-identical.
func TestKeyIDsSurviveReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ids.db")
	file, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	twin := New()
	type at struct {
		key string
		seq uint64
	}
	refs := make(map[at]Ref)
	appendBoth := func(a, b *Paged, kind RecordKind, key string, seq uint64, data []byte) {
		t.Helper()
		ra, errA := a.AppendKey(a.Key(key), kind, seq, data)
		rb, errB := b.AppendKey(b.Key(key), kind, seq, data)
		if errA != nil || errB != nil || ra != rb {
			t.Fatalf("%s #%d: appended at %+v (%v) and %+v (%v)", key, seq, ra, errA, rb, errB)
		}
		refs[at{key, seq}] = ra
	}
	var names []string
	for i := range 300 {
		names = append(names, fmt.Sprintf("msg:p%d.1", i))
	}
	for seq := uint64(1); seq <= 3; seq++ {
		for i, n := range names {
			appendBoth(file, twin, KindMessage, n, seq, []byte(fmt.Sprintf("%d-%d", i, seq)))
		}
	}
	big := make([]byte, 2*PageSize+300)
	for i := range big {
		big[i] = byte(i*13 + 5)
	}
	appendBoth(file, twin, KindCheckpoint, "ck:new", 1, big)
	appendBoth(file, twin, KindMessage, names[7], 4, []byte("after the chain"))
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}
	if err := twin.Flush(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	same := func(what string) {
		t.Helper()
		if !samePages(re, twin) {
			t.Fatalf("%s: pages differ from the twin's", what)
		}
		ra, errA := re.ReadAll()
		rb, errB := twin.ReadAll()
		if errA != nil || errB != nil || !sameRecords(ra, rb) {
			t.Fatalf("%s: ReadAll (%v, %v) differs from the twin's", what, errA, errB)
		}
		for _, n := range append([]string{"ck:new", "ck:later"}, names...) {
			ka, errA := re.ReadKey(n)
			kb, errB := twin.ReadKey(n)
			if errA != nil || errB != nil || !sameRecords(ka, kb) {
				t.Fatalf("%s: ReadKey(%s) (%v, %v)\n reopened%s\n     twin%s", what, n, errA, errB, dumpRecords(ka), dumpRecords(kb))
			}
		}
		for a, ref := range refs {
			got, errA := re.Lookup(re.Key(a.key), a.seq, ref)
			want, errB := twin.Lookup(twin.Key(a.key), a.seq, ref)
			if errA != nil || errB != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: Lookup(%s #%d) at %+v: (%v, %v)", what, a.key, a.seq, ref, errA, errB)
			}
		}
	}
	same("reopened")
	if k := re.Key("ck:new"); !k.k.named || k.k.id != uint64(len(names)) {
		t.Fatalf("ck:new reopened with id %d (named %v), want %d", k.k.id, k.k.named, len(names))
	}
	appendBoth(re, twin, KindMessage, names[0], 5, []byte("old key"))
	appendBoth(re, twin, KindMessage, "msg:later", 1, []byte("new key"))
	appendBoth(re, twin, KindCheckpoint, "ck:later", 1, big)
	same("appended after reopening")
}

// Scan hands every record over without allocating: its Key is its key's
// name, read from the id table, and its Data aliases its page. A 64-byte
// message leaves two records, as a published one does.
func TestScanAllocatesNothingPerRecord(t *testing.T) {
	s := New()
	keys := []Key{s.Key("msg:p0.1"), s.Key("last:p0.1")}
	body := make([]byte, 64)
	for seq := uint64(1); seq <= 1000; seq++ {
		for _, k := range keys {
			if _, err := s.AppendKey(k, KindMessage, seq, body); err != nil {
				t.Fatal(err)
			}
		}
	}
	n := 0
	allocs := testing.AllocsPerRun(10, func() {
		if err := s.Scan(func(Record, Ref) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
	})
	if n != 11*2000 {
		t.Fatalf("Scan visited %d records in 11 runs, want %d", n, 11*2000)
	}
	if allocs != 0 {
		t.Errorf("Scan of %d pages allocates %.0f times", s.Pages(), allocs)
	}
}

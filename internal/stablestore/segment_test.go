package stablestore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func rec(key string, seq uint64, data string) Record {
	return Record{Kind: KindMessage, Key: key, Seq: seq, Data: []byte(data)}
}

func TestSegmentAppendReadBack(t *testing.T) {
	s := NewSegmented(0)
	for i := 0; i < 10; i++ {
		if _, err := s.Append(rec("p1.1", uint64(i), fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := s.ReadKey("p1.1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Fatalf("got %d records, want 10", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i) || string(r.Data) != fmt.Sprintf("m%d", i) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
}

// Group commit: records buffer in the active segment and one Flush covers
// the whole window, feeding the batch observer.
func TestSegmentGroupCommit(t *testing.T) {
	s := NewSegmented(0)
	var batches []int
	s.SetBatchObserver(func(n int) { batches = append(batches, n) })
	for i := 0; i < 7; i++ {
		if _, err := s.Append(rec("k", uint64(i), "x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil { // empty window: no commit
		t.Fatal(err)
	}
	for i := 7; i < 10; i++ {
		if _, err := s.Append(rec("k", uint64(i), "x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(batches) != 2 || batches[0] != 7 || batches[1] != 3 {
		t.Fatalf("batches = %v, want [7 3]", batches)
	}
	if st := s.Stats(); st.SegFlushes != 2 {
		t.Fatalf("SegFlushes = %d, want 2", st.SegFlushes)
	}
}

// Truncation drops whole segments whose live count hits zero — without
// visiting records — and the frontier segment straddling the truncation
// point is rewritten to only its live records.
func TestSegmentTruncationDropsDeadSegments(t *testing.T) {
	s := NewSegmented(256) // tiny segments: a few records each
	n := 100
	for i := 0; i < n; i++ {
		if _, err := s.Append(rec("k", uint64(i), "0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats()
	if before.SegSealed == 0 {
		t.Fatal("expected several sealed segments")
	}
	// Invalidate a prefix that ends mid-segment.
	cut := uint64(n/2 + 1)
	s.Invalidate("k", cut)
	dropped, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if dropped != int(cut)+1 {
		t.Fatalf("dropped %d, want %d", dropped, cut+1)
	}
	st := s.Stats()
	if st.SegDropped == 0 {
		t.Fatal("no whole segments dropped")
	}
	if st.SegRewrites != 1 {
		t.Fatalf("SegRewrites = %d, want 1 (the frontier)", st.SegRewrites)
	}
	if st.BytesDead != 0 {
		t.Fatalf("BytesDead = %d after full truncation, want 0", st.BytesDead)
	}
	recs, err := s.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n-int(cut)-1 {
		t.Fatalf("%d records survive, want %d", len(recs), n-int(cut)-1)
	}
	for i, r := range recs {
		if want := cut + 1 + uint64(i); r.Seq != want {
			t.Fatalf("survivor %d has seq %d, want %d", i, r.Seq, want)
		}
	}
}

// A second compaction after everything died reclaims the rewritten
// frontier too, and out-of-order InvalidateSeqs maintain liveness.
func TestSegmentInvalidateSeqsAndFullDrain(t *testing.T) {
	s := NewSegmented(256)
	for i := 0; i < 40; i++ {
		if _, err := s.Append(rec("k", uint64(i), "payloadpayload")); err != nil {
			t.Fatal(err)
		}
	}
	// Kill a scattered subset first (non-prefix, like a checkpoint after
	// out-of-order channel reads), then the rest.
	var odd []uint64
	for i := 1; i < 40; i += 2 {
		odd = append(odd, uint64(i))
	}
	s.InvalidateSeqs("k", odd)
	s.Invalidate("k", 39)
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	recs, err := s.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("%d records survive a full drain", len(recs))
	}
	if st := s.Stats(); st.Segments != 0 || st.BytesDead != 0 {
		t.Fatalf("stats after drain: %+v", st)
	}
}

// A record invalidated before it is appended is born dead (the paged
// engine's compaction would drop it too — the engines must agree).
func TestSegmentAppendAfterInvalidate(t *testing.T) {
	s := NewSegmented(0)
	s.InvalidateSeqs("k", []uint64{5})
	s.Invalidate("k", 2)
	for i := 0; i < 8; i++ {
		if _, err := s.Append(rec("k", uint64(i), "x")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	recs, _ := s.ReadAll()
	want := map[uint64]bool{3: true, 4: true, 6: true, 7: true}
	if len(recs) != len(want) {
		t.Fatalf("%d survivors, want %d", len(recs), len(want))
	}
	for _, r := range recs {
		if !want[r.Seq] {
			t.Fatalf("seq %d should be dead", r.Seq)
		}
	}
}

// Meta revisions shadow their predecessors so checkpoint truncation can
// reclaim segments interleaved with recorder metadata; checkpoint records
// keep full history (every revision's drop list matters to the rebuild).
func TestSegmentMetaRevisionShadowing(t *testing.T) {
	s := NewSegmented(256)
	for i := uint64(1); i <= 30; i++ {
		if _, err := s.Append(rec("msg:p1.1", i, "mmmmmmmmmmmm")); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Append(Record{Kind: KindMeta, Key: "last:p1.1", Seq: i}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Append(Record{Kind: KindCheckpoint, Key: "ck:p1.1", Seq: i, Data: []byte("ck")}); err != nil {
			t.Fatal(err)
		}
	}
	s.Invalidate("msg:p1.1", 30)
	for i := 0; i < 10; i++ {
		if _, err := s.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := s.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	metas, cks := 0, 0
	for _, r := range recs {
		switch r.Kind {
		case KindMessage:
			t.Fatalf("message seq %d survived full invalidation", r.Seq)
		case KindMeta:
			metas++
			if r.Seq != 30 {
				t.Fatalf("shadowed meta revision %d survived", r.Seq)
			}
		case KindCheckpoint:
			cks++
		}
	}
	if metas != 1 {
		t.Fatalf("%d meta records survive, want 1 (latest revision)", metas)
	}
	if cks != 30 {
		t.Fatalf("%d checkpoint records survive, want all 30", cks)
	}
}

// Oversized records (multi-page checkpoints) need no special casing: the
// segment simply grows past its seal threshold and seals after.
func TestSegmentOversizedRecords(t *testing.T) {
	s := NewSegmented(0)
	big := bytes.Repeat([]byte("c"), 3*PageSize)
	if _, err := s.Append(Record{Kind: KindCheckpoint, Key: "ck:p1.1", Seq: 1, Data: big}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(rec("msg:p1.1", 1, "after")); err != nil {
		t.Fatal(err)
	}
	recs, err := s.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || !bytes.Equal(recs[0].Data, big) || string(recs[1].Data) != "after" {
		t.Fatalf("oversized round trip broken: %d records", len(recs))
	}
}

// ReadKey matches filtering ReadAll by key — the sparse index is an
// optimization, never a semantic change.
func TestSegmentReadKeyMatchesReadAllFilter(t *testing.T) {
	s := NewSegmented(512)
	keys := []string{"a", "b", "c"}
	for i := 0; i < 120; i++ {
		k := keys[i%len(keys)]
		if _, err := s.Append(rec(k, uint64(i/len(keys)), fmt.Sprintf("%s-%d", k, i))); err != nil {
			t.Fatal(err)
		}
	}
	all, err := s.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		var want []Record
		for _, r := range all {
			if r.Key == k {
				want = append(want, r)
			}
		}
		got, err := s.ReadKey(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("key %s: %d vs %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i].Seq != want[i].Seq || !bytes.Equal(got[i].Data, want[i].Data) {
				t.Fatalf("key %s record %d: %+v vs %+v", k, i, got[i], want[i])
			}
		}
	}
}

// The same operation sequence fed to both engines yields byte-identical
// ReadAll sequences (pre-compaction) — the store half of the cross-backend
// recovery oracle.
func TestSegmentPagedReadAllIdentical(t *testing.T) {
	p := New()
	s := NewSegmented(512)
	ops := func(st Store) {
		for i := 0; i < 200; i++ {
			k := fmt.Sprintf("msg:p%d.1", i%5)
			if _, err := st.Append(Record{Kind: KindMessage, Key: k, Seq: uint64(i / 5), Data: []byte(fmt.Sprintf("body-%d", i))}); err != nil {
				t.Fatal(err)
			}
			if i%17 == 0 {
				if err := st.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			if i%31 == 0 {
				st.Invalidate(fmt.Sprintf("msg:p%d.1", i%5), uint64(i/10))
			}
		}
	}
	ops(p)
	ops(s)
	pr, err := p.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	sr, err := s.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pr) != len(sr) {
		t.Fatalf("record counts differ: paged %d, segmented %d", len(pr), len(sr))
	}
	for i := range pr {
		if pr[i].Kind != sr[i].Kind || pr[i].Key != sr[i].Key || pr[i].Seq != sr[i].Seq || !bytes.Equal(pr[i].Data, sr[i].Data) {
			t.Fatalf("record %d differs: paged %+v, segmented %+v", i, pr[i], sr[i])
		}
	}
}

func TestSegmentFileBackedReload(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmented(dir, 512)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := s.Append(rec("k", uint64(i), fmt.Sprintf("v%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenSegmented(dir, 512)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := re.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 50 {
		t.Fatalf("reloaded %d records, want 50", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i) || string(r.Data) != fmt.Sprintf("v%02d", i) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
	// Keep writing after reopen; truncation must remove segment files.
	for i := 50; i < 60; i++ {
		if _, err := re.Append(rec("k", uint64(i), "x")); err != nil {
			t.Fatal(err)
		}
	}
	re.Invalidate("k", 59)
	for i := 0; i < 4; i++ {
		if _, err := re.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if len(files) != 0 {
		t.Fatalf("%d segment files survive a full drain: %v", len(files), files)
	}
}

// pagedRebuildOfPrefix feeds the first n of recs into a fresh paged store
// and returns its ReadAll — the §4.5 reference rebuild the crash-recovery
// assertions compare against.
func pagedRebuildOfPrefix(t *testing.T, recs []Record, n int) []Record {
	t.Helper()
	p := New()
	for _, r := range recs[:n] {
		if _, err := p.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	out, err := p.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func sameRecords(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Kind != want[i].Kind || got[i].Key != want[i].Key ||
			got[i].Seq != want[i].Seq || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// Crash after a partial segment write: the torn tail is discarded, the
// valid record prefix survives, and the rebuilt DB equals the paged-store
// rebuild of the same prefix.
func TestSegmentCrashRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmented(dir, DefaultSegmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	var all []Record
	for i := 0; i < 30; i++ {
		r := rec("msg:p1.1", uint64(i), fmt.Sprintf("body-%04d", i))
		all = append(all, r)
		if _, err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close, no seal. Tear the last record by chopping 5 bytes.
	files, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if len(files) != 1 {
		t.Fatalf("expected 1 segment file, found %v", files)
	}
	info, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(files[0], info.Size()-5); err != nil {
		t.Fatal(err)
	}

	re, err := OpenSegmented(dir, DefaultSegmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	got, err := re.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, got, pagedRebuildOfPrefix(t, all, 29))

	// The recovered store must be re-sealed: a second open is identical.
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, err := OpenSegmented(dir, DefaultSegmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := re2.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, got2, got)
}

// Crash between the index write and the data sync: the footer and index
// are intact on disk but the data region is damaged (lost write). The data
// CRC catches it and recovery falls back to the longest valid record
// prefix — again equal to the paged rebuild of that prefix.
func TestSegmentCrashRecoveryIndexBeforeDataSync(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmented(dir, 1024)
	if err != nil {
		t.Fatal(err)
	}
	var all []Record
	for i := 0; i < 80; i++ {
		r := rec("msg:p1.1", uint64(i), fmt.Sprintf("body-%04d", i))
		all = append(all, r)
		if _, err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if len(files) < 2 {
		t.Fatalf("expected several sealed segments, found %v", files)
	}
	// Damage the data region of the first sealed segment: zero a record
	// header a few records in, as if that data page never reached disk even
	// though the index (written later, synced earlier) did.
	b, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	recs, sealed, _ := decodeSegment(b)
	if !sealed || len(recs) < 4 {
		t.Fatalf("segment 0: sealed=%v records=%d", sealed, len(recs))
	}
	off := 0
	for i := 0; i < 3; i++ { // offset of record 3
		off += (&recs[i]).size()
	}
	for i := 0; i < 4; i++ {
		b[off+i] = 0
	}
	if err := os.WriteFile(files[0], b, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := OpenSegmented(dir, 1024)
	if err != nil {
		t.Fatal(err)
	}
	got, err := re.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// Survivors: records 0..2 of the damaged segment, then every later
	// segment in full. That is NOT a clean prefix of the whole log, so
	// compare against the paged rebuild of the matching record subset.
	want := append([]Record(nil), all[:3]...)
	want = append(want, all[len(recs):]...)
	p := New()
	for _, r := range want {
		if _, err := p.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	pref, err := p.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, got, pref)
}

func TestSegmentWriteFaultInjection(t *testing.T) {
	s := NewSegmented(0)
	if _, err := s.Append(rec("k", 1, "ok")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk on fire")
	s.SetWriteFault(func() error { return boom })
	if err := s.Flush(); !errors.Is(err, boom) {
		t.Fatalf("Flush error = %v, want injected fault", err)
	}
	if st := s.Stats(); st.WriteFaults != 1 {
		t.Fatalf("WriteFaults = %d, want 1", st.WriteFaults)
	}
	s.SetWriteFault(nil)
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush after clearing fault: %v", err)
	}
}

func TestSegmentPagesFootprint(t *testing.T) {
	s := NewSegmented(256)
	if s.Pages() != 0 {
		t.Fatalf("empty store footprint = %d", s.Pages())
	}
	for i := 0; i < 60; i++ {
		if _, err := s.Append(rec("k", uint64(i), "0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := s.Pages(), int(s.Stats().Segments); got != want {
		t.Fatalf("Pages() = %d, Stats().Segments = %d", got, want)
	}
	if s.Pages() < 2 {
		t.Fatalf("footprint %d, want several tiny segments", s.Pages())
	}
}

// The liveness manifest: records invalidated before Close are skipped at
// reopen (never decoded, never indexed), while marks made after a sealed
// segment's tail reached disk — without a clean Close to refresh the
// manifest — stay volatile and resurrect, to be re-dropped by the
// recorder's rebuild. Meta shadowing marks must survive the trip too.
func TestSegmentManifestReopenSkipsDead(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmented(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := s.Append(rec("k", uint64(i), fmt.Sprintf("v%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Two meta revisions: reopen must keep only the newer.
	for _, q := range []uint64{1, 2} {
		if _, err := s.Append(Record{Kind: KindMeta, Key: "meta:x", Seq: q, Data: []byte{byte(q)}}); err != nil {
			t.Fatal(err)
		}
	}
	// Marks before Close: both the born-dead and the sealed-segment
	// (manifest-refresh) variants land in the on-disk bitmaps.
	s.Invalidate("k", 9)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenSegmented(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := re.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, r := range recs {
		if r.Kind == KindMessage && r.Seq <= 9 {
			t.Fatalf("reopen resurrected invalidated record %+v", r)
		}
		if r.Kind == KindMeta {
			if r.Seq != 2 {
				t.Fatalf("reopen kept shadowed meta revision %d", r.Seq)
			}
			keys = append(keys, r.Key)
		}
	}
	if want := 40 - 10 + 1; len(recs) != want {
		t.Fatalf("reopen loaded %d records, want %d", len(recs), want)
	}
	if len(keys) != 1 {
		t.Fatalf("reopen kept %d meta revisions, want 1", len(keys))
	}

	// Marks after the manifest reached disk, with no Close before the
	// "crash": stale manifest, records resurrect.
	re.Invalidate("k", 19)
	if err := re.Flush(); err != nil {
		t.Fatal(err)
	}
	// No Close: reopen the directory as-is.
	re2, err := OpenSegmented(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	recs2, err := re2.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, r := range recs2 {
		if r.Kind == KindMessage && r.Seq >= 10 && r.Seq <= 19 {
			n++
		}
	}
	if n != 10 {
		t.Fatalf("stale-manifest reopen kept %d of the 10 late-invalidated records", n)
	}
	if err := re2.Close(); err != nil {
		t.Fatal(err)
	}
}

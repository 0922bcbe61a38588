// The log-structured segment engine: the recorder's high-volume backend.
//
// The thesis removes disk saturation "by allowing messages to be written
// out in 4k byte buffers rather than forcing one disk write per message"
// (§5.1). Segmented generalizes that buffering discipline from one page to
// one segment: appends land in an active in-memory segment and are
// committed at group-commit boundaries — one Flush covers every record that
// arrived in the same flush window. Sealed segments are immutable (files in
// file mode, byte slices in sim mode) and carry a per-segment sparse index
// keyed (key, seq) with min/max seq bounds per key, so ReadKey, replay
// iteration, and InvalidateSeqs resolve by segment-bound comparison instead
// of page-chain walks. Each segment maintains a liveness counter at
// invalidation time; checkpoint truncation drops whole segments whose live
// count hits zero — O(segments), not O(records) — and a compactor run at
// quiescence (Compact) rewrites the single frontier segment that straddles
// the truncation point.
package stablestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// DefaultSegmentBytes is the seal threshold for the segmented engine: 64
// pages' worth of the §5.1 buffering discipline. Larger segments amortize
// seal/IO cost over more records; smaller ones truncate at a finer grain —
// 256 KiB is the measured sweet spot for million-record workloads (see
// BENCH_store.json) while keeping checkpoint truncation responsive.
const DefaultSegmentBytes = 64 * PageSize

// recHeaderLen is the fixed part of an encoded record (kind, keylen, seq,
// datalen) — Record.size minus key and payload.
const recHeaderLen = 1 + 2 + 8 + 4

// keyRun is one key's slice of a segment's sparse index: the seqs and
// record ordinals of that key's records, with min/max bounds so Invalidate
// and InvalidateSeqs can skip whole segments by bound comparison.
type keyRun struct {
	seqs           []uint64
	ords           []uint32
	minSeq, maxSeq uint64
}

// segment is one log segment. Until sealed it is the active append target;
// sealed segments are immutable (only the liveness metadata — dead bitmap
// and counters — mutates afterwards).
type segment struct {
	id     uint64
	data   []byte
	recOff []uint32 // record start offsets; len = count+1, last = len(data)
	keys   map[string]*keyRun
	dead   []uint64 // bitmap over record ordinals
	deadN  int      // records marked dead
	sealed bool
	// manifestStale is set when a sealed (file-backed) segment gains dead
	// marks after its tail was written; Close refreshes such manifests.
	manifestStale bool
}

func (g *segment) count() int { return len(g.recOff) - 1 }

func (g *segment) live() int { return g.count() - g.deadN }

func (g *segment) isDead(ord uint32) bool {
	return int(ord/64) < len(g.dead) && g.dead[ord/64]&(1<<(ord%64)) != 0
}

// markDead sets ord's dead bit, returning false if it already was.
func (g *segment) markDead(ord uint32) bool {
	for int(ord/64) >= len(g.dead) {
		g.dead = append(g.dead, 0)
	}
	if g.dead[ord/64]&(1<<(ord%64)) != 0 {
		return false
	}
	g.dead[ord/64] |= 1 << (ord % 64)
	g.deadN++
	return true
}

// recSize returns ord's encoded length.
func (g *segment) recSize(ord uint32) int {
	return int(g.recOff[ord+1] - g.recOff[ord])
}

// run returns key's index run, creating it on first append.
func (g *segment) run(key string) *keyRun {
	kr := g.keys[key]
	if kr == nil {
		kr = &keyRun{minSeq: ^uint64(0)}
		g.keys[key] = kr
	}
	return kr
}

func newSegment(id uint64, capBytes int) *segment {
	// PageSize of slack: the record that pushes data past the seal
	// threshold must not reallocate (and copy) the whole segment.
	return &segment{
		id:     id,
		data:   make([]byte, 0, capBytes+PageSize),
		recOff: make([]uint32, 1, capBytes/64+1),
		keys:   make(map[string]*keyRun),
	}
}

// Segmented is the log-structured store engine. Like Paged it is safe for
// concurrent use; simulations call it single-threaded.
type Segmented struct {
	mu       sync.Mutex
	segBytes int
	segs     []*segment // sealed, in append (= id) order
	active   *segment
	nextID   uint64

	// pending is how many records arrived since the last group commit;
	// synced is how much of the active segment's data already reached the
	// file backing (file mode writes are append-only). af is the active
	// segment's file, held open between commits.
	pending int
	synced  int
	af      *os.File

	// invalid / invalidSeqs mirror the paged engine's garbage marks so both
	// engines agree on which records are dead (the cross-backend oracle).
	// They also pre-kill future appends of an already-invalidated (key, seq).
	invalid     map[string]uint64
	invalidSeqs map[string]map[uint64]bool

	// keySegs lists, per key, the segments holding its records (in segment
	// order) — the cross-segment half of the sparse index.
	keySegs map[string][]*segment

	// metaSeen tracks the newest revision seen per KindMeta key. Meta
	// records are revisioned (the rebuild reads only the latest), so an
	// append of revision R shadows every earlier revision of the same key;
	// shadowed metas are marked dead at append time so segments they occupy
	// can still be truncated. Checkpoint records are exempt: every
	// checkpoint revision's drop list matters to the rebuild.
	metaSeen map[string]*metaTrail

	stats      Stats
	writeFault func() error
	batchObs   func(int)

	// free recycles dropped segments' data buffers into new actives, so a
	// steady state of truncation-and-refill stops allocating (and zeroing)
	// a segment-sized buffer per generation.
	free [][]byte

	dir string // file backing, "" = in-memory
}

// metaTrail remembers where the latest revision of a meta key lives so the
// next revision can shadow it in O(1).
type metaTrail struct {
	seq uint64
	seg *segment
	ord uint32
}

// NewSegmented returns an in-memory segmented store. segBytes <= 0 selects
// DefaultSegmentBytes.
func NewSegmented(segBytes int) *Segmented {
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	s := &Segmented{
		segBytes:    segBytes,
		invalid:     make(map[string]uint64),
		invalidSeqs: make(map[string]map[uint64]bool),
		keySegs:     make(map[string][]*segment),
		metaSeen:    make(map[string]*metaTrail),
	}
	s.active = newSegment(s.nextID, segBytes)
	s.nextID++
	return s
}

// Append stores a record in the active segment, returning the segment id it
// lands on. The record is readable immediately; it becomes durable at the
// next group-commit boundary (Flush), or at seal time if the segment fills
// first.
func (s *Segmented) Append(r Record) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Appends++
	s.stats.BytesLive += uint64(len(r.Data))

	g := s.active
	ord := uint32(g.count())
	g.data = appendRecord(g.data, &r)
	g.recOff = append(g.recOff, uint32(len(g.data)))
	kr := g.keys[r.Key]
	if kr == nil {
		kr = &keyRun{minSeq: ^uint64(0)}
		g.keys[r.Key] = kr
		// First record of this key in this segment — the only moment the
		// cross-segment index can need a new entry, so the common
		// consecutive-append case costs no extra map work.
		s.keySegs[r.Key] = append(s.keySegs[r.Key], g)
	}
	kr.seqs = append(kr.seqs, r.Seq)
	kr.ords = append(kr.ords, ord)
	if r.Seq < kr.minSeq {
		kr.minSeq = r.Seq
	}
	if r.Seq > kr.maxSeq {
		kr.maxSeq = r.Seq
	}
	s.pending++

	// Records already condemned by an earlier Invalidate/InvalidateSeqs are
	// born dead, exactly as the paged engine would drop them at compaction.
	if r.Kind == KindMessage && s.deadLocked(r.Key, r.Seq) {
		s.markDeadLocked(g, r.Key, ord)
	}
	// Revision shadowing: a newer meta revision makes every older one
	// garbage (the rebuild reads only the latest). Checkpoints keep their
	// full history — every revision's drop list matters.
	if r.Kind == KindMeta {
		switch mt := s.metaSeen[r.Key]; {
		case mt == nil:
			s.metaSeen[r.Key] = &metaTrail{seq: r.Seq, seg: g, ord: ord}
		case r.Seq >= mt.seq:
			s.markDeadLocked(mt.seg, r.Key, mt.ord)
			mt.seq, mt.seg, mt.ord = r.Seq, g, ord
		default:
			// A stale revision behind the latest: born shadowed.
			s.markDeadLocked(g, r.Key, ord)
		}
	}

	id := g.id
	if len(g.data) >= s.segBytes {
		if err := s.sealLocked(); err != nil {
			return id, err
		}
	}
	return id, nil
}

// indexSegLocked records that seg holds key (dedupes the common run of
// consecutive appends into the same segment).
func (s *Segmented) indexSegLocked(key string, g *segment) {
	segs := s.keySegs[key]
	if n := len(segs); n > 0 && segs[n-1] == g {
		return
	}
	s.keySegs[key] = append(segs, g)
}

// deadLocked mirrors Paged.dead: is (key, seq) condemned?
func (s *Segmented) deadLocked(key string, seq uint64) bool {
	if through, ok := s.invalid[key]; ok && seq <= through {
		return true
	}
	if len(s.invalidSeqs) == 0 {
		return false
	}
	return s.invalidSeqs[key][seq]
}

// markDeadLocked marks one record dead, maintaining the liveness counter
// and byte accounting. On an already-sealed file-backed segment the on-disk
// manifest no longer matches; Close refreshes it so the next open still
// skips this record.
func (s *Segmented) markDeadLocked(g *segment, key string, ord uint32) {
	if !g.markDead(ord) {
		return
	}
	if g.sealed && s.dir != "" {
		g.manifestStale = true
	}
	payload := uint64(g.recSize(ord) - recHeaderLen - len(key))
	if s.stats.BytesLive >= payload {
		s.stats.BytesLive -= payload
	}
	s.stats.BytesDead += payload
}

// Flush is the group-commit boundary: one commit covers every record that
// arrived since the previous one (§5.1's buffering generalized from one
// page to one segment). In file mode the active segment's new bytes are
// appended to its file in a single write.
func (s *Segmented) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked()
}

func (s *Segmented) flushLocked() error {
	if s.pending == 0 {
		return nil
	}
	if err := s.commitActiveLocked(); err != nil {
		return err
	}
	if s.batchObs != nil {
		s.batchObs(s.pending)
	}
	s.stats.SegFlushes++
	s.pending = 0
	return nil
}

// commitActiveLocked pushes the active segment's unwritten bytes to the
// file backing (one append write), consulting the fault hook.
func (s *Segmented) commitActiveLocked() error {
	if s.writeFault != nil {
		if err := s.writeFault(); err != nil {
			s.stats.WriteFaults++
			return fmt.Errorf("stablestore: injected write fault on segment %d: %w", s.active.id, err)
		}
	}
	if s.dir == "" || s.synced >= len(s.active.data) {
		s.synced = len(s.active.data)
		return nil
	}
	f, err := s.activeFileLocked()
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(s.active.data[s.synced:], int64(s.synced)); err != nil {
		return fmt.Errorf("stablestore: write segment %d: %w", s.active.id, err)
	}
	s.synced = len(s.active.data)
	return nil
}

// activeFileLocked returns the active segment's file, opening (and caching)
// it on first use.
func (s *Segmented) activeFileLocked() (*os.File, error) {
	if s.af == nil {
		f, err := os.OpenFile(s.segPath(s.active.id), os.O_WRONLY|os.O_CREATE, 0o644)
		if err != nil {
			return nil, err
		}
		s.af = f
	}
	return s.af, nil
}

// closeActiveFileLocked drops the cached active-file handle.
func (s *Segmented) closeActiveFileLocked() error {
	if s.af == nil {
		return nil
	}
	err := s.af.Close()
	s.af = nil
	return err
}

// sealLocked makes the active segment immutable and opens a fresh one. In
// file mode the segment file gains its index block and footer, making it
// self-describing for recovery.
func (s *Segmented) sealLocked() error {
	g := s.active
	if g.count() == 0 {
		return nil
	}
	if err := s.commitActiveLocked(); err != nil {
		return err
	}
	if s.dir != "" {
		tail := encodeSegmentTail(g)
		f, err := s.activeFileLocked()
		if err != nil {
			return err
		}
		_, werr := f.WriteAt(tail, int64(len(g.data)))
		cerr := s.closeActiveFileLocked()
		if werr != nil {
			return fmt.Errorf("stablestore: seal segment %d: %w", g.id, werr)
		}
		if cerr != nil {
			return cerr
		}
	}
	g.sealed = true
	s.segs = append(s.segs, g)
	s.stats.SegSealed++
	s.active = s.newActiveLocked()
	s.synced = 0
	return nil
}

// newActiveLocked opens a fresh active segment, reusing a recycled data
// buffer when one is available.
func (s *Segmented) newActiveLocked() *segment {
	g := newSegment(s.nextID, s.segBytes)
	s.nextID++
	if n := len(s.free); n > 0 {
		g.data = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	}
	return g
}

// freeLocked banks a retired segment's data buffer for reuse.
func (s *Segmented) freeLocked(g *segment) {
	if len(s.free) < 8 && cap(g.data) >= s.segBytes {
		s.free = append(s.free, g.data[:0])
		g.data = nil
	}
}

// Invalidate marks message records of key with seq <= through as garbage,
// maintaining each affected segment's liveness counter. Segments whose
// per-key max bound is above `through` already — and segments not holding
// the key at all — are skipped by bound comparison.
func (s *Segmented) Invalidate(key string, through uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev, had := s.invalid[key]
	if had && through <= prev {
		return
	}
	s.invalid[key] = through
	for _, g := range s.keySegs[key] {
		kr := g.keys[key]
		if kr == nil || kr.minSeq > through {
			continue
		}
		for i, q := range kr.seqs {
			if q <= through && (!had || q > prev) {
				if s.msgAtLocked(g, kr.ords[i]) {
					s.markDeadLocked(g, key, kr.ords[i])
				}
			}
		}
	}
}

// InvalidateSeqs marks specific (key, seq) message records as garbage. The
// per-segment min/max bounds prune the segment list before any run scan.
func (s *Segmented) InvalidateSeqs(key string, seqs []uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	set := s.invalidSeqs[key]
	if set == nil {
		set = make(map[uint64]bool)
		s.invalidSeqs[key] = set
	}
	fresh := seqs[:0:0]
	for _, q := range seqs {
		if !set[q] {
			set[q] = true
			fresh = append(fresh, q)
		}
	}
	if len(fresh) == 0 {
		return
	}
	for _, g := range s.keySegs[key] {
		kr := g.keys[key]
		if kr == nil {
			continue
		}
		for _, q := range fresh {
			if q < kr.minSeq || q > kr.maxSeq {
				continue
			}
			for i, have := range kr.seqs {
				if have == q && s.msgAtLocked(g, kr.ords[i]) {
					s.markDeadLocked(g, key, kr.ords[i])
				}
			}
		}
	}
}

// msgAtLocked reports whether the record at ord is a message (only message
// records die through invalidation — kind is the first encoded byte).
func (s *Segmented) msgAtLocked(g *segment, ord uint32) bool {
	return RecordKind(g.data[g.recOff[ord]]) == KindMessage
}

// Compact is checkpoint truncation plus the at-quiescence compactor: drop
// every sealed segment whose live count is zero (an O(segments) counter
// scan — no record is visited), then rewrite the single frontier segment —
// the oldest one still mixing dead and live records — so the truncation
// point keeps advancing. Returns the number of records reclaimed.
func (s *Segmented) Compact() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushLocked(); err != nil {
		return 0, err
	}
	dropped := 0
	kept := s.segs[:0]
	var frontier *segment
	for _, g := range s.segs {
		if g.live() == 0 {
			dropped += g.count()
			s.stats.Compacted += uint64(g.count())
			s.stats.SegDropped++
			s.reclaimLocked(g)
			s.unlinkSegLocked(g)
			s.freeLocked(g)
			continue
		}
		if frontier == nil && g.deadN > 0 {
			frontier = g
		}
		kept = append(kept, g)
	}
	for i := len(kept); i < len(s.segs); i++ {
		s.segs[i] = nil
	}
	s.segs = kept
	// The frontier: the oldest segment still mixing dead and live records.
	// With a fully-dead prefix dropped above, that is the one straddling
	// the truncation point; the still-mutable active segment counts when no
	// sealed segment qualifies (mirroring the paged engine, whose Compact
	// seals and rewrites the write buffer's page too).
	if frontier == nil && s.active.deadN > 0 {
		frontier = s.active
	}
	if frontier != nil {
		n, err := s.rewriteLocked(frontier)
		dropped += n
		if err != nil {
			return dropped, err
		}
	}
	return dropped, nil
}

// reclaimLocked moves a dropped segment's still-live byte accounting (meta
// and checkpoint records are never dead, but fully-dead segments hold none)
// and clears its dead-byte debt.
func (s *Segmented) reclaimLocked(g *segment) {
	for key, kr := range g.keys {
		for _, ord := range kr.ords {
			if g.isDead(ord) {
				payload := uint64(g.recSize(ord) - recHeaderLen - len(key))
				if s.stats.BytesDead >= payload {
					s.stats.BytesDead -= payload
				}
			}
		}
	}
}

// unlinkSegLocked removes g from every per-key segment list and from the
// meta trail.
func (s *Segmented) unlinkSegLocked(g *segment) {
	for key := range g.keys {
		segs := s.keySegs[key]
		for i, have := range segs {
			if have == g {
				s.keySegs[key] = append(segs[:i], segs[i+1:]...)
				break
			}
		}
		if len(s.keySegs[key]) == 0 {
			delete(s.keySegs, key)
		}
		if mt := s.metaSeen[key]; mt != nil && mt.seg == g {
			delete(s.metaSeen, key)
		}
	}
	if s.dir != "" {
		os.Remove(s.segPath(g.id))
	}
}

// rewriteLocked rebuilds the frontier segment in place with only its live
// records, preserving record order (and thus ReadAll's insertion order).
func (s *Segmented) rewriteLocked(g *segment) (int, error) {
	if s.writeFault != nil {
		if err := s.writeFault(); err != nil {
			s.stats.WriteFaults++
			return 0, fmt.Errorf("stablestore: injected write fault rewriting segment %d: %w", g.id, err)
		}
	}
	nw := &segment{
		id:     g.id,
		data:   make([]byte, 0, len(g.data)),
		recOff: []uint32{0},
		keys:   make(map[string]*keyRun),
		sealed: g.sealed,
	}
	// Walk records in ordinal order, rebuilding the index for survivors.
	ordKey := make([]string, g.count())
	ordSeq := make([]uint64, g.count())
	for key, kr := range g.keys {
		for i, ord := range kr.ords {
			ordKey[ord] = key
			ordSeq[ord] = kr.seqs[i]
		}
	}
	dropped := 0
	for ord := 0; ord < g.count(); ord++ {
		if g.isDead(uint32(ord)) {
			dropped++
			s.stats.Compacted++
			payload := uint64(g.recSize(uint32(ord)) - recHeaderLen - len(ordKey[ord]))
			if s.stats.BytesDead >= payload {
				s.stats.BytesDead -= payload
			}
			continue
		}
		nord := uint32(nw.count())
		nw.data = append(nw.data, g.data[g.recOff[ord]:g.recOff[ord+1]]...)
		nw.recOff = append(nw.recOff, uint32(len(nw.data)))
		kr := nw.run(ordKey[ord])
		kr.seqs = append(kr.seqs, ordSeq[ord])
		kr.ords = append(kr.ords, nord)
		if ordSeq[ord] < kr.minSeq {
			kr.minSeq = ordSeq[ord]
		}
		if ordSeq[ord] > kr.maxSeq {
			kr.maxSeq = ordSeq[ord]
		}
	}
	if dropped == 0 {
		return 0, nil
	}
	s.stats.SegRewrites++
	// Splice the rewritten segment into every structure pointing at g.
	if g == s.active {
		s.active = nw
	}
	for i, have := range s.segs {
		if have == g {
			s.segs[i] = nw
		}
	}
	for key := range g.keys {
		if _, still := nw.keys[key]; still {
			segs := s.keySegs[key]
			for i, have := range segs {
				if have == g {
					segs[i] = nw
				}
			}
		} else {
			segs := s.keySegs[key]
			for i, have := range segs {
				if have == g {
					s.keySegs[key] = append(segs[:i], segs[i+1:]...)
					break
				}
			}
			if len(s.keySegs[key]) == 0 {
				delete(s.keySegs, key)
			}
		}
		if mt := s.metaSeen[key]; mt != nil && mt.seg == g {
			// Re-locate the ordinal of the surviving latest revision.
			delete(s.metaSeen, key)
			if kr := nw.keys[key]; kr != nil {
				for i, q := range kr.seqs {
					if q == mt.seq {
						s.metaSeen[key] = &metaTrail{seq: q, seg: nw, ord: kr.ords[i]}
					}
				}
			}
		}
	}
	if s.dir != "" {
		if !nw.sealed {
			// The old handle would point at the replaced inode.
			if err := s.closeActiveFileLocked(); err != nil {
				return dropped, err
			}
		}
		if !nw.sealed && nw.count() == 0 {
			// The active segment drained completely; drop its file.
			os.Remove(s.segPath(nw.id))
			s.synced = 0
			return dropped, nil
		}
		body := append([]byte(nil), nw.data...)
		if nw.sealed {
			body = append(body, encodeSegmentTail(nw)...)
		}
		tmp := s.segPath(nw.id) + ".rw"
		if err := os.WriteFile(tmp, body, 0o644); err != nil {
			return dropped, err
		}
		if err := os.Rename(tmp, s.segPath(nw.id)); err != nil {
			return dropped, err
		}
	}
	if !nw.sealed {
		s.synced = len(nw.data)
	}
	return dropped, nil
}

// ReadAll returns every stored record in insertion order: sealed segments
// in id order, then the active segment. Garbage-marked records not yet
// reclaimed are included, exactly like the paged engine — the rebuild drops
// them through checkpoint metadata, not store filtering.
func (s *Segmented) ReadAll() ([]Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Record
	for _, g := range s.segs {
		recs, err := decodeRecords(g.data)
		if err != nil {
			return nil, fmt.Errorf("segment %d: %w", g.id, err)
		}
		out = append(out, recs...)
	}
	recs, err := decodeRecords(s.active.data)
	if err != nil {
		return nil, fmt.Errorf("segment %d: %w", s.active.id, err)
	}
	return append(out, recs...), nil
}

// ReadKey returns key's records in seq order. The per-key segment list and
// each segment's index run resolve the records directly — no page chain
// walk, no full decode of unrelated records.
func (s *Segmented) ReadKey(key string) ([]Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Record
	for _, g := range s.keySegs[key] {
		kr := g.keys[key]
		for _, ord := range kr.ords {
			rec, _, err := decodeOne(g.data[g.recOff[ord]:g.recOff[ord+1]])
			if err != nil {
				return nil, fmt.Errorf("segment %d ord %d: %w", g.id, ord, err)
			}
			out = append(out, rec)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// Pages returns the storage footprint in segments (sealed plus a non-empty
// active segment) — the segmented analogue of the paged engine's page count.
func (s *Segmented) Pages() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.segs)
	if s.active.count() > 0 {
		n++
	}
	return n
}

// Stats returns a copy of the counters.
func (s *Segmented) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Segments = uint64(len(s.segs))
	if s.active.count() > 0 {
		st.Segments++
	}
	return st
}

// SetWriteFault installs (or removes) the fault hook consulted before every
// group commit, seal, and frontier rewrite.
func (s *Segmented) SetWriteFault(fn func() error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writeFault = fn
}

// SetBatchObserver implements BatchObserver: fn receives each group
// commit's record count (the recorder points it at a histogram).
func (s *Segmented) SetBatchObserver(fn func(int)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batchObs = fn
}

// Close group-commits pending records and seals the active segment, so a
// file-backed store reopens from sealed segments only. Sealed segments that
// gained garbage marks since their tail reached disk get their liveness
// manifest rewritten, so a clean shutdown hands the next open a fully
// current dead bitmap.
func (s *Segmented) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushLocked(); err != nil {
		return err
	}
	if err := s.sealLocked(); err != nil {
		return err
	}
	for _, g := range s.segs {
		if !g.manifestStale {
			continue
		}
		if err := s.rewriteSegmentFileLocked(g); err != nil {
			return err
		}
		g.manifestStale = false
	}
	return s.closeActiveFileLocked()
}

// rewriteSegmentFileLocked atomically replaces g's file with its current
// in-memory image (records plus a fresh tail).
func (s *Segmented) rewriteSegmentFileLocked(g *segment) error {
	body := append(append([]byte(nil), g.data...), encodeSegmentTail(g)...)
	tmp := s.segPath(g.id) + ".rw"
	if err := os.WriteFile(tmp, body, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, s.segPath(g.id))
}

func (s *Segmented) segPath(id uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("seg-%08d.seg", id))
}

// --- file format -----------------------------------------------------------
//
// A sealed segment file is
//
//	records | index | footer
//
// where records are back-to-back encoded Records (the page codec without
// padding), the index is the recOff table, per-key (seq, ord) runs, and a
// liveness manifest (live count + dead bitmap), and the 40-byte footer
// carries lengths, counts, CRCs over both regions, and a magic. A file
// without a valid footer (torn write: the process died mid-commit) is
// recovered by scanning records from the start and keeping the longest
// valid prefix — the classic log-recovery discipline.
//
// The manifest makes garbage marks durable at seal/Close time: OpenSegmented
// decodes it and skips dead records outright — no per-record decode, no
// index entries, no re-encoded bytes — which is where the segmented engine's
// reopen penalty over the paged engine went (see BENCH_store.json). A crash
// before Close leaves sealed segments' manifests stale (missing marks made
// after seal); that only resurrects records the recorder's rebuild re-drops
// through checkpoint metadata, exactly as all garbage marks behaved before
// the manifest existed.

const (
	segMagic      = 0x5055425345473031 // "PUBSEG01"
	segVersion    = 2                  // v2 added the liveness manifest to the index block
	segFooterSize = 8 + 8 + 4 + 4 + 4 + 4 + 8
)

// encodeSegmentTail serializes g's index block (offsets, key runs, liveness
// manifest) and footer.
func encodeSegmentTail(g *segment) []byte {
	var idx []byte
	var tmp [8]byte
	for _, off := range g.recOff {
		binary.BigEndian.PutUint32(tmp[:4], off)
		idx = append(idx, tmp[:4]...)
	}
	keys := make([]string, 0, len(g.keys))
	for k := range g.keys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	binary.BigEndian.PutUint32(tmp[:4], uint32(len(keys)))
	idx = append(idx, tmp[:4]...)
	for _, k := range keys {
		kr := g.keys[k]
		binary.BigEndian.PutUint16(tmp[:2], uint16(len(k)))
		idx = append(idx, tmp[:2]...)
		idx = append(idx, k...)
		binary.BigEndian.PutUint32(tmp[:4], uint32(len(kr.ords)))
		idx = append(idx, tmp[:4]...)
		for i := range kr.ords {
			binary.BigEndian.PutUint64(tmp[:8], kr.seqs[i])
			idx = append(idx, tmp[:8]...)
			binary.BigEndian.PutUint32(tmp[:4], kr.ords[i])
			idx = append(idx, tmp[:4]...)
		}
	}
	// Liveness manifest: live count, then the dead bitmap padded (or
	// truncated — markDead grows it lazily) to exactly ceil(count/64) words.
	words := (g.count() + 63) / 64
	binary.BigEndian.PutUint32(tmp[:4], uint32(g.live()))
	idx = append(idx, tmp[:4]...)
	binary.BigEndian.PutUint32(tmp[:4], uint32(words))
	idx = append(idx, tmp[:4]...)
	for w := 0; w < words; w++ {
		var v uint64
		if w < len(g.dead) {
			v = g.dead[w]
		}
		binary.BigEndian.PutUint64(tmp[:8], v)
		idx = append(idx, tmp[:8]...)
	}
	foot := make([]byte, segFooterSize)
	binary.BigEndian.PutUint64(foot[0:8], uint64(len(g.data)))
	binary.BigEndian.PutUint64(foot[8:16], uint64(len(idx)))
	binary.BigEndian.PutUint32(foot[16:20], uint32(g.count()))
	binary.BigEndian.PutUint32(foot[20:24], crc32.ChecksumIEEE(g.data))
	binary.BigEndian.PutUint32(foot[24:28], crc32.ChecksumIEEE(idx))
	binary.BigEndian.PutUint32(foot[28:32], segVersion)
	binary.BigEndian.PutUint64(foot[32:40], segMagic)
	return append(idx, foot...)
}

var errSegmentIndex = errors.New("stablestore: segment index corrupt")

// footerFits reports whether a footer's data and index lengths account for
// exactly the size-byte image the footer ends. Each length is bounded before
// they are added: they are 64-bit fields read from disk, and a damaged pair
// can sum, wrapped, to the right size.
func footerFits(dataLen, idxLen uint64, size int) bool {
	n := uint64(size)
	return dataLen <= n && idxLen <= n && dataLen+idxLen+segFooterSize == n
}

// decodeSegment parses one segment file image. Sealed images (valid footer,
// CRCs matching over data and index) decode through the index; anything
// else — torn tail, truncated index, corrupt data written after the index
// reached disk — falls back to a prefix scan of the record region, which
// keeps every record up to the first damage. The returned records always
// re-encode to a decodable image (the fuzz target's round-trip property).
func decodeSegment(b []byte) (recs []Record, sealed bool, err error) {
	if len(b) >= segFooterSize {
		foot := b[len(b)-segFooterSize:]
		magic := binary.BigEndian.Uint64(foot[32:40])
		version := binary.BigEndian.Uint32(foot[28:32])
		if magic == segMagic && version == segVersion {
			dataLen := binary.BigEndian.Uint64(foot[0:8])
			idxLen := binary.BigEndian.Uint64(foot[8:16])
			count := binary.BigEndian.Uint32(foot[16:20])
			if footerFits(dataLen, idxLen, len(b)) {
				data := b[:dataLen]
				idx := b[dataLen : dataLen+idxLen]
				if crc32.ChecksumIEEE(data) == binary.BigEndian.Uint32(foot[20:24]) &&
					crc32.ChecksumIEEE(idx) == binary.BigEndian.Uint32(foot[24:28]) {
					recs, err := decodeRecords(data)
					if err == nil && len(recs) == int(count) {
						return recs, true, nil
					}
					// CRC-clean but inconsistent: treat as torn.
				}
			}
		}
	}
	return scanRecords(b), false, nil
}

// segIndex is a sealed segment file's parsed index block: everything
// OpenSegmented needs to rebuild the in-memory segment without decoding a
// single record.
type segIndex struct {
	data   []byte   // record region (aliases the file image)
	recOff []uint32 // count+1 offsets
	ordKey []string // per-ordinal key, from the runs
	ordSeq []uint64 // per-ordinal seq, from the runs
	dead   []uint64 // liveness manifest bitmap
	live   int      // records not marked dead at seal/Close time
}

func (x *segIndex) isDead(ord int) bool {
	return x.dead[ord/64]&(1<<(ord%64)) != 0
}

// decodeSegmentIndex parses b's index block if b is a well-formed sealed v2
// image. It is stricter than decodeSegment: beyond both CRCs it requires a
// monotone offset table covering the data region exactly, every ordinal
// indexed by exactly one key run, and a manifest that agrees with its own
// bitmap — anything less returns nil and the caller takes the record-scan
// path. CRC-clean-but-inconsistent images only arise from corruption the
// CRC missed or an adversarial writer; falling back is always safe because
// the scan path re-derives everything from the records themselves.
func decodeSegmentIndex(b []byte) *segIndex {
	if len(b) < segFooterSize {
		return nil
	}
	foot := b[len(b)-segFooterSize:]
	if binary.BigEndian.Uint64(foot[32:40]) != segMagic ||
		binary.BigEndian.Uint32(foot[28:32]) != segVersion {
		return nil
	}
	dataLen := binary.BigEndian.Uint64(foot[0:8])
	idxLen := binary.BigEndian.Uint64(foot[8:16])
	count := int(binary.BigEndian.Uint32(foot[16:20]))
	if !footerFits(dataLen, idxLen, len(b)) {
		return nil
	}
	data := b[:dataLen]
	idx := b[dataLen : dataLen+idxLen]
	if crc32.ChecksumIEEE(data) != binary.BigEndian.Uint32(foot[20:24]) ||
		crc32.ChecksumIEEE(idx) != binary.BigEndian.Uint32(foot[24:28]) {
		return nil
	}

	// Cursor-style reads; every length is validated before use.
	u16 := func() (uint16, bool) {
		if len(idx) < 2 {
			return 0, false
		}
		v := binary.BigEndian.Uint16(idx)
		idx = idx[2:]
		return v, true
	}
	u32 := func() (uint32, bool) {
		if len(idx) < 4 {
			return 0, false
		}
		v := binary.BigEndian.Uint32(idx)
		idx = idx[4:]
		return v, true
	}
	u64 := func() (uint64, bool) {
		if len(idx) < 8 {
			return 0, false
		}
		v := binary.BigEndian.Uint64(idx)
		idx = idx[8:]
		return v, true
	}

	x := &segIndex{data: data, recOff: make([]uint32, 0, count+1)}
	prev := uint32(0)
	for i := 0; i <= count; i++ {
		off, ok := u32()
		if !ok || off < prev || uint64(off) > dataLen {
			return nil
		}
		x.recOff = append(x.recOff, off)
		prev = off
	}
	if x.recOff[0] != 0 || uint64(x.recOff[count]) != dataLen {
		return nil
	}

	nKeys, ok := u32()
	if !ok {
		return nil
	}
	x.ordKey = make([]string, count)
	x.ordSeq = make([]uint64, count)
	seen := make([]bool, count)
	for k := uint32(0); k < nKeys; k++ {
		klen, ok := u16()
		if !ok || len(idx) < int(klen) {
			return nil
		}
		key := string(idx[:klen])
		idx = idx[klen:]
		runLen, ok := u32()
		if !ok {
			return nil
		}
		for i := uint32(0); i < runLen; i++ {
			seq, ok1 := u64()
			ord, ok2 := u32()
			if !ok1 || !ok2 || int(ord) >= count || seen[ord] {
				return nil
			}
			seen[ord] = true
			x.ordKey[ord] = key
			x.ordSeq[ord] = seq
		}
	}
	for _, s := range seen {
		if !s {
			return nil
		}
	}

	liveN, ok1 := u32()
	words, ok2 := u32()
	if !ok1 || !ok2 || int(words) != (count+63)/64 || len(idx) != int(words)*8 {
		return nil
	}
	x.dead = make([]uint64, words)
	deadN := 0
	for w := range x.dead {
		v, _ := u64()
		x.dead[w] = v
		deadN += bits.OnesCount64(v)
	}
	if deadN != count-int(liveN) {
		return nil
	}
	if r := count % 64; r != 0 && x.dead[words-1]>>r != 0 {
		return nil // dead bits past the last ordinal
	}
	x.live = int(liveN)
	return x
}

// scanRecords keeps the longest decodable record prefix of b.
func scanRecords(b []byte) []Record {
	var out []Record
	for len(b) > 0 {
		rec, n, err := decodeOne(b)
		if err != nil || n == 0 {
			break
		}
		out = append(out, rec)
		b = b[n:]
	}
	return out
}

// openMetaLocked applies the meta revision-shadowing rule while loading
// records at open: the newest revision per key survives, every other one is
// marked dead (possibly in an earlier segment loaded minutes ago).
func (s *Segmented) openMetaLocked(key string, seq uint64, g *segment, ord uint32) {
	switch mt := s.metaSeen[key]; {
	case mt == nil:
		s.metaSeen[key] = &metaTrail{seq: seq, seg: g, ord: ord}
	case seq >= mt.seq:
		s.markDeadLocked(mt.seg, key, mt.ord)
		mt.seq, mt.seg, mt.ord = seq, g, ord
	default:
		s.markDeadLocked(g, key, ord)
	}
}

// OpenSegmented opens (or creates) a file-backed segmented store rooted at
// dir. Sealed segments load through their self-describing index, and the
// liveness manifest drops records invalidated before the last seal/Close
// without decoding them; a torn segment (the active one at crash time) is
// recovered to its longest valid record prefix, truncated, and re-sealed —
// §4.5's "rebuild the data base from the disk" applied to the log itself.
// Garbage marks made after a segment's manifest last reached disk are
// volatile, exactly like the paged engine's Open: such records resurrect
// and are re-dropped by the recorder's rebuild through checkpoint metadata.
func OpenSegmented(dir string, segBytes int) (*Segmented, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := NewSegmented(segBytes)
	s.dir = dir
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		var id uint64
		if _, err := fmt.Sscanf(filepath.Base(name), "seg-%d.seg", &id); err != nil {
			continue
		}
		var g *segment
		if x := decodeSegmentIndex(b); x != nil {
			// Fast path: rebuild from the index alone. Live records' bytes
			// are copied wholesale (they were encoded by this engine, so the
			// raw bytes ARE the canonical encoding); dead records cost one
			// bitmap test each — no decode, no index entry, no key alloc.
			if x.live == 0 {
				os.Remove(name)
				continue
			}
			g = newSegment(id, 0)
			for ord := 0; ord < len(x.ordKey); ord++ {
				if x.isDead(ord) {
					continue
				}
				raw := x.data[x.recOff[ord]:x.recOff[ord+1]]
				key, seq := x.ordKey[ord], x.ordSeq[ord]
				s.stats.BytesLive += uint64(len(raw) - recHeaderLen - len(key))
				nord := uint32(g.count())
				g.data = append(g.data, raw...)
				g.recOff = append(g.recOff, uint32(len(g.data)))
				kr := g.run(key)
				kr.seqs = append(kr.seqs, seq)
				kr.ords = append(kr.ords, nord)
				if seq < kr.minSeq {
					kr.minSeq = seq
				}
				if seq > kr.maxSeq {
					kr.maxSeq = seq
				}
				s.indexSegLocked(key, g)
				if RecordKind(raw[0]) == KindMeta {
					s.openMetaLocked(key, seq, g, nord)
				}
			}
		} else {
			recs, _, _ := decodeSegment(b)
			if len(recs) == 0 {
				os.Remove(name)
				continue
			}
			g = newSegment(id, 0)
			for _, r := range recs {
				r := r
				s.stats.BytesLive += uint64(len(r.Data))
				ord := uint32(g.count())
				g.data = appendRecord(g.data, &r)
				g.recOff = append(g.recOff, uint32(len(g.data)))
				kr := g.run(r.Key)
				kr.seqs = append(kr.seqs, r.Seq)
				kr.ords = append(kr.ords, ord)
				if r.Seq < kr.minSeq {
					kr.minSeq = r.Seq
				}
				if r.Seq > kr.maxSeq {
					kr.maxSeq = r.Seq
				}
				s.indexSegLocked(r.Key, g)
				if r.Kind == KindMeta {
					s.openMetaLocked(r.Key, r.Seq, g, ord)
				}
			}
			// Torn tail: truncate the file to the valid prefix and re-seal
			// it so the next open is index-fast.
			body := append(append([]byte(nil), g.data...), encodeSegmentTail(g)...)
			if err := os.WriteFile(name, body, 0o644); err != nil {
				return nil, err
			}
		}
		g.sealed = true
		s.segs = append(s.segs, g)
		if id >= s.nextID {
			s.nextID = id + 1
		}
	}
	s.active = newSegment(s.nextID, s.segBytes)
	s.nextID++
	s.synced = 0
	return s, nil
}

// Package stablestore implements the recorder's reliable non-volatile
// storage (§3.3.1, §4.5): an append-oriented paged store for published
// messages and checkpoints with the exact disk discipline the thesis
// describes — "As messages are received they are timestamped and buffered
// ... When the buffer is full it is written to disk. Before allocating a
// buffer to a disk page, the disk page is read in. Any messages that are no
// longer valid are removed and the buffer is compacted."
//
// Paged is the one engine: 4 KB pages, a per-key page index, oversized
// records (checkpoints) on contiguous page chains, and lazy in-place
// compaction. It exists in-memory (simulations, modelling a disk that
// survives recorder crashes) and file-backed (cmd/starhub), and the
// recorder rebuilds its process database purely from its records ("If the
// recorder crashes, it is possible to rebuild the data base from the disk",
// §4.5).
package stablestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
)

// PageSize is the disk page / write buffer size. §5.1 removes the disk
// saturation "by allowing messages to be written out in 4k byte buffers
// rather than forcing one disk write per message".
const PageSize = 4096

// RecordKind tags stored records.
type RecordKind uint8

const (
	// KindMessage is a published message.
	KindMessage RecordKind = iota + 1
	// KindCheckpoint is a process checkpoint.
	KindCheckpoint
	// KindMeta is recorder metadata (restart counter, process notes).
	KindMeta
)

// Record is one stored item.
type Record struct {
	Kind RecordKind
	// Key groups records (by convention the process id string).
	Key string
	// Seq orders records within a key.
	Seq uint64
	// Data is the payload.
	Data []byte
}

// size returns the number of bytes appendRecord writes for r.
func (r *Record) size() int {
	return 1 + 2 + len(r.Key) + 8 + 4 + len(r.Data)
}

var errCorruptPage = errors.New("stablestore: corrupt page")

// appendRecord flat-encodes r onto dst: kind, key length and key, seq, data
// length and data, big-endian. It is the one record encoder — Append and the
// compactor write through it — and decodeOne is its inverse.
func appendRecord(dst []byte, r *Record) []byte {
	dst = append(dst, byte(r.Kind))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(r.Key)))
	dst = append(dst, r.Key...)
	dst = binary.BigEndian.AppendUint64(dst, r.Seq)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Data)))
	return append(dst, r.Data...)
}

// decodeOne parses the record at the head of b, returning it and its
// encoded length. A leading zero byte (page padding) returns n == 0 with a
// nil error.
func decodeOne(b []byte) (Record, int, error) {
	if len(b) == 0 || b[0] == 0 {
		return Record{}, 0, nil
	}
	if len(b) < 3 {
		return Record{}, 0, errCorruptPage
	}
	kind := RecordKind(b[0])
	kl := int(binary.BigEndian.Uint16(b[1:3]))
	if len(b) < 3+kl+12 {
		return Record{}, 0, errCorruptPage
	}
	key := string(b[3 : 3+kl])
	seq := binary.BigEndian.Uint64(b[3+kl : 3+kl+8])
	dl := int(binary.BigEndian.Uint32(b[3+kl+8 : 3+kl+12]))
	n := 3 + kl + 12 + dl
	if len(b) < n {
		return Record{}, 0, errCorruptPage
	}
	data := append([]byte(nil), b[3+kl+12:n]...)
	return Record{Kind: kind, Key: key, Seq: seq, Data: data}, n, nil
}

func decodeRecords(b []byte) ([]Record, error) {
	var out []Record
	for len(b) > 0 {
		rec, n, err := decodeOne(b)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			break // zero padding: end of page
		}
		b = b[n:]
		out = append(out, rec)
	}
	return out, nil
}

// Stats counts store activity, feeding the recorder-disk utilization model.
type Stats struct {
	Appends     uint64
	PageWrites  uint64
	PageReads   uint64
	Compacted   uint64 // records dropped by compaction/truncation
	BytesLive   uint64
	WriteFaults uint64 // page writes failed by the injected fault hook
}

// Config locates a store's file backing.
type Config struct {
	// Path is the page file; empty means in-memory.
	Path string
}

// NewStore opens the page file at cfg.Path, or returns an in-memory store.
func NewStore(cfg Config) (*Paged, error) {
	if cfg.Path != "" {
		return Open(cfg.Path)
	}
	return New(), nil
}

// Paged is the thesis-exact paged stable store. It is safe for concurrent
// use (the starhub server runs it from multiple connections); simulations
// call it single-threaded.
type Paged struct {
	mu    sync.Mutex
	pages map[uint64][]byte // pageID -> encoded page (PageSize)
	next  uint64
	// cur is the current write buffer (an unflushed page): records are
	// encoded in place into pages[curPage], and len(cur) is how much of that
	// page is filled. Sealing it is a logical page write, not a copy.
	cur     []byte
	curPage uint64
	// invalid marks (key, seq<=) pairs whose message records may be dropped
	// at the next compaction of their page.
	invalid map[string]uint64
	// invalidSeqs marks individual (key, seq) records as garbage — needed
	// because channel reads can consume messages out of arrival order, so a
	// checkpoint may invalidate a non-prefix subset of a stream.
	invalidSeqs map[string]map[uint64]bool
	// chains maps the first page of an oversized record (checkpoints) to
	// its continuation pages; chainSet holds every page of every chain
	// (including firsts) for O(1) membership tests.
	chains   map[uint64][]uint64
	chainSet map[uint64]bool
	// keyPages indexes which pages hold records of each key (chains by
	// their first page), so ReadKey and Compact visit only relevant pages
	// instead of scanning the whole store.
	keyPages map[string][]uint64
	// dirty holds page ids whose in-memory content is newer than the file
	// backing. Physical WriteAt is batched to Flush/Close/Compact — the
	// §5.1 buffering discipline extended to page syncs — while
	// Stats.PageWrites keeps counting logical page writes for the disk
	// utilization model.
	dirty map[uint64]bool
	stats Stats
	// writeFault, when set, is consulted before every logical page write; a
	// non-nil return fails the write. Fault-injection hook for tests — the
	// recorder itself treats stable-storage failure as beyond the paper's
	// fault model (TMR'd, battery-backed disks, §3.3.4) and panics, so live
	// chaos runs inject at the tap instead.
	writeFault func() error

	// file backing, optional.
	f *os.File
}

// New returns an in-memory paged store.
func New() *Paged {
	return &Paged{
		pages:    make(map[uint64][]byte),
		invalid:  make(map[string]uint64),
		keyPages: make(map[string][]uint64),
	}
}

// Open returns a file-backed store, loading any existing pages from path.
func Open(path string) (*Paged, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	s := New()
	s.f = f
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	n := info.Size() / PageSize
	for i := int64(0); i < n; i++ {
		page := make([]byte, PageSize)
		if _, err := f.ReadAt(page, i*PageSize); err != nil {
			f.Close()
			return nil, err
		}
		s.pages[uint64(i)] = page
	}
	s.next = uint64(n)
	if err := s.rebuildIndexLocked(); err != nil {
		f.Close()
		return nil, fmt.Errorf("stablestore: open %s: %w", path, err)
	}
	return s, nil
}

// rebuildIndexLocked reconstructs the volatile chain and key indexes from
// raw pages after Open. Chains must be re-derived or a reopened store would
// try to decode an oversized record's first page as a self-contained page
// and fail: a first page is recognizable because its first record's encoded
// length exceeds the page, and its continuations are the immediately
// following pages (Append allocates them contiguously). Every page and chain
// is decoded here, so a store that opens reads back whole: a chain that runs
// past the last page or a page that does not decode fails Open instead of
// leaving its records out of the key index.
func (s *Paged) rebuildIndexLocked() error {
	for id := uint64(0); id < s.next; {
		page := s.pages[id]
		npages := uint64(1)
		if total, ok := recordLen(page); ok && total > PageSize {
			// Oversized record: claim ceil(total/PageSize) contiguous pages.
			npages = uint64((total + PageSize - 1) / PageSize)
			if id+npages > s.next {
				return fmt.Errorf("chain %d claims %d pages, file has %d: %w", id, npages, s.next, errCorruptPage)
			}
			var whole bytes.Buffer
			for p := id; p < id+npages; p++ {
				s.oversize(id, p)
				whole.Write(s.pages[p])
			}
			page = whole.Bytes()
		}
		recs, err := decodeRecords(page)
		if err != nil {
			return fmt.Errorf("page %d: %w", id, err)
		}
		for i := range recs {
			s.indexKeyLocked(recs[i].Key, id)
		}
		id += npages
	}
	return nil
}

// recordLen returns the total encoded length of the first record on a page
// from its header, without materializing the payload. ok is false for an
// empty page or a header that does not fit on the page.
func recordLen(b []byte) (total int, ok bool) {
	if len(b) < 3 || b[0] == 0 {
		return 0, false
	}
	kl := int(binary.BigEndian.Uint16(b[1:3]))
	if len(b) < 3+kl+12 {
		return 0, false
	}
	dl := int(binary.BigEndian.Uint32(b[3+kl+8 : 3+kl+12]))
	return 1 + 2 + kl + 8 + 4 + dl, true
}

// indexKeyLocked records that page id holds records of key (dedupes the
// common case of consecutive appends landing on the same buffer page).
func (s *Paged) indexKeyLocked(key string, id uint64) {
	ids := s.keyPages[key]
	if n := len(ids); n > 0 && ids[n-1] == id {
		return
	}
	s.keyPages[key] = append(ids, id)
}

// dropKeyPageLocked removes page id from key's index (compaction dropped
// the key's last record on that page).
func (s *Paged) dropKeyPageLocked(key string, id uint64) {
	ids := s.keyPages[key]
	for i, p := range ids {
		if p == id {
			s.keyPages[key] = append(ids[:i], ids[i+1:]...)
			return
		}
	}
}

// Close releases the file backing, if any.
func (s *Paged) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushLocked(); err != nil {
		return err
	}
	if err := s.syncLocked(); err != nil {
		return err
	}
	if s.f != nil {
		err := s.f.Close()
		s.f = nil
		return err
	}
	return nil
}

// Stats returns a copy of the counters.
func (s *Paged) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// SetWriteFault installs (or, with nil, removes) a fault hook consulted
// before every logical page write; a non-nil return error fails the write.
// The hook runs with the store lock held and must not call back into the
// store.
func (s *Paged) SetWriteFault(fn func() error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writeFault = fn
}

// Append stores a record, returning the page it lands on. Records larger
// than a page are split across dedicated pages transparently on read; for
// simplicity here they get a page of their own (checkpoints are the only
// large records).
func (s *Paged) Append(r Record) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Appends++
	s.stats.BytesLive += uint64(len(r.Data))

	n := r.size()
	if n > PageSize {
		// Oversized record: dedicated page sequence.
		first := uint64(0)
		data := appendRecord(make([]byte, 0, n), &r)
		for i := 0; i < len(data); i += PageSize {
			end := i + PageSize
			if end > len(data) {
				end = len(data)
			}
			page := make([]byte, PageSize)
			copy(page, data[i:end])
			id := s.allocLocked()
			if i == 0 {
				first = id
			}
			// Oversized pages are marked by a continuation map entry.
			s.pages[id] = page
			s.oversize(first, id)
			if err := s.writePageLocked(id); err != nil {
				return 0, err
			}
		}
		s.indexKeyLocked(r.Key, first)
		return first, nil
	}

	if len(s.cur)+n > PageSize {
		if err := s.flushLocked(); err != nil {
			return 0, err
		}
	}
	if len(s.cur) == 0 {
		s.curPage = s.allocLocked()
		s.cur = make([]byte, 0, PageSize)
		s.pages[s.curPage] = s.cur[:PageSize]
	}
	s.cur = appendRecord(s.cur, &r) // fits: never reallocates off the page
	s.indexKeyLocked(r.Key, s.curPage)
	return s.curPage, nil
}

func (s *Paged) oversize(first, page uint64) {
	if s.chains == nil {
		s.chains = make(map[uint64][]uint64)
		s.chainSet = make(map[uint64]bool)
	}
	if page != first {
		s.chains[first] = append(s.chains[first], page)
	} else if _, ok := s.chains[first]; !ok {
		s.chains[first] = nil
	}
	s.chainSet[page] = true
}

// Flush forces the current write buffer — and every dirty page — to disk.
// The recorder calls it before acknowledging a message (§3.3.4: the
// acknowledgement "is given only after the message has been reliably
// stored") — or batches it, which is the 4 KB-buffer optimization of §5.1.
func (s *Paged) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushLocked(); err != nil {
		return err
	}
	return s.syncLocked()
}

// flushLocked seals the current write buffer into its page. The page is
// only marked dirty; physical writes batch up until syncLocked.
func (s *Paged) flushLocked() error {
	if len(s.cur) == 0 {
		return nil
	}
	s.cur = nil
	return s.writePageLocked(s.curPage)
}

// writePageLocked records a logical page write. The physical WriteAt is
// deferred: dirty pages are synced together at the next Flush/Close/Compact
// boundary, so a burst of appends costs one syscall pass instead of one per
// page write.
func (s *Paged) writePageLocked(id uint64) error {
	if s.writeFault != nil {
		if err := s.writeFault(); err != nil {
			s.stats.WriteFaults++
			return fmt.Errorf("stablestore: injected write fault on page %d: %w", id, err)
		}
	}
	s.stats.PageWrites++
	if s.f == nil {
		return nil
	}
	if s.dirty == nil {
		s.dirty = make(map[uint64]bool)
	}
	s.dirty[id] = true
	return nil
}

// syncLocked writes every dirty page to the file backing, in page order.
func (s *Paged) syncLocked() error {
	if s.f == nil || len(s.dirty) == 0 {
		return nil
	}
	ids := make([]uint64, 0, len(s.dirty))
	for id := range s.dirty {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if _, err := s.f.WriteAt(s.pages[id], int64(id)*PageSize); err != nil {
			return fmt.Errorf("stablestore: write page %d: %w", id, err)
		}
		delete(s.dirty, id)
	}
	return nil
}

func (s *Paged) allocLocked() uint64 {
	id := s.next
	s.next++
	return id
}

// Invalidate marks message records of key with seq <= through as garbage;
// compaction reclaims them lazily ("Any messages that are no longer valid
// are removed and the buffer is compacted", §4.5). The recorder calls this
// after a checkpoint supersedes old messages (§3.3.1).
func (s *Paged) Invalidate(key string, through uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.invalid[key]; !ok || through > cur {
		s.invalid[key] = through
	}
}

// InvalidateSeqs marks specific (key, seq) message records as garbage.
func (s *Paged) InvalidateSeqs(key string, seqs []uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.invalidSeqs == nil {
		s.invalidSeqs = make(map[string]map[uint64]bool)
	}
	set := s.invalidSeqs[key]
	if set == nil {
		set = make(map[uint64]bool)
		s.invalidSeqs[key] = set
	}
	for _, q := range seqs {
		set[q] = true
	}
}

// dead reports whether a message record is invalidated.
func (s *Paged) dead(r *Record) bool {
	if r.Kind != KindMessage {
		return false
	}
	if through, ok := s.invalid[r.Key]; ok && r.Seq <= through {
		return true
	}
	return s.invalidSeqs[r.Key][r.Seq]
}

// Compact rewrites pages holding invalidated message records, dropping
// them. Only pages indexed under a key with invalidations are visited —
// compaction cost scales with the garbage, not the store. It returns the
// number of records dropped.
func (s *Paged) Compact() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushLocked(); err != nil {
		return 0, err
	}
	// Candidate pages: every page of every key with a pending invalidation.
	cand := make(map[uint64]bool)
	for key := range s.invalid {
		for _, id := range s.keyPages[key] {
			cand[id] = true
		}
	}
	for key := range s.invalidSeqs {
		for _, id := range s.keyPages[key] {
			cand[id] = true
		}
	}
	ids := make([]uint64, 0, len(cand))
	for id := range cand {
		if !s.isChainPage(id) {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	dropped := 0
	for _, id := range ids {
		recs, err := decodeRecords(s.pages[id])
		if err != nil {
			return dropped, err
		}
		var keep []Record
		changed := false
		for _, r := range recs {
			r := r
			if s.dead(&r) {
				dropped++
				changed = true
				s.stats.Compacted++
				if s.stats.BytesLive >= uint64(len(r.Data)) {
					s.stats.BytesLive -= uint64(len(r.Data))
				}
				continue
			}
			keep = append(keep, r)
		}
		if !changed {
			continue
		}
		newPage := make([]byte, 0, PageSize)
		kept := make(map[string]bool, len(keep))
		for i := range keep {
			newPage = appendRecord(newPage, &keep[i])
			kept[keep[i].Key] = true
		}
		// Keys whose last record on this page was dropped leave the index.
		for _, r := range recs {
			if !kept[r.Key] {
				s.dropKeyPageLocked(r.Key, id)
			}
		}
		s.pages[id] = newPage[:PageSize]
		if err := s.writePageLocked(id); err != nil {
			return dropped, err
		}
	}
	if err := s.syncLocked(); err != nil {
		return dropped, err
	}
	return dropped, nil
}

func (s *Paged) isChainPage(id uint64) bool { return s.chainSet[id] }

// ReadAll returns every live record, ordered by (key, seq, insertion). The
// recorder uses it to rebuild its database after a crash (§3.3.4, §4.5).
func (s *Paged) ReadAll() ([]Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushLocked(); err != nil {
		return nil, err
	}
	var out []Record

	// Regular pages, in page order (which is insertion order).
	ids := make([]uint64, 0, len(s.pages))
	for id := range s.pages {
		if !s.isChainPage(id) {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		s.stats.PageReads++
		recs, err := decodeRecords(s.pages[id])
		if err != nil {
			return nil, fmt.Errorf("page %d: %w", id, err)
		}
		out = append(out, recs...)
	}

	// Oversized chains.
	firsts := make([]uint64, 0, len(s.chains))
	for f := range s.chains {
		firsts = append(firsts, f)
	}
	sort.Slice(firsts, func(i, j int) bool { return firsts[i] < firsts[j] })
	for _, f := range firsts {
		var whole bytes.Buffer
		whole.Write(s.pages[f])
		for _, p := range s.chains[f] {
			whole.Write(s.pages[p])
		}
		s.stats.PageReads += uint64(1 + len(s.chains[f]))
		recs, err := decodeRecords(whole.Bytes())
		if err != nil {
			return nil, fmt.Errorf("chain %d: %w", f, err)
		}
		out = append(out, recs...)
	}
	return out, nil
}

// ReadKey returns the live records for one key in seq order. The per-key
// page index makes this proportional to the key's own pages rather than a
// full-store scan.
func (s *Paged) ReadKey(key string) ([]Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushLocked(); err != nil {
		return nil, err
	}
	ids := append([]uint64(nil), s.keyPages[key]...)
	// Match ReadAll's traversal (regular pages in id order, then chains) so
	// insertion-order ties break identically.
	sort.Slice(ids, func(i, j int) bool {
		ci, cj := s.chainSet[ids[i]], s.chainSet[ids[j]]
		if ci != cj {
			return !ci
		}
		return ids[i] < ids[j]
	})
	var out []Record
	for _, id := range ids {
		var recs []Record
		var err error
		if s.chainSet[id] {
			var whole bytes.Buffer
			whole.Write(s.pages[id])
			for _, p := range s.chains[id] {
				whole.Write(s.pages[p])
			}
			s.stats.PageReads += uint64(1 + len(s.chains[id]))
			recs, err = decodeRecords(whole.Bytes())
		} else {
			s.stats.PageReads++
			recs, err = decodeRecords(s.pages[id])
		}
		if err != nil {
			return nil, fmt.Errorf("page %d: %w", id, err)
		}
		for _, r := range recs {
			if r.Key == key {
				out = append(out, r)
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// Pages returns the number of allocated pages (storage footprint).
func (s *Paged) Pages() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pages)
}

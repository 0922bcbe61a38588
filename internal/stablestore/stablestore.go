// Package stablestore implements the recorder's reliable non-volatile
// storage (§3.3.1, §4.5): an append-oriented paged store for published
// messages and checkpoints, written in the 4 KB buffers with which §5.1
// removes the recorder's disk saturation ("allowing messages to be written
// out in 4k byte buffers rather than forcing one disk write per message").
//
// Paged is the one engine: 4 KB pages, a per-key page index, oversized
// records (checkpoints) on contiguous page chains, and invalidation marks
// that Compact honours by rewriting a page without its dead message
// records. The thesis's discipline of reading a page back before its buffer
// is reused ("Before allocating a buffer to a disk page, the disk page is
// read in. Any messages that are no longer valid are removed and the buffer
// is compacted") is not modelled: pages are never reused, and no simulated
// recorder compacts. It exists in-memory (simulations, modelling a disk that
// survives recorder crashes) and file-backed (cmd/starhub), and the recorder
// rebuilds its process database purely from its records ("If the recorder
// crashes, it is possible to rebuild the data base from the disk", §4.5).
package stablestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"os"
	"slices"
	"sort"
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
	return 1 + uvarintLen(uint64(len(r.Key))) + len(r.Key) + uvarintLen(r.Seq) +
		uvarintLen(uint64(len(r.Data))) + len(r.Data)
}

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

var errCorruptPage = errors.New("stablestore: corrupt page")

// maxData bounds a record's data length; a header claiming more is corrupt.
const maxData = math.MaxUint32

// appendRecord encodes r onto dst: kind, uvarint key length, key, uvarint
// seq, uvarint data length, data. It is the one record encoder — Append and
// the compactor write through it — and header reads what it writes.
func appendRecord(dst []byte, r *Record) []byte {
	dst = append(dst, byte(r.Kind))
	dst = binary.AppendUvarint(dst, uint64(len(r.Key)))
	dst = append(dst, r.Key...)
	dst = binary.AppendUvarint(dst, r.Seq)
	dst = binary.AppendUvarint(dst, uint64(len(r.Data)))
	return append(dst, r.Data...)
}

// Uvarint decodes the uvarint at the head of b, returning it and its length.
// n <= 0 means b does not start with one in its shortest form: unlike
// binary.Uvarint it rejects padded (overlong) encodings, so a decoder that
// reads through it accepts one encoding per value. Store records and the
// recorder's per-message records hold their integers this way.
func Uvarint(b []byte) (v uint64, n int) {
	v, n = binary.Uvarint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, -n
	}
	return v, n
}

// header is the head of an encoded record: everything appendRecord writes
// before the data.
type header struct {
	kind RecordKind
	key  []byte // aliases the encoded record
	seq  uint64
	// data is where the data starts, n where the record ends: the data is
	// b[data:n]. n can lie past b — an oversized record's first page holds
	// only its head.
	data, n int
}

// parseHeader reads the header at the head of b. It is the one header
// parser: decodeOne, recordLen and recordAt read through it. ok is false for
// page padding (a leading zero byte), for a header cut short by the end of
// b, and for one that is not in appendRecord's encoding.
func parseHeader(b []byte) (h header, ok bool) {
	if len(b) == 0 || b[0] == 0 {
		return header{}, false
	}
	h.kind = RecordKind(b[0])
	off := 1
	kl, n := Uvarint(b[off:])
	if n <= 0 || kl > uint64(len(b)-off-n) {
		return header{}, false
	}
	off += n
	h.key = b[off : off+int(kl)]
	off += int(kl)
	if h.seq, n = Uvarint(b[off:]); n <= 0 {
		return header{}, false
	}
	off += n
	dl, n := Uvarint(b[off:])
	if n <= 0 || dl > maxData {
		return header{}, false
	}
	h.data = off + n
	h.n = h.data + int(dl)
	return h, true
}

// Ref locates a record in its store: the page AppendKey put it on and its
// byte offset there (0 for an oversized record, which starts its chain).
// Compaction can move a record within its page but never off it, so a Ref
// always names the right page; Lookup finds a moved record by scanning it.
type Ref struct {
	Page uint32
	Off  uint32
}

// decodeOne parses the record at the head of b, returning it and its
// encoded length. The record's Data aliases b. A leading zero byte (page
// padding) returns n == 0 with a nil error.
func decodeOne(b []byte) (Record, int, error) {
	if len(b) == 0 || b[0] == 0 {
		return Record{}, 0, nil
	}
	h, ok := parseHeader(b)
	if !ok || h.n > len(b) {
		return Record{}, 0, errCorruptPage
	}
	return Record{Kind: h.kind, Key: string(h.key), Seq: h.seq, Data: b[h.data:h.n:h.n]}, h.n, nil
}

// decodeRecords parses every record of page b, in order; each starts where
// the one before it ends (Record.size). The records' Data alias b.
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

// Stats counts store activity. The recorder reports the counters as its
// store_* metrics; they are metrics only, and nothing models the disk from
// them.
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

// Paged is the thesis-exact paged stable store. It is not safe for
// concurrent use: a simulation drives it from the one goroutine that runs
// its cluster, and cmd/starhub, whose connections share one store, makes
// every call under its hub lock.
type Paged struct {
	// pages holds every encoded page (PageSize bytes), indexed by page id.
	// Ids are handed out densely and never freed, so page order is slice
	// order.
	pages [][]byte
	// cur is the current write buffer (an unflushed page): records are
	// encoded in place into pages[curPage], and len(cur) is how much of that
	// page is filled. Sealing it is a logical page write, not a copy.
	cur     []byte
	curPage uint64
	// keys holds one record per key: its name, its pages and its dead
	// message records. Key hashes a name once and hands out a handle on
	// the record; AppendKey, InvalidateKey and InvalidateKeySeqs hash
	// nothing. Records are carved from keyBlock, so a new key costs no
	// allocation of its own. A key is never deleted.
	keys     map[string]*keyState
	keyBlock []keyState
	// chains maps the first page of an oversized record (checkpoints) to
	// its continuation pages; chainSet holds every page of every chain
	// (including firsts) for O(1) membership tests.
	chains   map[uint64][]uint64
	chainSet map[uint64]bool
	// dirty holds page ids whose in-memory content is newer than the file
	// backing. Physical WriteAt is batched to Flush/Close/Compact — the
	// §5.1 buffering discipline extended to page syncs — while
	// Stats.PageWrites keeps counting logical page writes.
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

// keyState is what the store keeps about one key.
type keyState struct {
	// name is the key every record appended through the handle carries.
	name string
	// pages indexes which pages hold the key's records (chains by their
	// first page), so ReadKey and Compact visit only relevant pages instead
	// of scanning the whole store.
	pages []uint64
	// When cut is set, message records with seq <= through are garbage, to
	// be dropped at the next compaction of their page.
	through uint64
	cut     bool
	// dead, made on the key's first InvalidateSeqs, marks individual
	// message records as garbage — needed because channel reads can
	// consume messages out of arrival order, so a checkpoint may
	// invalidate a non-prefix subset of a stream.
	dead *seqSet
}

// seqSet is a set of sequence numbers as a bitset: bit q%64 of word q/64
// is q. The seqs a key invalidates one by one are arrival sequences, dense
// from the start of a stream, so the set costs a bit per seq.
type seqSet []uint64

func (b seqSet) has(q uint64) bool {
	i := q / 64
	return i < uint64(len(b)) && b[i]&(1<<(q%64)) != 0
}

func (b *seqSet) add(q uint64) {
	i := int(q / 64)
	if i >= len(*b) {
		*b = append(*b, make([]uint64, i+1-len(*b))...)
	}
	(*b)[i] |= 1 << (q % 64)
}

// Key is a handle on one key of a store (Paged.Key). Keys are never
// deleted, so a handle stays valid as long as the store it came from, and
// appending or invalidating through it looks nothing up.
type Key struct{ k *keyState }

// New returns an in-memory paged store.
func New() *Paged {
	return &Paged{keys: make(map[string]*keyState)}
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
		s.pages = append(s.pages, page)
	}
	if err := s.rebuildIndex(); err != nil {
		f.Close()
		return nil, fmt.Errorf("stablestore: open %s: %w", path, err)
	}
	return s, nil
}

// rebuildIndex reconstructs the volatile chain and key indexes from
// raw pages after Open. Chains must be re-derived or a reopened store would
// try to decode an oversized record's first page as a self-contained page
// and fail: a first page is recognizable because its first record's encoded
// length exceeds the page, and its continuations are the immediately
// following pages (Append allocates them contiguously). Every page and chain
// is decoded here, so a store that opens reads back whole: a chain that runs
// past the last page or a page that does not decode fails Open instead of
// leaving its records out of the key index.
func (s *Paged) rebuildIndex() error {
	next := uint64(len(s.pages))
	for id := uint64(0); id < next; {
		page := s.pages[id]
		npages := uint64(1)
		if total, ok := recordLen(page); ok && total > PageSize {
			// Oversized record: claim ceil(total/PageSize) contiguous pages.
			npages = uint64((total + PageSize - 1) / PageSize)
			if id+npages > next {
				return fmt.Errorf("chain %d claims %d pages, file has %d: %w", id, npages, next, errCorruptPage)
			}
			for p := id; p < id+npages; p++ {
				s.oversize(id, p)
			}
			page = s.chain(id)
		}
		recs, err := decodeRecords(page)
		if err != nil {
			return fmt.Errorf("page %d: %w", id, err)
		}
		for i := range recs {
			s.key(recs[i].Key).index(id)
		}
		id += npages
	}
	return nil
}

// recordLen returns the total encoded length of the first record on a page
// from its header, without materializing the payload. ok is false where
// parseHeader's is: an empty page, or a header that is cut short or not in
// appendRecord's encoding.
func recordLen(b []byte) (total int, ok bool) {
	h, ok := parseHeader(b)
	return h.n, ok
}

// keyBlockLen is how many key records one allocation holds.
const keyBlockLen = 64

// Key returns the handle on key name, making the key on first use.
func (s *Paged) Key(name string) Key { return Key{s.key(name)} }

// key returns name's record, making it on first use.
func (s *Paged) key(name string) *keyState {
	k := s.keys[name]
	if k == nil {
		if len(s.keyBlock) == 0 {
			s.keyBlock = make([]keyState, keyBlockLen)
		}
		k, s.keyBlock = &s.keyBlock[0], s.keyBlock[1:]
		k.name = name
		s.keys[name] = k
	}
	return k
}

// index records that page id holds records of the key (dedupes the common
// case of consecutive appends landing on the same buffer page). A chain
// appended between two of them lists the buffer page twice.
func (k *keyState) index(id uint64) {
	if n := len(k.pages); n > 0 && k.pages[n-1] == id {
		return
	}
	k.pages = append(k.pages, id)
}

// dropKeyPage removes page id from key's index (compaction dropped the
// key's last record on that page).
func (s *Paged) dropKeyPage(key string, id uint64) {
	k := s.keys[key]
	k.pages = slices.DeleteFunc(k.pages, func(p uint64) bool { return p == id })
}

// Close releases the file backing, if any.
func (s *Paged) Close() error {
	if err := s.flush(); err != nil {
		return err
	}
	if err := s.sync(); err != nil {
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
func (s *Paged) Stats() Stats { return s.stats }

// SetWriteFault installs (or, with nil, removes) a fault hook consulted
// before every logical page write; a non-nil return error fails the write.
// The hook runs inside the store call that writes the page and must not
// call back into the store.
func (s *Paged) SetWriteFault(fn func() error) { s.writeFault = fn }

// Append stores a record under the key it names: AppendKey through the
// key's handle. It returns the page the record lands on.
func (s *Paged) Append(r Record) (uint64, error) {
	ref, err := s.AppendKey(s.Key(r.Key), r.Kind, r.Seq, r.Data)
	return uint64(ref.Page), err
}

// AppendKey stores a record under key k, returning where it lands. Records
// larger than a page are split across dedicated pages transparently on
// read; for simplicity here they get a page of their own (checkpoints are
// the only large records).
func (s *Paged) AppendKey(k Key, kind RecordKind, seq uint64, data []byte) (Ref, error) {
	r := Record{Kind: kind, Key: k.k.name, Seq: seq, Data: data}
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
			id := s.alloc(page)
			if i == 0 {
				first = id
			}
			// Oversized pages are marked by a continuation map entry.
			s.oversize(first, id)
			if err := s.writePage(id); err != nil {
				return Ref{}, err
			}
		}
		k.k.index(first)
		return Ref{Page: uint32(first)}, nil
	}

	if len(s.cur)+n > PageSize {
		if err := s.flush(); err != nil {
			return Ref{}, err
		}
	}
	if len(s.cur) == 0 {
		s.cur = make([]byte, 0, PageSize)
		s.curPage = s.alloc(s.cur[:PageSize])
	}
	ref := Ref{Page: uint32(s.curPage), Off: uint32(len(s.cur))}
	s.cur = appendRecord(s.cur, &r) // fits: never reallocates off the page
	k.k.index(s.curPage)
	return ref, nil
}

// Lookup returns the data of key k's record seq, which AppendKey placed at
// ref, as a read-only slice of its page. A record compaction moved within
// its page is found by scanning the page. No page is ever written in place —
// appends fill the write buffer past its last record and Compact encodes a
// fresh page — so the slice stays valid whatever the store does next. An
// oversized record is read from its chain, joined into a buffer of its own.
// Lookup counts no page read: it reads the in-memory page image.
func (s *Paged) Lookup(k Key, seq uint64, ref Ref) ([]byte, error) {
	id := uint64(ref.Page)
	if id >= uint64(len(s.pages)) {
		return nil, fmt.Errorf("stablestore: lookup %s #%d: no page %d", k.k.name, seq, id)
	}
	page := s.pages[id]
	if _, first := s.chains[id]; first {
		page = s.chain(id)
	}
	if d, ok := recordAt(page[min(int(ref.Off), len(page)):], k.k.name, seq); ok {
		return d, nil
	}
	for off := 0; off < len(page); {
		if d, ok := recordAt(page[off:], k.k.name, seq); ok {
			return d, nil
		}
		n, ok := recordLen(page[off:])
		if !ok {
			break
		}
		off += n
	}
	return nil, fmt.Errorf("stablestore: lookup %s #%d: not on page %d", k.k.name, seq, id)
}

// recordAt returns the data of the record at the head of b if it is key's
// record seq.
func recordAt(b []byte, key string, seq uint64) ([]byte, bool) {
	h, ok := parseHeader(b)
	if !ok || h.n > len(b) || string(h.key) != key || h.seq != seq {
		return nil, false
	}
	return b[h.data:h.n:h.n], true
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
	if err := s.flush(); err != nil {
		return err
	}
	return s.sync()
}

// flush seals the current write buffer into its page. The page is only
// marked dirty; physical writes batch up until sync.
func (s *Paged) flush() error {
	if len(s.cur) == 0 {
		return nil
	}
	s.cur = nil
	return s.writePage(s.curPage)
}

// writePage records a logical page write. The physical WriteAt is
// deferred: dirty pages are synced together at the next Flush/Close/Compact
// boundary, so a burst of appends costs one syscall pass instead of one per
// page write.
func (s *Paged) writePage(id uint64) error {
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

// sync writes every dirty page to the file backing, in page order.
func (s *Paged) sync() error {
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

// alloc gives page the next page id.
func (s *Paged) alloc(page []byte) uint64 {
	s.pages = append(s.pages, page)
	return uint64(len(s.pages) - 1)
}

// Invalidate is InvalidateKey on the key named key.
func (s *Paged) Invalidate(key string, through uint64) {
	s.InvalidateKey(s.Key(key), through)
}

// InvalidateKey marks message records of key h with seq <= through as
// garbage; compaction reclaims them lazily ("Any messages that are no
// longer valid are removed and the buffer is compacted", §4.5). The
// recorder calls this after a checkpoint supersedes old messages (§3.3.1).
func (s *Paged) InvalidateKey(h Key, through uint64) {
	if k := h.k; !k.cut || through > k.through {
		k.through, k.cut = through, true
	}
}

// InvalidateSeqs is InvalidateKeySeqs on the key named key.
func (s *Paged) InvalidateSeqs(key string, seqs []uint64) {
	s.InvalidateKeySeqs(s.Key(key), seqs)
}

// InvalidateKeySeqs marks specific message records of key h, by seq, as
// garbage.
func (s *Paged) InvalidateKeySeqs(h Key, seqs []uint64) {
	k := h.k
	if k.dead == nil && len(seqs) > 0 {
		k.dead = new(seqSet)
	}
	for _, q := range seqs {
		k.dead.add(q)
	}
}

// dead reports whether a message record is invalidated.
func (s *Paged) dead(r *Record) bool {
	if r.Kind != KindMessage {
		return false
	}
	k := s.keys[r.Key]
	return k != nil && (k.cut && r.Seq <= k.through || k.dead != nil && k.dead.has(r.Seq))
}

// Compact rewrites pages holding invalidated message records, dropping
// them. Only pages indexed under a key with invalidations are visited —
// compaction cost scales with the garbage, not the store. It returns the
// number of records dropped.
func (s *Paged) Compact() (int, error) {
	if err := s.flush(); err != nil {
		return 0, err
	}
	// Candidate pages: every page of every key with a pending invalidation.
	cand := make(map[uint64]bool)
	for _, k := range s.keys {
		if k.cut || k.dead != nil {
			for _, id := range k.pages {
				cand[id] = true
			}
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
				s.dropKeyPage(r.Key, id)
			}
		}
		s.pages[id] = newPage[:PageSize]
		if err := s.writePage(id); err != nil {
			return dropped, err
		}
	}
	if err := s.sync(); err != nil {
		return dropped, err
	}
	return dropped, nil
}

func (s *Paged) isChainPage(id uint64) bool { return s.chainSet[id] }

// chain returns the pages of the chain that starts at page first, joined
// into a buffer of their own: the oversized record they hold, then padding.
func (s *Paged) chain(first uint64) []byte {
	rest := s.chains[first]
	whole := make([]byte, 0, (1+len(rest))*PageSize)
	whole = append(whole, s.pages[first]...)
	for _, p := range rest {
		whole = append(whole, s.pages[p]...)
	}
	return whole
}

// ReadAll returns every record not yet compacted away — invalidated ones
// included, since only Compact drops them — in page order: regular pages by
// id, each in insertion order, then oversized chains by first page. The
// recorder's crash rebuild reads the same records through Scan (§3.3.4,
// §4.5). The records share nothing with the store.
func (s *Paged) ReadAll() ([]Record, error) {
	var out []Record
	if err := s.Scan(func(r Record, _ Ref) error {
		out = append(out, owned(r))
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Scan calls fn on each record ReadAll returns, in the same order, with its
// Ref, and stops at fn's first error. Each record's Data is read-only and
// aliases its page, so a caller can index a record instead of copying it.
func (s *Paged) Scan(fn func(r Record, ref Ref) error) error {
	if err := s.flush(); err != nil {
		return err
	}
	reads, err := s.walk(fn)
	s.stats.PageReads += reads
	return err
}

// Peek returns the records ReadAll would, in the same order, without its
// side effects: the write buffer stays open and no page read is counted.
// Observers that must not perturb a run (Cluster.Fingerprint) read through
// it.
func (s *Paged) Peek() ([]Record, error) {
	var out []Record
	if _, err := s.walk(func(r Record, _ Ref) error {
		out = append(out, owned(r))
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// owned returns r with a copy of its Data, so it shares nothing with a page.
func owned(r Record) Record {
	r.Data = append([]byte(nil), r.Data...)
	return r
}

// walk decodes every page in ReadAll's order — regular pages in page order
// (which is insertion order), then oversized chains by first page — calling
// visit on each record with its Ref until visit fails, and reports how many
// pages it read. Record data aliases the page (a chain's, the buffer
// assembled for it). The open write buffer needs no sealing to be read: its
// records are encoded in place into its page, and zero padding ends it.
func (s *Paged) walk(visit func(Record, Ref) error) (uint64, error) {
	var reads uint64
	each := func(id int, page []byte) error {
		recs, err := decodeRecords(page)
		if err != nil {
			return err
		}
		off := 0
		for _, r := range recs {
			if err := visit(r, Ref{Page: uint32(id), Off: uint32(off)}); err != nil {
				return err
			}
			off += r.size()
		}
		return nil
	}
	for id, page := range s.pages {
		if s.isChainPage(uint64(id)) {
			continue
		}
		reads++
		if err := each(id, page); err != nil {
			return reads, fmt.Errorf("page %d: %w", id, err)
		}
	}

	// Oversized chains.
	for id := range s.pages {
		rest, first := s.chains[uint64(id)]
		if !first {
			continue
		}
		reads += uint64(1 + len(rest))
		if err := each(id, s.chain(uint64(id))); err != nil {
			return reads, fmt.Errorf("chain %d: %w", id, err)
		}
	}
	return reads, nil
}

// ReadKey returns one key's records not yet compacted away, invalidated
// ones included, in seq order (ties in ReadAll's order). The per-key page
// index makes this proportional to the key's own pages rather than a
// full-store scan. The records share nothing with the store.
func (s *Paged) ReadKey(key string) ([]Record, error) {
	if err := s.flush(); err != nil {
		return nil, err
	}
	var ids []uint64
	if k := s.keys[key]; k != nil {
		ids = slices.Clone(k.pages)
	}
	// Match ReadAll's traversal (regular pages in id order, then chains) so
	// insertion-order ties break identically.
	sort.Slice(ids, func(i, j int) bool {
		ci, cj := s.chainSet[ids[i]], s.chainSet[ids[j]]
		if ci != cj {
			return !ci
		}
		return ids[i] < ids[j]
	})
	ids = slices.Compact(ids) // a page listed twice is read once
	var out []Record
	for _, id := range ids {
		var recs []Record
		var err error
		if s.chainSet[id] {
			s.stats.PageReads += uint64(1 + len(s.chains[id]))
			recs, err = decodeRecords(s.chain(id))
		} else {
			s.stats.PageReads++
			recs, err = decodeRecords(s.pages[id])
		}
		if err != nil {
			return nil, fmt.Errorf("page %d: %w", id, err)
		}
		for _, r := range recs {
			if r.Key == key {
				out = append(out, owned(r))
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// Pages returns the number of allocated pages (storage footprint).
func (s *Paged) Pages() int { return len(s.pages) }

// Package stablestore implements the recorder's reliable non-volatile
// storage (§3.3.1, §4.5): an append-oriented paged store for published
// messages and checkpoints, written in the 4 KB buffers with which §5.1
// removes the recorder's disk saturation ("allowing messages to be written
// out in 4k byte buffers rather than forcing one disk write per message").
//
// Paged is the one engine: 4 KB pages, and oversized records (checkpoints)
// on runs of contiguous pages, each run one buffer. It indexes nothing per
// record: §4.5's per-process list of disk pages is the recorder's, which
// holds each record's Ref.
// In memory a regular page holds only the bytes written to it: pages are
// laid end to end in an append-only arena, and a page sealed part-full ends
// where its records do. The file still holds whole pages, zero-padded.
// A record names its key by a small id, not by the key's name: the first
// append under a key writes one key-name record that gives the name the
// next id, and every record after it carries the id. It keeps every record it is given and reclaims
// nothing: §4.5's compaction of a page whose buffer is reused is not
// modelled, since no page is reused. It exists in-memory (simulations,
// modelling a disk that survives recorder crashes) and file-backed
// (cmd/starhub), and the recorder rebuilds its process database purely
// from its records ("If the recorder crashes, it is possible to rebuild the
// data base from the disk", §4.5).
package stablestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"os"
	"sort"

	"publishing/internal/frame"
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
	// kindKeyName is the store's own record defining a key id: its id is
	// the next one, its seq 0 and its data the key's name. No reader
	// returns one.
	kindKeyName
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

// recordLen returns the number of bytes appendRecord writes for a record
// of key id with seq and dataLen bytes of data.
func recordLen(id, seq uint64, dataLen int) int {
	return 1 + uvarintLen(id) + uvarintLen(seq) + uvarintLen(uint64(dataLen)) + dataLen
}

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

var errCorruptPage = errors.New("stablestore: corrupt page")

// maxData bounds a record's data length; a header claiming more is corrupt.
const maxData = math.MaxUint32

// appendHeader encodes a record's header onto dst: kind, uvarint key id,
// uvarint seq, uvarint data length. parseHeader reads what it writes.
func appendHeader(dst []byte, kind RecordKind, id, seq uint64, dataLen int) []byte {
	dst = append(dst, byte(kind))
	dst = binary.AppendUvarint(dst, id)
	dst = binary.AppendUvarint(dst, seq)
	return binary.AppendUvarint(dst, uint64(dataLen))
}

// appendRecord encodes a record onto dst: its header, then data. It is the
// one record encoder: AppendKey writes callers' records and key-name records
// through it.
func appendRecord(dst []byte, kind RecordKind, id, seq uint64, data []byte) []byte {
	return append(appendHeader(dst, kind, id, seq, len(data)), data...)
}

// header is the head of an encoded record: everything appendHeader writes.
type header struct {
	kind    RecordKind
	id, seq uint64
	// data is where the data starts, n where the record ends: the data is
	// b[data:n]. n can lie past b — an oversized record's first page holds
	// only its head.
	data, n int
}

// parseHeader reads the header at the head of b. It is the one header
// parser: decodeOne, rebuildIndex and recordAt read through it. ok is false
// for page padding (a leading zero byte), for a kind no encoder writes, for
// a header cut short by the end of b, and for one that is not in
// appendHeader's encoding.
func parseHeader(b []byte) (h header, ok bool) {
	if len(b) == 0 || b[0] == 0 || b[0] > byte(kindKeyName) {
		return header{}, false
	}
	h.kind = RecordKind(b[0])
	off := 1
	var n int
	if h.id, n = frame.Uvarint(b[off:]); n <= 0 {
		return header{}, false
	}
	off += n
	if h.seq, n = frame.Uvarint(b[off:]); n <= 0 {
		return header{}, false
	}
	off += n
	dl, n := frame.Uvarint(b[off:])
	if n <= 0 || dl > maxData {
		return header{}, false
	}
	h.data = off + n
	h.n = h.data + int(dl)
	return h, true
}

// Ref locates a record in its store: the page AppendKey put it on and its
// byte offset there (0 for an oversized record, which starts its run).
// No record ever moves, so a Ref is exact.
type Ref struct {
	Page uint32
	Off  uint32
}

// decodeOne parses the header of the record at the head of b and checks
// that b holds the whole record, whose data is b[h.data:h.n]. A leading zero
// byte (page padding) returns h.n == 0 with a nil error.
func decodeOne(b []byte) (header, error) {
	if len(b) == 0 || b[0] == 0 {
		return header{}, nil
	}
	h, ok := parseHeader(b)
	if !ok || h.n > len(b) {
		return header{}, errCorruptPage
	}
	return h, nil
}

// records calls visit on every record of page b, in order, with its header
// and its offset in b; each record starts where the one before it ends, and
// zero padding ends the page. It stops at visit's first error.
func records(b []byte, visit func(h header, at int) error) error {
	for at := 0; at < len(b); {
		h, err := decodeOne(b[at:])
		if err != nil {
			return err
		}
		if h.n == 0 {
			break // zero padding: end of page
		}
		if err := visit(h, at); err != nil {
			return err
		}
		at += h.n
	}
	return nil
}

// dataAt returns the data of the record whose header h was read at b[at:],
// read-only: it aliases b.
func dataAt(b []byte, at int, h header) []byte {
	return b[at+h.data : at+h.n : at+h.n]
}

// Stats counts store activity. The recorder reports the counters as its
// store_* metrics; they are metrics only, and nothing models the disk from
// them.
type Stats struct {
	Appends     uint64 // callers' records: key-name records are not counted
	PageWrites  uint64
	PageReads   uint64
	BytesLive   uint64 // every data byte callers appended: the store keeps them all
	WriteFaults uint64 `metric:"-"` // page writes failed by the injected fault hook
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
	// chunks is the page table, every encoded page by id in chunks of
	// pageChunk slots (page), so a new page copies no slot. Ids are dense
	// and never freed; npages is the next. A sealed regular page is its
	// records' bytes, no more (len and cap); the open page is what its slab
	// has room for, up to PageSize, zero padding after the records; a page
	// Open read is PageSize bytes; a run's pages are PageSize slices of the
	// run's one buffer.
	chunks []*[pageChunk][]byte
	npages uint64
	// cur is the current write buffer (an unflushed page): records are
	// encoded in place into page curPage, and len(cur) is how much of that
	// page is filled. Sealing it is a logical page write, not a copy.
	cur     []byte
	curPage uint64
	// arena is where regular pages are laid, end to end. Its length is where
	// the open page starts, which is where the last sealed page ends; its
	// capacity is the end of the slab in use, whose tail the open page
	// leaves, by a copy, for a new slab when its next record would run past
	// it. Bytes written are never written again, so every slice a reader
	// was handed stays valid.
	arena []byte
	// keys holds one record per key: its name and id. Key hashes a
	// name once and hands out a handle on the record; AppendKey hashes
	// nothing. Records are carved from keyBlock, so a new key costs no
	// allocation of its own. A key is never deleted.
	keys     map[string]*keyState
	keyBlock []keyState
	// ids maps a key id to its key: ids[i] is the key whose key-name
	// record gave it id i. Ids are dense, in the order the keys were first
	// appended to, and are never reused.
	ids []*keyState
	// dirty holds page ids whose in-memory content is newer than the file
	// backing. Physical WriteAt is batched to Flush/Close — the
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
	// name is the key every record appended through the handle is read
	// back under.
	name string
	// id is what the key's records carry in place of its name, once named
	// is set: its key-name record has been written (or read by Open).
	id    uint64
	named bool
}

// Key is a handle on one key of a store (Paged.Key). Keys are never
// deleted, so a handle stays valid as long as the store it came from, and
// appending through it looks nothing up.
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
	// One buffer holds the whole file, so each run of an oversized record
	// is joined as AppendKey leaves it: its pages are consecutive slices of
	// one buffer.
	file := make([]byte, info.Size()/PageSize*PageSize)
	if _, err := f.ReadAt(file, 0); err != nil {
		f.Close()
		return nil, err
	}
	for i := 0; i < len(file); i += PageSize {
		s.alloc(file[i : i+PageSize])
	}
	if err := s.rebuildIndex(); err != nil {
		f.Close()
		return nil, fmt.Errorf("stablestore: open %s: %w", path, err)
	}
	return s, nil
}

// rebuildIndex reconstructs the volatile key table and key-id index from
// raw pages after Open. Every page and run is decoded here, in page order, so
// a store that opens reads back whole: a run that goes past the last page,
// a page that does not decode, a record whose key id no earlier key-name
// record defined, and a key-name record out of id order or naming a key
// already named fail Open instead of leaving a record unreadable or under
// the wrong key.
func (s *Paged) rebuildIndex() error {
	next := s.npages
	for id := uint64(0); id < next; {
		npages := uint64(runPages(*s.page(id)))
		if id+npages > next {
			return fmt.Errorf("run %d claims %d pages, file has %d: %w", id, npages, next, errCorruptPage)
		}
		page, _ := s.run(id)
		if err := records(page, func(h header, at int) error {
			if h.kind == kindKeyName {
				return s.define(string(dataAt(page, at, h)), h.id)
			}
			_, err := s.keyOf(h)
			return err
		}); err != nil {
			return fmt.Errorf("page %d: %w", id, err)
		}
		id += npages
	}
	return nil
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

// define gives the key named name the id its key-name record carries, which
// must be the next one, and the key must have none yet. name writes the
// record and rebuildIndex reads it; for rebuildIndex, a record that breaks
// either rule is corrupt.
func (s *Paged) define(name string, id uint64) error {
	if id != uint64(len(s.ids)) {
		return fmt.Errorf("key %q named with id %d, want %d: %w", name, id, len(s.ids), errCorruptPage)
	}
	k := s.key(name)
	if k.named {
		return fmt.Errorf("key %q named again as id %d, was %d: %w", name, id, k.id, errCorruptPage)
	}
	k.id, k.named = id, true
	s.ids = append(s.ids, k)
	return nil
}

// keyOf returns the key that the id of h, a caller's record, names.
func (s *Paged) keyOf(h header) (*keyState, error) {
	if h.id >= uint64(len(s.ids)) {
		return nil, fmt.Errorf("record names undefined key id %d: %w", h.id, errCorruptPage)
	}
	return s.ids[h.id], nil
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

// Stats returns the store counters.
func (s *Paged) Stats() *Stats { return &s.stats }

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

// AppendKey stores a record under key k, returning where it lands. A record
// larger than a page (checkpoints are the only large records) is encoded
// into a run of whole pages of its own, one buffer whose consecutive
// PageSize slices are the run's pages, so it is read in place.
//
// The first append under a key writes the key's key-name record first, on
// the open write buffer's page. That page is the record's own or an earlier
// one, and comes before any run the record starts, so a reader in page
// order meets the name before the id.
func (s *Paged) AppendKey(k Key, kind RecordKind, seq uint64, data []byte) (Ref, error) {
	s.stats.Appends++
	s.stats.BytesLive += uint64(len(data))
	if !k.k.named {
		if err := s.name(k.k); err != nil {
			return Ref{}, err
		}
	}

	n := recordLen(k.k.id, seq, len(data))
	if n > PageSize {
		run := make([]byte, (n+PageSize-1)/PageSize*PageSize)
		appendRecord(run[:0], kind, k.k.id, seq, data)
		first := s.npages
		for i := 0; i < len(run); i += PageSize {
			s.alloc(run[i : i+PageSize])
		}
		for id := first; id < s.npages; id++ {
			if err := s.writePage(id); err != nil {
				return Ref{}, err
			}
		}
		return Ref{Page: uint32(first)}, nil
	}
	return s.place(kind, k.k.id, seq, data, n)
}

// name writes k's key-name record, giving k the next key id. A name too
// long for a page is refused: a run would lie after the page the key's
// first small record goes on.
func (s *Paged) name(k *keyState) error {
	id := uint64(len(s.ids))
	n := recordLen(id, 0, len(k.name))
	if n > PageSize {
		return fmt.Errorf("stablestore: key name of %d bytes does not fit a page", len(k.name))
	}
	if _, err := s.place(kindKeyName, id, 0, []byte(k.name), n); err != nil {
		return err
	}
	return s.define(k.name, id)
}

// place encodes an n-byte record, which fits a page, into the open write
// buffer, sealing the buffer first if the record does not fit there.
func (s *Paged) place(kind RecordKind, id, seq uint64, data []byte, n int) (Ref, error) {
	if len(s.cur)+n > PageSize {
		if err := s.flush(); err != nil {
			return Ref{}, err
		}
	}
	if len(s.cur) == 0 {
		s.cur = s.reserve(n)
		s.curPage = s.alloc(s.cur[:cap(s.cur)])
	} else if len(s.cur)+n > cap(s.cur) {
		// The page's records so far move to a new slab and its slot follows
		// them. They are copied, never rewritten, so a slice of them a
		// reader holds still reads its record.
		s.cur = append(s.reserve(PageSize), s.cur...)
		*s.page(s.curPage) = s.cur[:PageSize]
	}
	ref := Ref{Page: uint32(s.curPage), Off: uint32(len(s.cur))}
	s.cur = appendRecord(s.cur, kind, id, seq, data) // fits: never reallocates off the page
	return ref, nil
}

// slabMax caps an arena slab. Slabs grow from one page, doubling, so a
// store of a few pages holds about what its pages do.
const slabMax = 64 << 10

// pageMin is the smallest slab tail a page opens in.
const pageMin = 256

// reserve returns the bytes at the arena's end, empty, for the next page,
// whose first record is n bytes long: up to PageSize of what the slab in
// use has left, or of a new slab when fewer than n or pageMin bytes are
// left. Only the bytes a sealed page never wrote go to the page after it.
func (s *Paged) reserve(n int) []byte {
	if cap(s.arena)-len(s.arena) < max(n, pageMin) {
		s.arena = make([]byte, 0, min(max(2*cap(s.arena), PageSize), slabMax))
	}
	at := len(s.arena)
	return s.arena[at:at:min(at+PageSize, cap(s.arena))]
}

// Lookup returns the data of key k's record seq, which AppendKey placed at
// ref, as a read-only slice of its page, or an error if ref does not hold
// that record. No page is ever written in place, so the slice stays valid
// whatever the store does next. An oversized record is read in place from
// its run. Lookup counts no page read.
func (s *Paged) Lookup(k Key, seq uint64, ref Ref) ([]byte, error) {
	if id := uint64(ref.Page); k.k.named && id < s.npages {
		page, _ := s.run(id)
		if d, ok := recordAt(page[min(int(ref.Off), len(page)):], k.k.id, seq); ok {
			return d, nil
		}
	}
	return nil, fmt.Errorf("stablestore: lookup %s #%d: not at %+v", k.k.name, seq, ref)
}

// recordAt returns the data of the record at the head of b if it is the
// caller's record seq of the key with id id.
func recordAt(b []byte, id, seq uint64) ([]byte, bool) {
	h, ok := parseHeader(b)
	if !ok || h.n > len(b) || h.kind == kindKeyName || h.id != id || h.seq != seq {
		return nil, false
	}
	return dataAt(b, 0, h), true
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

// flush seals the current write buffer into its page, which keeps only its
// records' bytes: the arena's next page starts where they end. The page is
// only marked dirty; physical writes batch up until sync.
func (s *Paged) flush() error {
	n := len(s.cur)
	if n == 0 {
		return nil
	}
	*s.page(s.curPage) = s.cur[:n:n]
	s.arena = s.arena[:len(s.arena)+n]
	s.cur = nil
	return s.writePage(s.curPage)
}

// writePage records a logical page write. The physical WriteAt is
// deferred: dirty pages are synced together at the next Flush/Close
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

// zeroPage is the zero padding sync writes after a short page.
var zeroPage [PageSize]byte

// sync writes every dirty page to the file backing, in page order, each
// PageSize bytes long: a page sealed short is followed by zero padding.
func (s *Paged) sync() error {
	if s.f == nil || len(s.dirty) == 0 {
		return nil
	}
	ids := make([]uint64, 0, len(s.dirty))
	for id := range s.dirty { //det:ok keys sorted below
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		page, off := *s.page(id), int64(id)*PageSize
		_, err := s.f.WriteAt(page, off)
		if err == nil && len(page) < PageSize {
			_, err = s.f.WriteAt(zeroPage[len(page):], off+int64(len(page)))
		}
		if err != nil {
			return fmt.Errorf("stablestore: write page %d: %w", id, err)
		}
		delete(s.dirty, id)
	}
	return nil
}

// pageChunk is how many page slots one chunk of the page table holds.
const pageChunk = 256

// page returns page id's slot in the page table, id < npages.
func (s *Paged) page(id uint64) *[]byte {
	return &s.chunks[id/pageChunk][id%pageChunk]
}

// alloc gives page the next page id.
func (s *Paged) alloc(page []byte) uint64 {
	id := s.npages
	if id%pageChunk == 0 {
		s.chunks = append(s.chunks, new([pageChunk][]byte))
	}
	s.npages++
	*s.page(id) = page
	return id
}

// InvalidateSeqs does nothing: the store keeps every record it is given.
// It exists only for bench/'s checkpoint drive, which calls it.
func (s *Paged) InvalidateSeqs(key string, seqs []uint64) {}

// runPages is how many pages the page or run starting with page holds:
// more than one when its first record is longer than a page.
func runPages(page []byte) int {
	if h, ok := parseHeader(page); ok && h.n > PageSize {
		return (h.n + PageSize - 1) / PageSize
	}
	return 1
}

// run returns page id, or the whole run of pages if an oversized record
// starts on it, and how many pages that is. The count comes from the page's
// head, not its length: a regular page sealed short is still one page. A
// run's pages are consecutive slices of one buffer (AppendKey, Open), so
// the first page's slice extends over the rest of the run, and the run is
// read in place. A page whose slice cannot hold the run its head claims is
// returned alone, as one page, for the caller's decode to refuse.
func (s *Paged) run(id uint64) ([]byte, int) {
	page := *s.page(id)
	if n := runPages(page); n > 1 && n*PageSize <= cap(page) {
		return page[:n*PageSize], n
	}
	return page, 1
}

// ReadAll returns every record in page order: regular pages by id, each in
// insertion order, then oversized records' runs by first page. The recorder's
// crash rebuild reads the same records through Scan (§3.3.4, §4.5). The
// records share nothing with the store.
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
// (which is insertion order), then oversized records' runs by first page —
// calling visit on each caller's record with its Ref until visit fails, and
// reports how many pages it read. A record's Key is its key's name, read
// from the id table, and its data aliases the page or run, so walking
// allocates nothing. The open write buffer needs no sealing to be read:
// its records are encoded in place into its page, and zero padding ends it.
func (s *Paged) walk(visit func(Record, Ref) error) (uint64, error) {
	var reads uint64
	each := func(id int, page []byte) error {
		return records(page, func(h header, at int) error {
			if h.kind == kindKeyName {
				return nil
			}
			k, err := s.keyOf(h)
			if err != nil {
				return err
			}
			return visit(Record{Kind: h.kind, Key: k.name, Seq: h.seq, Data: dataAt(page, at, h)},
				Ref{Page: uint32(id), Off: uint32(at)})
		})
	}
	for _, runs := range [...]bool{false, true} {
		for id := 0; id < int(s.npages); {
			page, n := s.run(uint64(id))
			if (n > 1) == runs {
				reads += uint64(n)
				if err := each(id, page); err != nil {
					return reads, fmt.Errorf("page %d: %w", id, err)
				}
			}
			id += n
		}
	}
	return reads, nil
}

// ReadKey returns one key's records in seq order, ties in ReadAll's order:
// walk's records filtered to the key, stably sorted. It scans the whole
// store, but counts a page read only for each page, or each run's pages,
// that holds a record of the key. Its one caller in a recorder reads the
// restart counter once, when the recorder is built. The records share
// nothing with the store.
func (s *Paged) ReadKey(key string) ([]Record, error) {
	if err := s.flush(); err != nil {
		return nil, err
	}
	k := s.keys[key]
	if k == nil || !k.named {
		return nil, nil
	}
	var out []Record
	last := -1 // the page or run last counted
	_, err := s.walk(func(r Record, ref Ref) error {
		if r.Key != k.name {
			return nil
		}
		if int(ref.Page) != last {
			_, n := s.run(uint64(ref.Page))
			s.stats.PageReads += uint64(n)
			last = int(ref.Page)
		}
		out = append(out, owned(r))
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// Pages returns the number of allocated pages (storage footprint).
func (s *Paged) Pages() int { return int(s.npages) }

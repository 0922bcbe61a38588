package recorder

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"publishing/internal/demos"
	"publishing/internal/frame"
	"publishing/internal/gobx"
	"publishing/internal/recorder/tap"
	"publishing/internal/stablestore"
	"publishing/internal/trace"
)

// Per-message record layouts. The three records the recorder writes per
// published message — stored messages, read-order advisories, last-sent
// watermarks — are packed varints, appended straight into r.encScratch and
// decoded by rebuild with the inverse functions. A record stores nothing
// its store header already says: the msg: or adv: key names the stream (a
// message's To), and the record's seq is the message's arrival seq or the
// advisory's seq, which the decoder takes from its caller.
//
//	msg   flags(1) ID [From] Channel Code [Link: To Channel Code] len Body(len)
//	adv   ReadID HeadID
//	last  LastSent
//
// Every field is a uvarint but a node, which can be negative (Broadcast) and
// is a zigzag varint. A process id is Node then Local; a message id is its
// sender then Seq. The msg flags byte says whether From differs from
// ID.Sender (only then is it written), whether a Link follows the code and
// whether it delivers to the kernel, and whether Body is non-nil, so a
// decoded record equals the one encoded field for field. Decoders reject
// any length but the exact one, any unknown or contradictory flag, any value
// out of its field's range and any varint not in its shortest form
// (stablestore.Uvarint): a damaged record fails rebuild rather than
// shortening a stream, and a record has one encoding.
//
// The rare records (registrations, checkpoints) stay self-describing gob
// streams through gobx codecs, package-level and internally locked so
// parallel sweep clusters share the warmed state.
var (
	procCodec gobx.Codec[procMeta]
	ckCodec   gobx.Codec[ckMeta]
)

const (
	smLinkPresent  = 1 << iota // a Link follows the code
	smBodyPresent              // Body is non-nil (possibly empty)
	smFromDiffers              // From follows the id: it is not ID.Sender
	smLinkToKernel             // the Link delivers to the kernel

	smFlags = smLinkPresent | smBodyPresent | smFromDiffers | smLinkToKernel
)

func appendProcID(dst []byte, p frame.ProcID) []byte {
	dst = binary.AppendVarint(dst, int64(p.Node))
	return binary.AppendUvarint(dst, uint64(p.Local))
}

func appendMsgID(dst []byte, id frame.MsgID) []byte {
	return binary.AppendUvarint(appendProcID(dst, id.Sender), id.Seq)
}

// fields reads a record's varints in order. The first malformed one sticks:
// every later read returns zero, and bad stays set.
type fields struct {
	b   []byte
	bad bool
}

// uvarint reads a uvarint no greater than max.
func (f *fields) uvarint(max uint64) uint64 {
	if f.bad {
		return 0
	}
	v, n := stablestore.Uvarint(f.b)
	if n <= 0 || v > max {
		f.bad = true
		return 0
	}
	f.b = f.b[n:]
	return v
}

func (f *fields) procID() frame.ProcID {
	z := f.uvarint(math.MaxUint32) // an int32's zigzag form
	node := frame.NodeID(int64(z>>1) ^ -int64(z&1))
	return frame.ProcID{Node: node, Local: uint32(f.uvarint(math.MaxUint32))}
}

func (f *fields) msgID() frame.MsgID {
	return frame.MsgID{Sender: f.procID(), Seq: f.uvarint(math.MaxUint64)}
}

// appendStoredMsg appends sm's record to dst. ArrSeq is not written: it is
// the record's seq in the store.
func appendStoredMsg(dst []byte, sm *storedMsg) []byte {
	var flags byte
	if sm.Link != nil {
		flags |= smLinkPresent
		if sm.Link.DeliverToKernel {
			flags |= smLinkToKernel
		}
	}
	if sm.Body != nil {
		flags |= smBodyPresent
	}
	if sm.From != sm.ID.Sender {
		flags |= smFromDiffers
	}
	dst = append(dst, flags)
	dst = appendMsgID(dst, sm.ID)
	if flags&smFromDiffers != 0 {
		dst = appendProcID(dst, sm.From)
	}
	dst = binary.AppendUvarint(dst, uint64(sm.Channel))
	dst = binary.AppendUvarint(dst, uint64(sm.Code))
	if l := sm.Link; l != nil {
		dst = appendProcID(dst, l.To)
		dst = binary.AppendUvarint(dst, uint64(l.Channel))
		dst = binary.AppendUvarint(dst, uint64(l.Code))
	}
	dst = binary.AppendUvarint(dst, uint64(len(sm.Body)))
	return append(dst, sm.Body...)
}

// decodeStoredMsg is appendStoredMsg's inverse; arrSeq is the record's seq.
// The Body aliases b, capacity capped at its length: the recorder decodes a
// record where the store keeps it, so the store's page stays the one copy,
// and the body is read-only.
func decodeStoredMsg(b []byte, arrSeq uint64) (storedMsg, error) {
	flags, f, err := storedMsgFlags(b)
	if err != nil {
		return storedMsg{}, err
	}
	sm := storedMsg{ID: f.msgID(), ArrSeq: arrSeq}
	sm.From = sm.ID.Sender
	if flags&smFromDiffers != 0 {
		sm.From = f.procID()
	}
	sm.Channel = uint16(f.uvarint(math.MaxUint16))
	sm.Code = uint32(f.uvarint(math.MaxUint32))
	if flags&smLinkPresent != 0 {
		sm.Link = &frame.Link{To: f.procID(), Channel: uint16(f.uvarint(math.MaxUint16)),
			Code: uint32(f.uvarint(math.MaxUint32)), DeliverToKernel: flags&smLinkToKernel != 0}
	}
	bodyLen := f.uvarint(math.MaxUint32)
	switch {
	case f.bad:
		return storedMsg{}, errors.New("message record: truncated, or a field not in its shortest form or out of range")
	case flags&smFromDiffers != 0 && sm.From == sm.ID.Sender:
		return storedMsg{}, errors.New("message record: From written but equal to the sender")
	case uint64(len(f.b)) != bodyLen:
		return storedMsg{}, fmt.Errorf("message record: %d body bytes, length says %d", len(f.b), bodyLen)
	case flags&smBodyPresent != 0:
		sm.Body = f.b[:bodyLen:bodyLen]
	case bodyLen != 0:
		return storedMsg{}, fmt.Errorf("message record: %d body bytes flagged absent", bodyLen)
	}
	return sm, nil
}

// decodeStoredMsgID reads only the flags and the id at the head of a
// message record: what a stream's checkpoints and advisories match its
// arrivals by.
func decodeStoredMsgID(b []byte) (frame.MsgID, error) {
	_, f, err := storedMsgFlags(b)
	if err != nil {
		return frame.MsgID{}, err
	}
	id := f.msgID()
	if f.bad {
		return frame.MsgID{}, errors.New("message record: id truncated, or not in its shortest form or out of range")
	}
	return id, nil
}

// storedMsgFlags checks a message record's flags byte and returns it and
// the fields after it.
func storedMsgFlags(b []byte) (byte, fields, error) {
	if len(b) == 0 {
		return 0, fields{}, errors.New("message record: empty")
	}
	flags := b[0]
	if flags&^smFlags != 0 || flags&(smLinkPresent|smLinkToKernel) == smLinkToKernel {
		return 0, fields{}, fmt.Errorf("message record: bad flags %#x", flags)
	}
	return flags, fields{b: b[1:]}, nil
}

// appendAdvisory appends adv's record to dst. AdvSeq is not written: it is
// the record's seq in the store.
func appendAdvisory(dst []byte, adv *tap.Advisory) []byte {
	return appendMsgID(appendMsgID(dst, adv.ReadID), adv.HeadID)
}

// decodeAdvisory is appendAdvisory's inverse; advSeq is the record's seq.
func decodeAdvisory(b []byte, advSeq uint64) (tap.Advisory, error) {
	f := fields{b: b}
	adv := tap.Advisory{ReadID: f.msgID(), HeadID: f.msgID(), AdvSeq: advSeq}
	if f.bad || len(f.b) != 0 {
		return tap.Advisory{}, fmt.Errorf("advisory record: %d bytes do not hold exactly two message ids", len(b))
	}
	return adv, nil
}

func appendLastSent(dst []byte, lastSent uint64) []byte {
	return binary.AppendUvarint(dst, lastSent)
}

func decodeLastSent(b []byte) (uint64, error) {
	f := fields{b: b}
	ls := f.uvarint(math.MaxUint64)
	if f.bad || len(f.b) != 0 {
		return 0, fmt.Errorf("last-sent record: %d bytes do not hold exactly one varint", len(b))
	}
	return ls, nil
}

// encWith gob-encodes v into the recorder's reused scratch via codec c. The
// slice is valid until the next persist call.
func encWith[T any](r *Recorder, c *gobx.Codec[T], v *T) []byte {
	b, err := c.Encode(r.encScratch[:0], v)
	if err != nil {
		panic(fmt.Sprintf("recorder: gob: %v", err))
	}
	r.encScratch = b
	return b
}

// Stable-storage key namespaces. Every piece of recorder state needed to
// survive a recorder crash lands under one of these, so the database can be
// rebuilt purely from the store (§4.5: "If the recorder crashes, it is
// possible to rebuild the data base from the disk"). A process's keys are
// made once, with its database entry, and kept as store handles: two records
// are appended per published message, and neither formats the id nor hashes
// a key name.
type procKeys struct {
	msg, adv, ck, proc, last, dead stablestore.Key
}

// newProcEntry makes the database entry for p, living on node.
func (r *Recorder) newProcEntry(p frame.ProcID, node frame.NodeID) *procEntry {
	id := p.String()
	s := r.store
	e := &procEntry{
		Node: node,
		keys: procKeys{
			msg: s.Key("msg:" + id), adv: s.Key("adv:" + id), ck: s.Key("ck:" + id),
			proc: s.Key("proc:" + id), last: s.Key("last:" + id), dead: s.Key("dead:" + id),
		},
	}
	e.Proc, e.Host = p, e
	return e
}

const restartKey = "restart"

// procMeta is the persisted registration record.
type procMeta struct {
	Proc frame.ProcID
	Spec demos.ProcSpec
	Node frame.NodeID
}

// ckMeta is the persisted checkpoint record.
type ckMeta struct {
	Blob      []byte
	SendSeq   uint64
	ReadCount uint64
	StateKB   int
	// BaseReads repeats ReadCount, unread; stored records keep their bytes.
	BaseReads uint64
	// DroppedArr are the arrival seqs this checkpoint supersedes, as are
	// advisories with seq < AdvTrim: rebuild leaves both out.
	DroppedArr []uint64
	AdvTrim    uint64
	// RetainedOrder lists the retained arrival seqs in replay (queue)
	// order, which can differ from arrival order after a recovery.
	RetainedOrder []uint64
}

func (r *Recorder) append(k stablestore.Key, kind stablestore.RecordKind, seq uint64, data []byte) stablestore.Ref {
	ref, err := r.store.AppendKey(k, kind, seq, data)
	if err != nil {
		// Stable storage failing is beyond the paper's fault model (TMR,
		// battery backup, §3.3.4); surface loudly.
		panic(fmt.Sprintf("recorder: stable store append: %v", err))
	}
	return ref
}

// persistMessage stores sm's record in e's stream and returns where it lies.
func (r *Recorder) persistMessage(e *procEntry, sm *storedMsg) stablestore.Ref {
	r.encScratch = appendStoredMsg(r.encScratch[:0], sm)
	return r.append(e.keys.msg, stablestore.KindMessage, sm.ArrSeq, r.encScratch)
}

// readArrival reads arrival seq's message back from its record at ref under
// key, the stream's msg: key. The Body aliases the store's page and is
// read-only. A record the stream names that the store cannot produce is
// stable storage failing, which append treats the same way.
func readArrival(store *stablestore.Paged, key stablestore.Key, seq uint64, ref tap.Ref) storedMsg {
	b, err := store.Lookup(key, seq, stablestore.Ref(ref))
	if err == nil {
		var sm storedMsg
		if sm, err = decodeStoredMsg(b, seq); err == nil {
			return sm
		}
	}
	panic(fmt.Sprintf("recorder: stable store read: %v", err))
}

// readArrivalID is readArrival for the message's id alone: it decodes no
// more of the record. Lookup is a read of the simulator's copy of the
// store, which counts no page read.
func readArrivalID(store *stablestore.Paged, key stablestore.Key, seq uint64, ref tap.Ref) frame.MsgID {
	b, err := store.Lookup(key, seq, stablestore.Ref(ref))
	if err == nil {
		var id frame.MsgID
		if id, err = decodeStoredMsgID(b); err == nil {
			return id
		}
	}
	panic(fmt.Sprintf("recorder: stable store read: %v", err))
}

func (r *Recorder) persistAdvisory(e *procEntry, adv *tap.Advisory) {
	r.encScratch = appendAdvisory(r.encScratch[:0], adv)
	r.append(e.keys.adv, stablestore.KindMessage, adv.AdvSeq, r.encScratch)
}

func (r *Recorder) persistProcMeta(e *procEntry) {
	e.Rev++
	r.append(e.keys.proc, stablestore.KindMeta, e.Rev,
		encWith(r, &procCodec, &procMeta{Proc: e.Proc, Spec: e.Spec, Node: e.Node}))
}

func (r *Recorder) persistLastSent(e *procEntry) {
	e.Rev++
	r.encScratch = appendLastSent(r.encScratch[:0], e.LastSent)
	r.append(e.keys.last, stablestore.KindMeta, e.Rev, r.encScratch)
}

func (r *Recorder) persistDead(e *procEntry) {
	e.Rev++
	r.append(e.keys.dead, stablestore.KindMeta, e.Rev, nil)
}

// persistCheckpoint stores e's checkpoint; dropped are the arrival seqs it
// supersedes.
func (r *Recorder) persistCheckpoint(e *procEntry, dropped []uint64) {
	e.Rev++
	r.append(e.keys.ck, stablestore.KindCheckpoint, e.Rev,
		encWith(r, &ckCodec, &ckMeta{
			Blob:          e.Checkpoint,
			SendSeq:       e.CkSendSeq,
			ReadCount:     e.CkReadCount,
			StateKB:       e.CkStateKB,
			BaseReads:     e.CkReadCount,
			DroppedArr:    dropped,
			AdvTrim:       e.AdvSeqNext,
			RetainedOrder: e.Arrivals.Seqs(),
		}))
}

func (r *Recorder) loadRestartNumber() {
	recs, err := r.store.ReadKey(restartKey)
	if err != nil || len(recs) == 0 {
		return
	}
	r.restartNumber = recs[len(recs)-1].Seq
}

func (r *Recorder) persistRestartNumber() {
	r.append(r.store.Key(restartKey), stablestore.KindMeta, r.restartNumber, nil)
}

// rebuild reconstructs the in-memory database from stable storage after a
// recorder crash (§3.3.4 step one: "it first reads the checkpoint and
// message information on its stable storage to determine which processes
// should exist").
func (r *Recorder) rebuild() error {
	// Built aside and installed whole: a failed rebuild leaves the crashed
	// recorder's (empty) database as it was.
	db := make(map[frame.ProcID]*procEntry)
	entry := func(p frame.ProcID) *procEntry {
		e := db[p]
		if e == nil {
			e = r.newProcEntry(p, p.Node)
			db[p] = e
		}
		return e
	}

	// arrival is one message record as rebuild found it.
	type arrival struct {
		id  frame.MsgID
		seq uint64
		ref tap.Ref
	}
	type perProc struct {
		msgs []arrival
		advs []tap.Advisory
		// ck is the latest checkpoint; dropped and advTrim accumulate over
		// every checkpoint revision, because what any checkpoint dropped
		// stays dropped.
		ck       *ckMeta
		ckRev    uint64
		dropped  map[uint64]bool
		advTrim  uint64
		deadRev  uint64
		metaRev  uint64
		lastSent uint64
		lastSRev uint64
		// arrNext is 1 + the largest arrival seq the store has ever held
		// for the stream, live or dead: a seq a checkpoint dropped must
		// not be handed to a new arrival.
		arrNext uint64
	}
	acc := make(map[frame.ProcID]*perProc)
	get := func(p frame.ProcID) *perProc {
		a := acc[p]
		if a == nil {
			a = &perProc{dropped: make(map[uint64]bool)}
			acc[p] = a
		}
		return a
	}

	// The stream keeps where each message record lies, not the message.
	err := r.store.Scan(func(rec stablestore.Record, ref stablestore.Ref) error {
		ns, pidStr, ok := strings.Cut(rec.Key, ":")
		if !ok {
			return nil
		}
		pid, ok := parseProcID(pidStr)
		if !ok {
			return nil
		}
		a := get(pid)
		// A record that does not decode fails the rebuild: skipping it would
		// hand recovery a silently shorter stream.
		var err error
		switch ns {
		case "msg":
			var sm storedMsg
			if sm, err = decodeStoredMsg(rec.Data, rec.Seq); err == nil {
				a.msgs = append(a.msgs, arrival{id: sm.ID, seq: sm.ArrSeq, ref: tap.Ref(ref)})
				a.arrNext = max(a.arrNext, sm.ArrSeq+1)
			}
		case "adv":
			var adv tap.Advisory
			if adv, err = decodeAdvisory(rec.Data, rec.Seq); err == nil {
				a.advs = append(a.advs, adv)
			}
		case "ck":
			cm := new(ckMeta)
			if err = ckCodec.Decode(rec.Data, cm); err == nil {
				for _, q := range cm.DroppedArr {
					a.dropped[q] = true
					a.arrNext = max(a.arrNext, q+1)
				}
				for _, q := range cm.RetainedOrder {
					a.arrNext = max(a.arrNext, q+1)
				}
				a.advTrim = max(a.advTrim, cm.AdvTrim)
				if rec.Seq >= a.ckRev {
					a.ck, a.ckRev = cm, rec.Seq
				}
			}
		case "proc":
			var pm procMeta
			if err = procCodec.Decode(rec.Data, &pm); err == nil && rec.Seq >= a.metaRev {
				e := entry(pid)
				e.Spec = pm.Spec
				e.Node = pm.Node
				a.metaRev = rec.Seq
				e.Rev = max(e.Rev, rec.Seq)
			}
		case "last":
			var ls uint64
			if ls, err = decodeLastSent(rec.Data); err == nil && rec.Seq >= a.lastSRev {
				a.lastSent = ls
				a.lastSRev = rec.Seq
			}
		case "dead":
			a.deadRev = max(a.deadRev, rec.Seq)
		}
		if err != nil {
			return fmt.Errorf("record %s seq %d: %w", rec.Key, rec.Seq, err)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("recorder: rebuild: %w", err)
	}

	for pid, a := range acc { //det:ok order-free: each process's entry and store key are its own
		e := db[pid]
		if e == nil {
			// Messages without a registration record: the process is not
			// recoverable from here (no spec); skip.
			continue
		}
		e.LastSent = a.lastSent
		e.Rev = max(e.Rev, max(a.lastSRev, max(a.ckRev, a.deadRev)))
		if a.deadRev > 0 && a.deadRev >= a.metaRev {
			e.Dead = true
			continue
		}
		if a.ck != nil {
			marks, err := demos.CheckpointMarks(a.ck.Blob)
			if err != nil {
				return fmt.Errorf("recorder: rebuild: checkpoint of %s: %w", pid, err)
			}
			e.CkMarks = marks
			e.Checkpoint = a.ck.Blob
			e.CkSendSeq = a.ck.SendSeq
			e.CkReadCount = a.ck.ReadCount
			e.CkStateKB = a.ck.StateKB
		}
		// The latest checkpoint fixes the replay order of its retained
		// messages (queue order at checkpoint, which may differ from
		// arrival order after a recovery); later arrivals follow by seq.
		rank := make(map[uint64]int)
		if a.ck != nil {
			for i, q := range a.ck.RetainedOrder {
				rank[q] = i - len(a.ck.RetainedOrder)
			}
		}
		msgs := slices.DeleteFunc(a.msgs, func(m arrival) bool { return a.dropped[m.seq] })
		slices.SortFunc(msgs, func(x, y arrival) int {
			return cmp.Or(cmp.Compare(rank[x.seq], rank[y.seq]), cmp.Compare(x.seq, y.seq))
		})
		e.ArrSeqNext = a.arrNext
		for _, m := range msgs {
			e.Restore(m.id, m.seq, m.ref)
		}
		sort.Slice(a.advs, func(i, j int) bool { return a.advs[i].AdvSeq < a.advs[j].AdvSeq })
		for _, adv := range a.advs {
			if adv.AdvSeq < a.advTrim {
				continue
			}
			e.Advisories = append(e.Advisories, adv)
			if adv.AdvSeq >= e.AdvSeqNext {
				e.AdvSeqNext = adv.AdvSeq + 1
			}
		}
		if a.advTrim > e.AdvSeqNext {
			e.AdvSeqNext = a.advTrim
		}
		e.LastCkAt = r.sched.Now()
	}
	r.db = db
	r.core.Reset()
	for _, e := range db { //det:ok order-free: installs each stream under its own process
		r.core.Install(&e.Stream)
	}
	r.log.Add(trace.KindRecorder, int(r.node), "recorder", "rebuilt database: %d processes", len(r.db))
	return nil
}

// parseProcID parses the "p<node>.<local>" form produced by ProcID.String.
func parseProcID(s string) (frame.ProcID, bool) {
	rest, ok := strings.CutPrefix(s, "p")
	if !ok {
		return frame.NilProc, false
	}
	nodeStr, localStr, ok := strings.Cut(rest, ".")
	if !ok {
		return frame.NilProc, false
	}
	node, err := strconv.ParseInt(nodeStr, 10, 32)
	if err != nil {
		return frame.NilProc, false
	}
	local, err := strconv.ParseUint(localStr, 10, 32)
	if err != nil {
		return frame.NilProc, false
	}
	return frame.ProcID{Node: frame.NodeID(node), Local: uint32(local)}, true
}

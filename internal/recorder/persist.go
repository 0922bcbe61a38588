package recorder

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"

	"publishing/internal/demos"
	"publishing/internal/frame"
	"publishing/internal/gobx"
	"publishing/internal/simtime"
	"publishing/internal/stablestore"
	"publishing/internal/trace"
)

// Per-message record layouts. The three records the recorder writes per
// published message — stored messages, read-order advisories, last-sent
// watermarks — are fixed-layout big-endian, appended straight into
// r.encScratch and decoded by rebuild with the inverse functions:
//
//	msg   flags(1) ID(4+4+8) From(4+4) To(4+4) Channel(2) Code(4)
//	      ArrSeq(8) SeenAt(8) len(4) Body(len) [Link: To(4+4) Channel(2)
//	      Code(4) kernel(1)]
//	adv   ReadID(4+4+8) HeadID(4+4+8) AdvSeq(8)
//	last  LastSent(8)
//
// A process id is Node (int32) then Local; a message id is its sender then
// Seq. The msg flags byte says whether Link follows the body and whether
// Body is non-nil, so a decoded record equals the one encoded field for
// field. Decoders reject any length but the exact one and any unknown flag:
// a damaged record fails rebuild rather than shortening a stream.
//
// The rare records (registrations, checkpoints) stay self-describing gob
// streams through gobx codecs, package-level and internally locked so
// parallel sweep clusters share the warmed state.
var (
	procCodec gobx.Codec[procMeta]
	ckCodec   gobx.Codec[ckMeta]
)

const (
	smLinkPresent = 1 << iota // a Link follows the body
	smBodyPresent             // Body is non-nil (possibly empty)

	storedMsgFixedLen = 1 + 16 + 8 + 8 + 2 + 4 + 8 + 8 + 4
	storedLinkLen     = 8 + 2 + 4 + 1
	advisoryLen       = 16 + 16 + 8
	lastSentLen       = 8
)

func appendProcID(dst []byte, p frame.ProcID) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(p.Node))
	return binary.BigEndian.AppendUint32(dst, p.Local)
}

func appendMsgID(dst []byte, id frame.MsgID) []byte {
	return binary.BigEndian.AppendUint64(appendProcID(dst, id.Sender), id.Seq)
}

func procIDAt(b []byte) frame.ProcID {
	return frame.ProcID{Node: frame.NodeID(binary.BigEndian.Uint32(b)), Local: binary.BigEndian.Uint32(b[4:])}
}

func msgIDAt(b []byte) frame.MsgID {
	return frame.MsgID{Sender: procIDAt(b), Seq: binary.BigEndian.Uint64(b[8:])}
}

// appendStoredMsg appends sm's record to dst.
func appendStoredMsg(dst []byte, sm *pendingMsg) []byte {
	var flags byte
	if sm.Link != nil {
		flags |= smLinkPresent
	}
	if sm.Body != nil {
		flags |= smBodyPresent
	}
	dst = append(dst, flags)
	dst = appendMsgID(dst, sm.ID)
	dst = appendProcID(dst, sm.From)
	dst = appendProcID(dst, sm.To)
	dst = binary.BigEndian.AppendUint16(dst, sm.Channel)
	dst = binary.BigEndian.AppendUint32(dst, sm.Code)
	dst = binary.BigEndian.AppendUint64(dst, sm.ArrSeq)
	dst = binary.BigEndian.AppendUint64(dst, uint64(sm.SeenAt))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(sm.Body)))
	dst = append(dst, sm.Body...)
	if l := sm.Link; l != nil {
		dst = appendProcID(dst, l.To)
		dst = binary.BigEndian.AppendUint16(dst, l.Channel)
		dst = binary.BigEndian.AppendUint32(dst, l.Code)
		kernel := byte(0)
		if l.DeliverToKernel {
			kernel = 1
		}
		dst = append(dst, kernel)
	}
	return dst
}

// decodeStoredMsg is appendStoredMsg's inverse. The Body aliases b, capacity
// capped at its length: the recorder decodes a record where the store keeps
// it, so the store's page stays the one copy, and the body is read-only.
func decodeStoredMsg(b []byte) (pendingMsg, error) {
	if len(b) < storedMsgFixedLen {
		return pendingMsg{}, fmt.Errorf("message record: %d bytes, want at least %d", len(b), storedMsgFixedLen)
	}
	flags := b[0]
	if flags&^(smLinkPresent|smBodyPresent) != 0 {
		return pendingMsg{}, fmt.Errorf("message record: unknown flags %#x", flags)
	}
	sm := pendingMsg{
		storedMsg: storedMsg{
			ID:      msgIDAt(b[1:]),
			From:    procIDAt(b[17:]),
			Channel: binary.BigEndian.Uint16(b[33:]),
			Code:    binary.BigEndian.Uint32(b[35:]),
			ArrSeq:  binary.BigEndian.Uint64(b[39:]),
		},
		To:     procIDAt(b[25:]),
		SeenAt: simtime.Time(binary.BigEndian.Uint64(b[47:])),
	}
	bodyLen := uint64(binary.BigEndian.Uint32(b[55:]))
	want := storedMsgFixedLen + bodyLen
	if flags&smLinkPresent != 0 {
		want += storedLinkLen
	}
	if uint64(len(b)) != want {
		return pendingMsg{}, fmt.Errorf("message record: %d bytes, layout says %d", len(b), want)
	}
	if flags&smBodyPresent != 0 {
		sm.Body = b[storedMsgFixedLen : storedMsgFixedLen+bodyLen : storedMsgFixedLen+bodyLen]
	} else if bodyLen != 0 {
		return pendingMsg{}, fmt.Errorf("message record: %d body bytes flagged absent", bodyLen)
	}
	if flags&smLinkPresent != 0 {
		l := b[storedMsgFixedLen+bodyLen:]
		if l[14] > 1 {
			return pendingMsg{}, fmt.Errorf("message record: link kernel byte %#x", l[14])
		}
		sm.Link = &frame.Link{
			To:              procIDAt(l),
			Channel:         binary.BigEndian.Uint16(l[8:]),
			Code:            binary.BigEndian.Uint32(l[10:]),
			DeliverToKernel: l[14] == 1,
		}
	}
	return sm, nil
}

func appendAdvisory(dst []byte, adv *advisory) []byte {
	dst = appendMsgID(dst, adv.ReadID)
	dst = appendMsgID(dst, adv.HeadID)
	return binary.BigEndian.AppendUint64(dst, adv.AdvSeq)
}

func decodeAdvisory(b []byte) (advisory, error) {
	if len(b) != advisoryLen {
		return advisory{}, fmt.Errorf("advisory record: %d bytes, want %d", len(b), advisoryLen)
	}
	return advisory{ReadID: msgIDAt(b), HeadID: msgIDAt(b[16:]), AdvSeq: binary.BigEndian.Uint64(b[32:])}, nil
}

func appendLastSent(dst []byte, lastSent uint64) []byte {
	return binary.BigEndian.AppendUint64(dst, lastSent)
}

func decodeLastSent(b []byte) (uint64, error) {
	if len(b) != lastSentLen {
		return 0, fmt.Errorf("last-sent record: %d bytes, want %d", len(b), lastSentLen)
	}
	return binary.BigEndian.Uint64(b), nil
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
	return &procEntry{
		Proc: p,
		Node: node,
		keys: procKeys{
			msg: s.Key("msg:" + id), adv: s.Key("adv:" + id), ck: s.Key("ck:" + id),
			proc: s.Key("proc:" + id), last: s.Key("last:" + id), dead: s.Key("dead:" + id),
		},
	}
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
	// DroppedArr are the arrival seqs invalidated by this checkpoint;
	// AdvTrim invalidates advisories with seq < AdvTrim.
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
func (r *Recorder) persistMessage(e *procEntry, sm *pendingMsg) stablestore.Ref {
	r.encScratch = appendStoredMsg(r.encScratch[:0], sm)
	return r.append(e.keys.msg, stablestore.KindMessage, sm.ArrSeq, r.encScratch)
}

// readArrival reads a's message back from its record under key, the
// stream's msg: key. The Body aliases the store's page and is read-only. A
// record the stream names that the store cannot produce is stable storage
// failing, which append treats the same way.
func readArrival(store *stablestore.Paged, key stablestore.Key, a *arrEntry) storedMsg {
	b, err := store.Lookup(key, a.ArrSeq, a.Ref)
	if err == nil {
		var sm pendingMsg
		if sm, err = decodeStoredMsg(b); err == nil {
			return sm.storedMsg
		}
	}
	panic(fmt.Sprintf("recorder: stable store read: %v", err))
}

func (r *Recorder) persistAdvisory(e *procEntry, adv *advisory) {
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
			RetainedOrder: e.Arrivals.seqs(),
		}))
	if bs := r.replaying[e.Proc]; bs != nil {
		bs.dropped = append(bs.dropped, dropped...) // until the replay ends
	} else {
		r.store.InvalidateKeySeqs(e.keys.msg, dropped)
	}
	if e.AdvSeqNext > 0 {
		r.store.InvalidateKey(e.keys.adv, e.AdvSeqNext-1)
	}
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

	type perProc struct {
		msgs []arrEntry
		advs []advisory
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
		ns, pidStr, ok := splitKey(rec.Key)
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
			var sm pendingMsg
			if sm, err = decodeStoredMsg(rec.Data); err == nil {
				a.msgs = append(a.msgs, arrEntry{ID: sm.ID, ArrSeq: sm.ArrSeq, Ref: ref})
				a.arrNext = maxU64(a.arrNext, sm.ArrSeq+1)
			}
		case "adv":
			var adv advisory
			if adv, err = decodeAdvisory(rec.Data); err == nil {
				a.advs = append(a.advs, adv)
			}
		case "ck":
			cm := new(ckMeta)
			if err = ckCodec.Decode(rec.Data, cm); err == nil {
				for _, q := range cm.DroppedArr {
					a.dropped[q] = true
					a.arrNext = maxU64(a.arrNext, q+1)
				}
				for _, q := range cm.RetainedOrder {
					a.arrNext = maxU64(a.arrNext, q+1)
				}
				a.advTrim = maxU64(a.advTrim, cm.AdvTrim)
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
				e.Rev = maxU64(e.Rev, rec.Seq)
			}
		case "last":
			var ls uint64
			if ls, err = decodeLastSent(rec.Data); err == nil && rec.Seq >= a.lastSRev {
				a.lastSent = ls
				a.lastSRev = rec.Seq
			}
		case "dead":
			a.deadRev = maxU64(a.deadRev, rec.Seq)
		}
		if err != nil {
			return fmt.Errorf("record %s seq %d: %w", rec.Key, rec.Seq, err)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("recorder: rebuild: %w", err)
	}

	for pid, a := range acc {
		e := db[pid]
		if e == nil {
			// Messages without a registration record: the process is not
			// recoverable from here (no spec); skip.
			continue
		}
		e.LastSent = a.lastSent
		e.Rev = maxU64(e.Rev, maxU64(a.lastSRev, maxU64(a.ckRev, a.deadRev)))
		if a.deadRev > 0 && a.deadRev >= a.metaRev {
			e.Dead = true
			continue
		}
		// What the checkpoints dropped is garbage, told to the store or not
		// before the crash (a replay holds its invalidations back).
		r.store.InvalidateKeySeqs(e.keys.msg, slices.Collect(maps.Keys(a.dropped)))
		if a.ck != nil {
			marks, err := demos.CheckpointMarks(a.ck.Blob)
			if err != nil {
				return fmt.Errorf("recorder: rebuild: checkpoint of %s: %w", pid, err)
			}
			e.ckMarks = marks
			e.Checkpoint = a.ck.Blob
			e.CkSendSeq = a.ck.SendSeq
			e.CkReadCount = a.ck.ReadCount
			e.CkStateKB = a.ck.StateKB
		}
		sort.Slice(a.msgs, func(i, j int) bool { return a.msgs[i].ArrSeq < a.msgs[j].ArrSeq })
		// The latest checkpoint fixes the replay order of its retained
		// messages (queue order at checkpoint, which may differ from
		// arrival order after a recovery); later arrivals follow by seq.
		rank := make(map[uint64]int)
		if a.ck != nil {
			for i, q := range a.ck.RetainedOrder {
				rank[q] = i
			}
		}
		var pre, post []arrEntry
		for _, sm := range a.msgs {
			if a.dropped[sm.ArrSeq] {
				continue
			}
			if _, ok := rank[sm.ArrSeq]; ok {
				pre = append(pre, sm)
			} else {
				post = append(post, sm)
			}
		}
		e.ArrSeqNext = a.arrNext
		sort.SliceStable(pre, func(i, j int) bool { return rank[pre[i].ArrSeq] < rank[pre[j].ArrSeq] })
		for _, sm := range append(pre, post...) {
			e.Arrivals.push(sm)
			e.recorded.Note(sm.ID)
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
	r.resetTap()
	r.log.Add(trace.KindRecorder, int(r.node), "recorder", "rebuilt database: %d processes", len(r.db))
	return nil
}

func splitKey(k string) (ns, pid string, ok bool) {
	i := strings.IndexByte(k, ':')
	if i < 0 {
		return "", "", false
	}
	return k[:i], k[i+1:], true
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

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

package recorder

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"publishing/internal/demos"
	"publishing/internal/frame"
	"publishing/internal/recorder/tap"
	"publishing/internal/stablestore"
	"publishing/internal/trace"
)

// Per-message record layouts. The three records the recorder writes per
// published message — stored messages, read-order advisories, last-sent
// watermarks — are packed varints (frame.Coder), appended straight into
// r.encScratch and decoded by rebuild with the same code functions. A
// record stores nothing its store header already says: the msg: or adv: key
// names the stream (a message's To), and the record's seq is the message's
// arrival seq or the advisory's seq, which the decoder takes from its
// caller.
//
//	msg   flags(1) ID [From] Channel Code [Link: To Channel Code] len Body(len)
//	adv   ReadID HeadID
//	last  LastSent
//
// The msg flags byte says whether From differs from ID.Sender (only then is
// it written), whether a Link follows the code and whether it delivers to
// the kernel, and whether Body is non-nil, so a decoded record equals the one
// encoded field for field. Decoders reject any unknown or contradictory
// flag besides what frame.Coder rejects: a damaged record fails rebuild
// rather than shortening a stream, and a record has one encoding. The rare
// records (registrations, checkpoints) are coded the same way.
const (
	smLinkPresent  = 1 << iota // a Link follows the code
	smBodyPresent              // Body is non-nil (possibly empty)
	smFromDiffers              // From follows the id: it is not ID.Sender
	smLinkToKernel             // the Link delivers to the kernel

	smFlags = smLinkPresent | smBodyPresent | smFromDiffers | smLinkToKernel
)

// codeStoredMsg codes m's record: its ID, From, Channel, Code, link and
// Body. A record's arrival seq is not in it: it is the record's seq in the
// store. A decoded Body aliases the record: the recorder decodes a record
// where the store keeps it, so the store's page stays the one copy, and the
// body is read-only.
func codeStoredMsg(c *frame.Coder, m *frame.BundleRec) {
	var flags uint8
	if m.HasLink {
		flags |= smLinkPresent
		if m.Link.DeliverToKernel {
			flags |= smLinkToKernel
		}
	}
	if m.Body != nil {
		flags |= smBodyPresent
	}
	if m.From != m.ID.Sender {
		flags |= smFromDiffers
	}
	if frame.Uint(c, &flags); flags&^smFlags != 0 || flags&(smLinkPresent|smLinkToKernel) == smLinkToKernel {
		c.Fail()
	}
	c.MsgID(&m.ID)
	if c.Decoding() {
		m.From = m.ID.Sender
		m.HasLink = flags&smLinkPresent != 0
		m.Link.DeliverToKernel = flags&smLinkToKernel != 0
	}
	if flags&smFromDiffers != 0 {
		if c.Proc(&m.From); m.From == m.ID.Sender {
			c.Fail()
		}
	}
	frame.Uint(c, &m.Channel)
	frame.Uint(c, &m.Code)
	if m.HasLink {
		c.Proc(&m.Link.To)
		frame.Uint(c, &m.Link.Channel)
		frame.Uint(c, &m.Link.Code)
	}
	c.Blob(&m.Body)
	if c.Decoding() {
		switch {
		case flags&smBodyPresent == 0 && m.Body != nil:
			c.Fail()
		case flags&smBodyPresent != 0 && m.Body == nil:
			m.Body = []byte{}
		}
	}
}

// decodeStoredMsg reads a message record.
func decodeStoredMsg(b []byte) (frame.BundleRec, error) {
	var m frame.BundleRec
	if err := frame.DecodeBody(b, &m, codeStoredMsg); err != nil {
		return frame.BundleRec{}, fmt.Errorf("message record: %w", err)
	}
	return m, nil
}

// codeAdvisory codes adv's record. AdvSeq is not in it: it is the record's
// seq in the store.
func codeAdvisory(c *frame.Coder, adv *tap.Advisory) {
	c.MsgID(&adv.ReadID)
	c.MsgID(&adv.HeadID)
}

func appendAdvisory(dst []byte, adv *tap.Advisory) []byte {
	return frame.AppendBody(dst, adv, codeAdvisory)
}

// decodeAdvisory reads an advisory record; advSeq is its seq.
func decodeAdvisory(b []byte, advSeq uint64) (tap.Advisory, error) {
	adv := tap.Advisory{AdvSeq: advSeq}
	if err := frame.DecodeBody(b, &adv, codeAdvisory); err != nil {
		return tap.Advisory{}, fmt.Errorf("advisory record of %d bytes: %w", len(b), err)
	}
	return adv, nil
}

func appendLastSent(dst []byte, lastSent uint64) []byte {
	return frame.AppendBody(dst, &lastSent, frame.Uint[uint64])
}

func decodeLastSent(b []byte) (uint64, error) {
	var ls uint64
	if err := frame.DecodeBody(b, &ls, frame.Uint[uint64]); err != nil {
		return 0, fmt.Errorf("last-sent record of %d bytes: %w", len(b), err)
	}
	return ls, nil
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

// procMeta is the persisted registration record. Its proc: key names the
// process.
type procMeta struct {
	Spec demos.ProcSpec
	Node frame.NodeID
}

func codeProcMeta(c *frame.Coder, pm *procMeta) {
	demos.CodeSpec(c, &pm.Spec)
	frame.Int(c, &pm.Node)
}

// ckMeta is the persisted checkpoint record.
type ckMeta struct {
	Blob      []byte
	SendSeq   uint64
	ReadCount uint64
	StateKB   int
	// DroppedArr are the arrival seqs this checkpoint supersedes, as are
	// advisories with seq < AdvTrim: rebuild leaves both out.
	DroppedArr []uint64
	AdvTrim    uint64
	// RetainedOrder lists the retained arrival seqs in replay (queue)
	// order, which can differ from arrival order after a recovery.
	RetainedOrder []uint64
}

func codeCkMeta(c *frame.Coder, cm *ckMeta) {
	c.Blob(&cm.Blob)
	frame.Uint(c, &cm.SendSeq)
	frame.Uint(c, &cm.ReadCount)
	frame.Int(c, &cm.StateKB)
	codeSeqs(c, &cm.DroppedArr)
	frame.Uint(c, &cm.AdvTrim)
	codeSeqs(c, &cm.RetainedOrder)
}

func codeSeqs(c *frame.Coder, seqs *[]uint64) {
	frame.Slice(c, seqs)
	for i := range *seqs {
		frame.Uint(c, &(*seqs)[i])
	}
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

// persistMessage stores m's record as arrival arrSeq of e's stream and
// returns where it lies.
func (r *Recorder) persistMessage(e *procEntry, m *frame.BundleRec, arrSeq uint64) stablestore.Ref {
	r.encScratch = frame.AppendBody(r.encScratch[:0], m, codeStoredMsg)
	return r.append(e.keys.msg, stablestore.KindMessage, arrSeq, r.encScratch)
}

// readArrival reads arrival seq's message back from its record at ref under
// key, the stream's msg: key. The Body aliases the store's page and is
// read-only. A record the stream names that the store cannot produce is
// stable storage failing, which append treats the same way.
func readArrival(store *stablestore.Paged, key stablestore.Key, seq uint64, ref tap.Ref) frame.BundleRec {
	b, err := store.Lookup(key, seq, stablestore.Ref(ref))
	if err == nil {
		var m frame.BundleRec
		if m, err = decodeStoredMsg(b); err == nil {
			return m
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
	r.encScratch = frame.AppendBody(r.encScratch[:0], &procMeta{Spec: e.Spec, Node: e.Node}, codeProcMeta)
	r.append(e.keys.proc, stablestore.KindMeta, e.Rev, r.encScratch)
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
	r.encScratch = frame.AppendBody(r.encScratch[:0], &ckMeta{
		Blob:          e.Checkpoint,
		SendSeq:       e.CkSendSeq,
		ReadCount:     e.CkReadCount,
		StateKB:       e.CkStateKB,
		DroppedArr:    dropped,
		AdvTrim:       e.AdvSeqNext,
		RetainedOrder: e.Arrivals.Seqs(),
	}, codeCkMeta)
	r.append(e.keys.ck, stablestore.KindCheckpoint, e.Rev, r.encScratch)
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
		pid, ok := frame.ParseProcID(pidStr)
		if !ok {
			return nil
		}
		a := get(pid)
		// A record that does not decode fails the rebuild: skipping it would
		// hand recovery a silently shorter stream.
		var err error
		switch ns {
		case "msg":
			var m frame.BundleRec
			if m, err = decodeStoredMsg(rec.Data); err == nil {
				a.msgs = append(a.msgs, arrival{id: m.ID, seq: rec.Seq, ref: tap.Ref(ref)})
				a.arrNext = max(a.arrNext, rec.Seq+1)
			}
		case "adv":
			var adv tap.Advisory
			if adv, err = decodeAdvisory(rec.Data, rec.Seq); err == nil {
				a.advs = append(a.advs, adv)
			}
		case "ck":
			cm := new(ckMeta)
			if err = frame.DecodeBody(rec.Data, cm, codeCkMeta); err == nil {
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
			if err = frame.DecodeBody(rec.Data, &pm, codeProcMeta); err == nil && rec.Seq >= a.metaRev {
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

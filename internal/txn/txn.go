// Package txn implements §6.4: atomic transactions whose recovery mechanism
// is published communications itself. A coordinator runs two-phase commit
// over participant processes holding keyed integer values. The punchline of
// the section is what is *missing*: "there is no need to store intentions
// and transaction state in stable store. When a crashed process recovers,
// its intentions and transaction state will be rebuilt along with the rest
// of the process state" — so participants keep intentions in ordinary
// machine state, and crash recovery (replay) makes commit decisions
// durable. Only one reliable store exists in the whole system: the
// recorder's.
package txn

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"publishing/internal/demos"
)

// Op is one update within a transaction: add Delta to Key at a participant.
type Op struct {
	Participant string // service name of the participant
	Key         string
	Delta       int
}

// Request bodies between client, coordinator, and participants.
type (
	// Begin asks the coordinator to run ops atomically. The client passes
	// a reply link; the coordinator answers with an Outcome.
	Begin struct {
		Ops []Op
	}
	// Outcome reports a transaction's fate to its client.
	Outcome struct {
		TxID      uint64
		Committed bool
		Reason    string
	}
	// Prepare carries a participant's ops for phase one.
	Prepare struct {
		TxID uint64
		Ops  []Op
	}
	// Vote answers a Prepare.
	Vote struct {
		TxID uint64
		Yes  bool
	}
	// Decide carries the commit/abort decision (phase two).
	Decide struct {
		TxID   uint64
		Commit bool
	}
	// Decided acknowledges a Decide.
	Decided struct {
		TxID uint64
	}
	// Read asks a participant for a value (reply gets ReadReply).
	Read struct {
		Key string
	}
	// ReadReply returns a value.
	ReadReply struct {
		Key   string
		Value int
	}
)

// wire wraps the payloads with a discriminator for gob.
type wire struct {
	Begin     *Begin
	Outcome   *Outcome
	Prepare   *Prepare
	Vote      *Vote
	Decide    *Decide
	Decided   *Decided
	Read      *Read
	ReadReply *ReadReply
}

// Encode serializes any txn payload.
func Encode(v any) []byte {
	var w wire
	switch m := v.(type) {
	case *Begin:
		w.Begin = m
	case *Outcome:
		w.Outcome = m
	case *Prepare:
		w.Prepare = m
	case *Vote:
		w.Vote = m
	case *Decide:
		w.Decide = m
	case *Decided:
		w.Decided = m
	case *Read:
		w.Read = m
	case *ReadReply:
		w.ReadReply = m
	default:
		panic(fmt.Sprintf("txn: cannot encode %T", v))
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// Decode parses a txn payload; it returns one of the pointer types above.
func Decode(b []byte) (any, error) {
	var w wire
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return nil, err
	}
	switch {
	case w.Begin != nil:
		return w.Begin, nil
	case w.Outcome != nil:
		return w.Outcome, nil
	case w.Prepare != nil:
		return w.Prepare, nil
	case w.Vote != nil:
		return w.Vote, nil
	case w.Decide != nil:
		return w.Decide, nil
	case w.Decided != nil:
		return w.Decided, nil
	case w.Read != nil:
		return w.Read, nil
	case w.ReadReply != nil:
		return w.ReadReply, nil
	}
	return nil, fmt.Errorf("txn: empty wire message")
}

// Image names for the registry.
const (
	ImageParticipant = "txn/participant"
	ImageCoordinator = "txn/coordinator"
)

// Register installs both images.
func Register(r *demos.Registry) {
	r.RegisterMachine(ImageParticipant, func(args []byte) demos.Machine {
		return NewParticipant()
	})
	r.RegisterMachine(ImageCoordinator, func(args []byte) demos.Machine {
		return NewCoordinator(args)
	})
}

// Participant holds keyed values and per-transaction intentions — all of it
// plain machine state, recovered by replay, never written to local stable
// storage.
type Participant struct {
	st participantState
}

type participantState struct {
	Values map[string]int
	// Intentions maps a prepared transaction to its pending ops; they take
	// effect only on Decide{Commit: true} (§2.2's tentative updates).
	Intentions map[uint64][]Op
	Prepared   uint64
	Committed  uint64
	Aborted    uint64
}

// NewParticipant returns an empty participant.
func NewParticipant() *Participant {
	return &Participant{st: participantState{
		Values:     make(map[string]int),
		Intentions: make(map[uint64][]Op),
	}}
}

// Init implements demos.Machine.
func (p *Participant) Init(ctx *demos.PCtx) {}

// Handle implements demos.Machine.
func (p *Participant) Handle(ctx *demos.PCtx, m demos.Msg) {
	v, err := Decode(m.Body)
	if err != nil {
		return
	}
	switch req := v.(type) {
	case *Prepare:
		// Vote yes unless the ops would drive a value negative (the demo
		// integrity constraint — overdrafts abort).
		yes := true
		tent := make(map[string]int)
		for _, op := range req.Ops {
			tent[op.Key] += op.Delta
		}
		for k, d := range tent { //det:ok order-free: any negative balance votes no
			if p.st.Values[k]+d < 0 {
				yes = false
			}
		}
		if yes {
			p.st.Intentions[req.TxID] = req.Ops
			p.st.Prepared++
		}
		if m.Link != demos.NoLink {
			_ = ctx.Send(m.Link, Encode(&Vote{TxID: req.TxID, Yes: yes}), demos.NoLink)
		}
	case *Decide:
		ops, prepared := p.st.Intentions[req.TxID]
		if prepared {
			delete(p.st.Intentions, req.TxID)
			if req.Commit {
				for _, op := range ops {
					p.st.Values[op.Key] += op.Delta
				}
				p.st.Committed++
			} else {
				p.st.Aborted++
			}
		}
		if m.Link != demos.NoLink {
			_ = ctx.Send(m.Link, Encode(&Decided{TxID: req.TxID}), demos.NoLink)
		}
	case *Read:
		if m.Link != demos.NoLink {
			_ = ctx.Send(m.Link, Encode(&ReadReply{Key: req.Key, Value: p.st.Values[req.Key]}), demos.NoLink)
		}
	}
}

// Snapshot implements demos.Machine.
func (p *Participant) Snapshot() ([]byte, error) { return gobBytes(&p.st) }

// Restore implements demos.Machine.
func (p *Participant) Restore(b []byte) error { return gobInto(b, &p.st) }

// Coordinator runs two-phase commit. Its transaction state table is also
// ordinary machine state.
type Coordinator struct {
	st coordState
}

type coordState struct {
	// ParticipantNames lists the services this coordinator can reach; the
	// links are minted lazily and cached.
	ParticipantNames []string
	Links            map[string]demos.LinkID
	NextTx           uint64
	Live             map[uint64]*liveTx
	CommittedTotal   uint64
	AbortedTotal     uint64
}

type liveTx struct {
	Ops       []Op
	Parts     []string // participant names involved
	Votes     map[string]bool
	VotesIn   int
	Reply     demos.LinkID
	Phase     int // 1 = preparing, 2 = deciding
	Commit    bool
	DecidedIn int
}

// NewCoordinator builds a coordinator whose args name the participants
// (comma-free gob list via demos args: a gob []string).
func NewCoordinator(args []byte) *Coordinator {
	var names []string
	_ = gobInto(args, &names)
	return &Coordinator{st: coordState{
		ParticipantNames: names,
		Links:            make(map[string]demos.LinkID),
		Live:             make(map[uint64]*liveTx),
	}}
}

// EncodeParticipants builds the args blob for NewCoordinator.
func EncodeParticipants(names []string) []byte {
	b, err := gobBytes(&names)
	if err != nil {
		panic(err)
	}
	return b
}

// Init implements demos.Machine.
func (c *Coordinator) Init(ctx *demos.PCtx) {}

func (c *Coordinator) link(ctx *demos.PCtx, name string) (demos.LinkID, bool) {
	if l, ok := c.st.Links[name]; ok {
		return l, true
	}
	l, err := ctx.ServiceLink(name)
	if err != nil {
		return demos.NoLink, false
	}
	c.st.Links[name] = l
	return l, true
}

// Handle implements demos.Machine.
func (c *Coordinator) Handle(ctx *demos.PCtx, m demos.Msg) {
	v, err := Decode(m.Body)
	if err != nil {
		return
	}
	switch req := v.(type) {
	case *Begin:
		c.begin(ctx, req, m.Link)
	case *Vote:
		c.vote(ctx, req)
	case *Decided:
		c.decided(ctx, req)
	}
}

func (c *Coordinator) begin(ctx *demos.PCtx, b *Begin, reply demos.LinkID) {
	c.st.NextTx++
	id := c.st.NextTx
	tx := &liveTx{Ops: b.Ops, Reply: reply, Votes: make(map[string]bool), Phase: 1}
	// Participants are prepared in the order the ops first name them, so the
	// messages and links a transaction makes do not depend on map order.
	byPart := make(map[string][]Op)
	for _, op := range b.Ops {
		if _, ok := byPart[op.Participant]; !ok {
			tx.Parts = append(tx.Parts, op.Participant)
		}
		byPart[op.Participant] = append(byPart[op.Participant], op)
	}
	for _, name := range tx.Parts {
		ops := byPart[name]
		l, ok := c.link(ctx, name)
		if !ok {
			c.finish(ctx, id, tx, false, "unknown participant "+name)
			return
		}
		// Votes come back on our request channel; participants learn the
		// coordinator's identity from the passed reply link.
		vl := ctx.CreateLink(demos.ChanRequest, uint32(id))
		_ = ctx.Send(l, Encode(&Prepare{TxID: id, Ops: ops}), vl)
	}
	c.st.Live[id] = tx
	if len(tx.Parts) == 0 {
		c.finish(ctx, id, tx, true, "empty transaction")
	}
}

func (c *Coordinator) vote(ctx *demos.PCtx, v *Vote) {
	tx := c.st.Live[v.TxID]
	if tx == nil || tx.Phase != 1 {
		return
	}
	tx.VotesIn++
	if !v.Yes {
		c.decide(ctx, v.TxID, tx, false)
		return
	}
	if tx.VotesIn == len(tx.Parts) {
		// All prepared: the commit point (§6.4 — the decision's durability
		// comes from the published stream, not a local log).
		c.decide(ctx, v.TxID, tx, true)
	}
}

func (c *Coordinator) decide(ctx *demos.PCtx, id uint64, tx *liveTx, commit bool) {
	tx.Phase = 2
	tx.Commit = commit
	for _, name := range tx.Parts {
		l, ok := c.link(ctx, name)
		if !ok {
			continue
		}
		dl := ctx.CreateLink(demos.ChanRequest, uint32(id))
		_ = ctx.Send(l, Encode(&Decide{TxID: id, Commit: commit}), dl)
	}
}

func (c *Coordinator) decided(ctx *demos.PCtx, d *Decided) {
	tx := c.st.Live[d.TxID]
	if tx == nil || tx.Phase != 2 {
		return
	}
	tx.DecidedIn++
	if tx.DecidedIn == len(tx.Parts) {
		reason := "committed"
		if !tx.Commit {
			reason = "aborted by participant vote"
		}
		c.finish(ctx, d.TxID, tx, tx.Commit, reason)
	}
}

func (c *Coordinator) finish(ctx *demos.PCtx, id uint64, tx *liveTx, commit bool, reason string) {
	if commit {
		c.st.CommittedTotal++
	} else {
		c.st.AbortedTotal++
	}
	delete(c.st.Live, id)
	if tx.Reply != demos.NoLink {
		_ = ctx.Send(tx.Reply, Encode(&Outcome{TxID: id, Committed: commit, Reason: reason}), demos.NoLink)
	}
}

// Snapshot implements demos.Machine.
func (c *Coordinator) Snapshot() ([]byte, error) { return gobBytes(&c.st) }

// Restore implements demos.Machine.
func (c *Coordinator) Restore(b []byte) error { return gobInto(b, &c.st) }

func gobBytes(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func gobInto(b []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(b)).Decode(v)
}

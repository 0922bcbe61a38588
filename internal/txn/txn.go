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
	"errors"
	"fmt"

	"publishing/internal/demos"
	"publishing/internal/frame"
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

// The kinds of txn bodies. A body is its kind byte, then the message's
// fields as its code function writes them.
const (
	kindBegin byte = iota + 1
	kindOutcome
	kindPrepare
	kindVote
	kindDecide
	kindDecided
	kindRead
	kindReadReply
)

func codeOp(c *frame.Coder, op *Op) {
	c.Text(&op.Participant)
	c.Text(&op.Key)
	frame.Int(c, &op.Delta)
}

func codeOps(c *frame.Coder, ops *[]Op) {
	frame.Slice(c, ops)
	for i := range *ops {
		codeOp(c, &(*ops)[i])
	}
}

func codeNames(c *frame.Coder, names *[]string) {
	frame.Slice(c, names)
	for i := range *names {
		c.Text(&(*names)[i])
	}
}

func codeBegin(c *frame.Coder, m *Begin) { codeOps(c, &m.Ops) }

func codeOutcome(c *frame.Coder, m *Outcome) {
	frame.Uint(c, &m.TxID)
	c.Bool(&m.Committed)
	c.Text(&m.Reason)
}

func codePrepare(c *frame.Coder, m *Prepare) {
	frame.Uint(c, &m.TxID)
	codeOps(c, &m.Ops)
}

func codeVote(c *frame.Coder, m *Vote) {
	frame.Uint(c, &m.TxID)
	c.Bool(&m.Yes)
}

func codeDecide(c *frame.Coder, m *Decide) {
	frame.Uint(c, &m.TxID)
	c.Bool(&m.Commit)
}

func codeDecided(c *frame.Coder, m *Decided) { frame.Uint(c, &m.TxID) }

func codeRead(c *frame.Coder, m *Read) { c.Text(&m.Key) }

func codeReadReply(c *frame.Coder, m *ReadReply) {
	c.Text(&m.Key)
	frame.Int(c, &m.Value)
}

// Encode serializes any txn payload.
func Encode(v any) []byte {
	switch m := v.(type) {
	case *Begin:
		return frame.AppendBody([]byte{kindBegin}, m, codeBegin)
	case *Outcome:
		return frame.AppendBody([]byte{kindOutcome}, m, codeOutcome)
	case *Prepare:
		return frame.AppendBody([]byte{kindPrepare}, m, codePrepare)
	case *Vote:
		return frame.AppendBody([]byte{kindVote}, m, codeVote)
	case *Decide:
		return frame.AppendBody([]byte{kindDecide}, m, codeDecide)
	case *Decided:
		return frame.AppendBody([]byte{kindDecided}, m, codeDecided)
	case *Read:
		return frame.AppendBody([]byte{kindRead}, m, codeRead)
	case *ReadReply:
		return frame.AppendBody([]byte{kindReadReply}, m, codeReadReply)
	}
	panic(fmt.Sprintf("txn: cannot encode %T", v))
}

// Decode parses a txn payload; it returns one of the pointer types above.
func Decode(b []byte) (any, error) {
	if len(b) == 0 {
		return nil, errors.New("txn: empty body")
	}
	switch body := b[1:]; b[0] {
	case kindBegin:
		return decode(body, codeBegin)
	case kindOutcome:
		return decode(body, codeOutcome)
	case kindPrepare:
		return decode(body, codePrepare)
	case kindVote:
		return decode(body, codeVote)
	case kindDecide:
		return decode(body, codeDecide)
	case kindDecided:
		return decode(body, codeDecided)
	case kindRead:
		return decode(body, codeRead)
	case kindReadReply:
		return decode(body, codeReadReply)
	}
	return nil, fmt.Errorf("txn: unknown body kind %d", b[0])
}

func decode[T any](b []byte, code func(*frame.Coder, *T)) (any, error) {
	v := new(T)
	if err := frame.DecodeBody(b, v, code); err != nil {
		return nil, err
	}
	return v, nil
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

func codeParticipant(c *frame.Coder, st *participantState) {
	frame.Map(c, &st.Values, (*frame.Coder).Text, frame.Int[int])
	frame.Map(c, &st.Intentions, frame.Uint[uint64], codeOps)
	frame.Uint(c, &st.Prepared)
	frame.Uint(c, &st.Committed)
	frame.Uint(c, &st.Aborted)
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
func (p *Participant) Snapshot() ([]byte, error) {
	return frame.AppendBody(nil, &p.st, codeParticipant), nil
}

// Restore implements demos.Machine.
func (p *Participant) Restore(b []byte) error { return frame.DecodeBody(b, &p.st, codeParticipant) }

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
	VotesIn   int
	Reply     demos.LinkID
	Phase     int // 1 = preparing, 2 = deciding
	Commit    bool
	DecidedIn int
}

func codeCoord(c *frame.Coder, st *coordState) {
	codeNames(c, &st.ParticipantNames)
	frame.Map(c, &st.Links, (*frame.Coder).Text, frame.Int[demos.LinkID])
	frame.Uint(c, &st.NextTx)
	frame.Map(c, &st.Live, frame.Uint[uint64], codeLiveTx)
	frame.Uint(c, &st.CommittedTotal)
	frame.Uint(c, &st.AbortedTotal)
}

func codeLiveTx(c *frame.Coder, tx **liveTx) {
	if c.Decoding() {
		*tx = new(liveTx)
	}
	t := *tx
	codeOps(c, &t.Ops)
	codeNames(c, &t.Parts)
	frame.Int(c, &t.VotesIn)
	frame.Int(c, &t.Reply)
	frame.Int(c, &t.Phase)
	c.Bool(&t.Commit)
	frame.Int(c, &t.DecidedIn)
}

// NewCoordinator builds a coordinator whose args name the participants
// (EncodeParticipants).
func NewCoordinator(args []byte) *Coordinator {
	var names []string
	_ = frame.DecodeBody(args, &names, codeNames)
	return &Coordinator{st: coordState{
		ParticipantNames: names,
		Links:            make(map[string]demos.LinkID),
		Live:             make(map[uint64]*liveTx),
	}}
}

// EncodeParticipants builds the args blob for NewCoordinator.
func EncodeParticipants(names []string) []byte { return frame.AppendBody(nil, &names, codeNames) }

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
	tx := &liveTx{Ops: b.Ops, Reply: reply, Phase: 1}
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
func (c *Coordinator) Snapshot() ([]byte, error) { return frame.AppendBody(nil, &c.st, codeCoord), nil }

// Restore implements demos.Machine.
func (c *Coordinator) Restore(b []byte) error { return frame.DecodeBody(b, &c.st, codeCoord) }

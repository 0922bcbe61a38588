package txn_test

import (
	"fmt"
	"testing"

	"publishing"
	"publishing/internal/demos"
	"publishing/internal/simtime"
	"publishing/internal/txn"
)

// bank assembles a coordinator on node 0 and two participants on nodes 1
// and 2, with a client program that runs transfers and reads balances.
type bank struct {
	c        *publishing.Cluster
	coord    publishing.ProcID
	partA    publishing.ProcID
	partB    publishing.ProcID
	outcomes []txn.Outcome
	balances map[string]int
}

// clientScript is what the client program executes.
type clientScript func(ctx *publishing.PCtx, coord publishing.LinkID, read func(part publishing.LinkID, key string) int)

func newBank(t *testing.T, cfg publishing.Config, script clientScript) *bank {
	t.Helper()
	b := &bank{balances: make(map[string]int)}
	c := publishing.New(cfg)
	b.c = c
	txn.Register(c.Registry())

	c.Registry().RegisterProgram("client", func(args []byte) publishing.Program {
		return func(ctx *publishing.PCtx) {
			coord, err := ctx.ServiceLink("coord")
			if err != nil {
				panic(err)
			}
			read := func(part publishing.LinkID, key string) int {
				m := ctx.Request(part, txn.Encode(&txn.Read{Key: key}), demos.ChanReply, 0)
				v, err := txn.Decode(m.Body)
				if err != nil {
					panic(err)
				}
				return v.(*txn.ReadReply).Value
			}
			script(ctx, coord, read)
		}
	})

	var err error
	b.partA, err = c.Spawn(1, publishing.ProcSpec{Name: txn.ImageParticipant, Recoverable: true})
	if err != nil {
		t.Fatal(err)
	}
	b.partB, err = c.Spawn(2, publishing.ProcSpec{Name: txn.ImageParticipant, Recoverable: true})
	if err != nil {
		t.Fatal(err)
	}
	c.SetService("bankA", b.partA)
	c.SetService("bankB", b.partB)
	b.coord, err = c.Spawn(0, publishing.ProcSpec{
		Name:        txn.ImageCoordinator,
		Args:        txn.EncodeParticipants([]string{"bankA", "bankB"}),
		Recoverable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.SetService("coord", b.coord)
	if _, err := c.Spawn(0, publishing.ProcSpec{Name: "client", Recoverable: true}); err != nil {
		t.Fatal(err)
	}
	return b
}

// transfer runs one Begin and waits for its outcome.
func transfer(ctx *publishing.PCtx, coord publishing.LinkID, ops []txn.Op) txn.Outcome {
	m := ctx.Request(coord, txn.Encode(&txn.Begin{Ops: ops}), demos.ChanReply, 0)
	v, err := txn.Decode(m.Body)
	if err != nil {
		panic(err)
	}
	return *v.(*txn.Outcome)
}

func fund(key string, amount int) []txn.Op {
	part := "bankA"
	if key[0] == 'b' {
		part = "bankB"
	}
	return []txn.Op{{Participant: part, Key: key, Delta: amount}}
}

func moveAtoB(amount int) []txn.Op {
	return []txn.Op{
		{Participant: "bankA", Key: "alice", Delta: -amount},
		{Participant: "bankB", Key: "bob", Delta: amount},
	}
}

func TestCommitAndAbort(t *testing.T) {
	var out []txn.Outcome
	final := map[string]int{}
	b := newBank(t, publishing.DefaultConfig(3), func(ctx *publishing.PCtx, coord publishing.LinkID, read func(publishing.LinkID, string) int) {
		out = append(out, transfer(ctx, coord, fund("alice", 100)))
		out = append(out, transfer(ctx, coord, moveAtoB(30)))
		// Overdraft: alice has 70, moving 500 must abort atomically.
		out = append(out, transfer(ctx, coord, moveAtoB(500)))
		a, _ := ctx.ServiceLink("bankA")
		bb, _ := ctx.ServiceLink("bankB")
		final["alice"] = read(a, "alice")
		final["bob"] = read(bb, "bob")
	})
	b.c.Run(2 * simtime.Minute)
	if len(out) != 3 {
		t.Fatalf("outcomes: %v", out)
	}
	if !out[0].Committed || !out[1].Committed {
		t.Fatalf("funding/transfer failed: %v", out)
	}
	if out[2].Committed {
		t.Fatal("overdraft committed")
	}
	if final["alice"] != 70 || final["bob"] != 30 {
		t.Fatalf("balances = %v, want alice=70 bob=30", final)
	}
}

// The §6.4 claim: a participant crash in the middle of a stream of
// transactions is recovered entirely by replay — intentions and all — and
// every transaction still commits exactly once. Total money is conserved.
func TestParticipantCrashPreservesAtomicity(t *testing.T) {
	var out []txn.Outcome
	final := map[string]int{}
	b := newBank(t, publishing.DefaultConfig(3), func(ctx *publishing.PCtx, coord publishing.LinkID, read func(publishing.LinkID, string) int) {
		out = append(out, transfer(ctx, coord, fund("alice", 1000)))
		for i := 0; i < 8; i++ {
			out = append(out, transfer(ctx, coord, moveAtoB(10)))
		}
		a, _ := ctx.ServiceLink("bankA")
		bb, _ := ctx.ServiceLink("bankB")
		final["alice"] = read(a, "alice")
		final["bob"] = read(bb, "bob")
	})
	// Crash participant B twice while the stream runs.
	b.c.Scheduler().At(2*simtime.Second, func() { b.c.CrashProcess(b.partB) })
	b.c.Scheduler().At(9*simtime.Second, func() { b.c.CrashProcess(b.partB) })
	b.c.Run(5 * simtime.Minute)

	if len(out) != 9 {
		t.Fatalf("only %d outcomes: %v", len(out), out)
	}
	for i, o := range out {
		if !o.Committed {
			t.Fatalf("transaction %d aborted: %v", i, o)
		}
	}
	if final["alice"] != 920 || final["bob"] != 80 {
		t.Fatalf("balances = %v, want alice=920 bob=80 (money conserved)", final)
	}
	if got := b.c.Recorder().Stats().RecoveriesCompleted; got < 2 {
		t.Fatalf("recoveries = %d, want >= 2", got)
	}
}

// A coordinator crash mid-stream: its transaction table is ordinary state,
// rebuilt by replay; in-flight transactions complete.
func TestCoordinatorCrashRecovers(t *testing.T) {
	var out []txn.Outcome
	final := map[string]int{}
	b := newBank(t, publishing.DefaultConfig(3), func(ctx *publishing.PCtx, coord publishing.LinkID, read func(publishing.LinkID, string) int) {
		out = append(out, transfer(ctx, coord, fund("alice", 500)))
		for i := 0; i < 6; i++ {
			out = append(out, transfer(ctx, coord, moveAtoB(5)))
		}
		a, _ := ctx.ServiceLink("bankA")
		bb, _ := ctx.ServiceLink("bankB")
		final["alice"] = read(a, "alice")
		final["bob"] = read(bb, "bob")
	})
	b.c.Scheduler().At(2500*simtime.Millisecond, func() { b.c.CrashProcess(b.coord) })
	b.c.Run(5 * simtime.Minute)
	if len(out) != 7 {
		t.Fatalf("outcomes = %d: %v", len(out), out)
	}
	if final["alice"] != 470 || final["bob"] != 30 {
		t.Fatalf("balances = %v, want alice=470 bob=30", final)
	}
}

func TestCodecRoundTrips(t *testing.T) {
	msgs := []any{
		&txn.Begin{Ops: []txn.Op{{Participant: "p", Key: "k", Delta: -3}}},
		&txn.Outcome{TxID: 7, Committed: true, Reason: "ok"},
		&txn.Prepare{TxID: 1, Ops: []txn.Op{{Key: "x"}}},
		&txn.Vote{TxID: 2, Yes: true},
		&txn.Decide{TxID: 3, Commit: false},
		&txn.Decided{TxID: 4},
		&txn.Read{Key: "k"},
		&txn.ReadReply{Key: "k", Value: 9},
	}
	for _, m := range msgs {
		b := txn.Encode(m)
		got, err := txn.Decode(b)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", m) {
			t.Fatalf("%T round trip: %+v vs %+v", m, got, m)
		}
		// A body has one encoding: cut short anywhere, with a byte after
		// it, or with the varint after its kind byte padded, it is rejected.
		for n := range len(b) {
			if _, err := txn.Decode(b[:n]); err == nil {
				t.Fatalf("%T: the %d-byte prefix of %x decodes", m, n, b)
			}
		}
		if _, err := txn.Decode(append(b[:len(b):len(b)], 0)); err == nil {
			t.Fatalf("%T: %x with a trailing byte decodes", m, b)
		}
		if b[1] < 0x80 {
			padded := append([]byte{b[0], b[1] | 0x80, 0}, b[2:]...)
			if _, err := txn.Decode(padded); err == nil {
				t.Fatalf("%T: %x with its first varint padded decodes", m, b)
			}
		}
	}
	// Kinds 1 to 8 name the eight bodies; any other kind byte is rejected,
	// whatever follows it.
	decided := txn.Encode(&txn.Decided{TxID: 4})
	for _, kind := range []byte{0, 9, 'j'} {
		if _, err := txn.Decode(append([]byte{kind}, decided[1:]...)); err == nil {
			t.Fatalf("kind %d decodes", kind)
		}
	}
	if _, err := txn.Decode(nil); err == nil {
		t.Fatal("an empty body decodes")
	}
}

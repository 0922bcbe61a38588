// Bank: §6.4's transactions over published communications. Two "branch"
// participants hold account balances; a coordinator runs two-phase commit
// across them. The section's point is what this system does NOT have: no
// per-node stable storage for intentions or transaction state. Everything a
// textbook 2PC would write to a local log lives in plain process state,
// because crash recovery — replay from the recorder — rebuilds it.
//
// We run a stream of transfers while crashing a participant twice and the
// coordinator once. Every transaction still commits exactly once; the books
// balance to the cent.
//
// Run: go run ./examples/bank
package main

import (
	"fmt"
	"os"

	"publishing"
	"publishing/internal/demos"
	"publishing/internal/txn"
)

func main() {
	cfg := publishing.DefaultConfig(3)
	c := publishing.New(cfg)
	txn.Register(c.Registry())

	type result struct {
		outcomes []txn.Outcome
		alice    int
		bob      int
	}
	var res result

	c.Registry().RegisterProgram("teller", func(args []byte) publishing.Program {
		return func(ctx *publishing.PCtx) {
			coord, err := ctx.ServiceLink("coord")
			if err != nil {
				panic(err)
			}
			begin := func(ops []txn.Op) txn.Outcome {
				m := ctx.Request(coord, txn.Encode(&txn.Begin{Ops: ops}), demos.ChanReply, 0)
				v, err := txn.Decode(m.Body)
				if err != nil {
					panic(err)
				}
				return *v.(*txn.Outcome)
			}
			// Fund alice, then stream ten 7-unit transfers to bob, then one
			// deliberate overdraft that must abort atomically.
			res.outcomes = append(res.outcomes, begin([]txn.Op{
				{Participant: "branchA", Key: "alice", Delta: 100},
			}))
			for i := 0; i < 10; i++ {
				res.outcomes = append(res.outcomes, begin([]txn.Op{
					{Participant: "branchA", Key: "alice", Delta: -7},
					{Participant: "branchB", Key: "bob", Delta: 7},
				}))
			}
			res.outcomes = append(res.outcomes, begin([]txn.Op{
				{Participant: "branchA", Key: "alice", Delta: -1000},
				{Participant: "branchB", Key: "bob", Delta: 1000},
			}))

			read := func(svc, key string) int {
				l, _ := ctx.ServiceLink(svc)
				m := ctx.Request(l, txn.Encode(&txn.Read{Key: key}), demos.ChanReply, 0)
				v, err := txn.Decode(m.Body)
				if err != nil {
					panic(err)
				}
				return v.(*txn.ReadReply).Value
			}
			res.alice = read("branchA", "alice")
			res.bob = read("branchB", "bob")
		}
	})

	branchA, err := c.Spawn(1, publishing.ProcSpec{Name: txn.ImageParticipant, Recoverable: true})
	check(err)
	branchB, err := c.Spawn(2, publishing.ProcSpec{Name: txn.ImageParticipant, Recoverable: true})
	check(err)
	c.SetService("branchA", branchA)
	c.SetService("branchB", branchB)
	coord, err := c.Spawn(0, publishing.ProcSpec{
		Name:        txn.ImageCoordinator,
		Args:        txn.EncodeParticipants([]string{"branchA", "branchB"}),
		Recoverable: true,
	})
	check(err)
	c.SetService("coord", coord)
	_, err = c.Spawn(0, publishing.ProcSpec{Name: "teller", Recoverable: true})
	check(err)

	// Fault schedule: branch B crashes twice, the coordinator once.
	c.Scheduler().At(2*publishing.Second, func() {
		fmt.Println("*** branch B crashes ***")
		c.CrashProcess(branchB)
	})
	c.Scheduler().At(6*publishing.Second, func() {
		fmt.Println("*** the coordinator crashes mid-2PC ***")
		c.CrashProcess(coord)
	})
	c.Scheduler().At(10*publishing.Second, func() {
		fmt.Println("*** branch B crashes again ***")
		c.CrashProcess(branchB)
	})

	c.Run(5 * publishing.Minute)

	committed, aborted := 0, 0
	for _, o := range res.outcomes {
		if o.Committed {
			committed++
		} else {
			aborted++
		}
	}
	fmt.Printf("\n%d transactions: %d committed, %d aborted\n", len(res.outcomes), committed, aborted)
	fmt.Printf("final balances: alice=%d bob=%d (total %d)\n", res.alice, res.bob, res.alice+res.bob)
	fmt.Printf("recoveries completed: %d\n", c.Recorder().Stats().RecoveriesCompleted)

	if committed == 11 && aborted == 1 && res.alice == 30 && res.bob == 70 {
		fmt.Println("\natomicity survived every crash with zero local stable storage ✓")
	} else {
		fmt.Println("\nUNEXPECTED RESULT")
		os.Exit(1)
	}
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}

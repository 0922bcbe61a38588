// Keysearch: Chapter 1's motivating computation. Diffie and Hellman's
// exhaustive attack partitions a key space across many machines: "A
// controlling computer partitions the search space ... The computers then
// exhaustively search their partitions. When one finds a solution, it
// informs the controller." The paper's reliability motivation is exactly
// this workload: with a day-long computation and a fleet MTBF of six
// minutes, the search cannot finish unless crashed workers recover.
//
// This example runs the search twice over the same deterministic fault
// schedule: once with publishing (every crashed worker transparently
// resumes — the key is found) and once without (crashed workers die with
// their partial work; their partitions are never searched and the key is
// lost if it lay in one of them).
//
// Run: go run ./examples/keysearch
package main

import (
	"fmt"
	"os"

	"publishing"
	"publishing/internal/frame"
)

// The "cipher": a key matches if hash(key) == target. Workers grind
// candidate keys in chunks, asking the controller for work between chunks
// so progress is a published interaction.
func hash(key uint32) uint32 {
	x := key
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return x
}

const (
	keySpace  = 1 << 16 // 65536 candidate keys
	chunkSize = 512
	secretKey = 51200 + 137 // lives in a late partition
)

// Protocol bodies. Each is a kind byte, then its fields as frame.Coder
// varints.
type (
	// WantWork is a worker's request for a chunk (passes a reply link once).
	WantWork struct{ Worker int }
	// Chunk assigns [Start, Start+Len) to a worker; Done=true means the
	// space is exhausted or the key was found.
	Chunk struct {
		Start, Len uint32
		Done       bool
	}
	// Found reports the answer.
	Found struct {
		Key    uint32
		Worker int
	}
)

const (
	kindWant byte = iota + 1
	kindChunk
	kindFound
)

func codeWant(c *frame.Coder, m *WantWork) { frame.Int(c, &m.Worker) }

func codeChunk(c *frame.Coder, m *Chunk) {
	frame.Uint(c, &m.Start)
	frame.Uint(c, &m.Len)
	c.Bool(&m.Done)
}

func codeFound(c *frame.Coder, m *Found) {
	frame.Uint(c, &m.Key)
	frame.Int(c, &m.Worker)
}

func enc(v any) []byte {
	switch m := v.(type) {
	case *WantWork:
		return frame.AppendBody([]byte{kindWant}, m, codeWant)
	case *Chunk:
		return frame.AppendBody([]byte{kindChunk}, m, codeChunk)
	case *Found:
		return frame.AppendBody([]byte{kindFound}, m, codeFound)
	}
	panic(fmt.Sprintf("keysearch: cannot encode %T", v))
}

// wire is a decoded body: the field its kind names is set, or none when the
// body is malformed.
type wire struct {
	Want  *WantWork
	Chunk *Chunk
	Found *Found
}

func dec(b []byte) *wire {
	var w wire
	if len(b) == 0 {
		return &w
	}
	var err error
	switch body := b[1:]; b[0] {
	case kindWant:
		w.Want = new(WantWork)
		err = frame.DecodeBody(body, w.Want, codeWant)
	case kindChunk:
		w.Chunk = new(Chunk)
		err = frame.DecodeBody(body, w.Chunk, codeChunk)
	case kindFound:
		w.Found = new(Found)
		err = frame.DecodeBody(body, w.Found, codeFound)
	}
	if err != nil {
		return &wire{}
	}
	return &w
}

// controller hands out chunks and collects the answer.
type controller struct{ st controllerState }

type controllerState struct {
	Next    uint32
	Workers map[int]publishing.LinkID
	Found   bool
	Key     uint32
	By      int
}

func codeController(c *frame.Coder, st *controllerState) {
	frame.Uint(c, &st.Next)
	frame.Map(c, &st.Workers, frame.Int[int], frame.Int[publishing.LinkID])
	c.Bool(&st.Found)
	frame.Uint(c, &st.Key)
	frame.Int(c, &st.By)
}

func (c *controller) Init(ctx *publishing.PCtx) {
	c.st.Workers = make(map[int]publishing.LinkID)
}

func (c *controller) Handle(ctx *publishing.PCtx, m publishing.Msg) {
	w := dec(m.Body)
	switch {
	case w.Want != nil:
		if m.Link != publishing.NoLink {
			c.st.Workers[w.Want.Worker] = m.Link
		}
		reply, ok := c.st.Workers[w.Want.Worker]
		if !ok {
			return
		}
		if c.st.Found || c.st.Next >= keySpace {
			_ = ctx.Send(reply, enc(&Chunk{Done: true}), publishing.NoLink)
			return
		}
		chunk := &Chunk{Start: c.st.Next, Len: chunkSize}
		c.st.Next += chunkSize
		_ = ctx.Send(reply, enc(chunk), publishing.NoLink)
	case w.Found != nil:
		if !c.st.Found {
			c.st.Found = true
			c.st.Key = w.Found.Key
			c.st.By = w.Found.Worker
		}
	}
}

func (c *controller) Snapshot() ([]byte, error) {
	return frame.AppendBody(nil, &c.st, codeController), nil
}
func (c *controller) Restore(b []byte) error { return frame.DecodeBody(b, &c.st, codeController) }

// worker grinds chunks. It is a Program: plain sequential code, recovered
// by re-execution — the paper's bread and butter.
func worker(target uint32) func(args []byte) publishing.Program {
	return func(args []byte) publishing.Program {
		var arg uint32
		if err := frame.DecodeWire(args, &arg, frame.Uint[uint32]); err != nil {
			panic(err)
		}
		id := int(arg)
		return func(ctx *publishing.PCtx) {
			ctl, err := ctx.ServiceLink("controller")
			if err != nil {
				panic(err)
			}
			reply := ctx.CreateLink(publishing.ChanReply, 0)
			// The reply link travels once; afterwards the controller keeps it.
			_ = ctx.Send(ctl, enc(&WantWork{Worker: id}), reply)
			for {
				m := ctx.Receive(publishing.ChanReply)
				w := dec(m.Body)
				if w.Chunk == nil || w.Chunk.Done {
					return
				}
				for k := w.Chunk.Start; k < w.Chunk.Start+w.Chunk.Len; k++ {
					if hash(k) == hash(secretKey) {
						_ = ctx.Send(ctl, enc(&Found{Key: k, Worker: id}), publishing.NoLink)
					}
				}
				ctx.Compute(500 * publishing.Millisecond) // the grinding
				_ = ctx.Send(ctl, enc(&WantWork{Worker: id}), publishing.NoLink)
			}
		}
	}
}

func run(withPublishing bool) (found bool, key uint32, recoveries uint64, elapsed publishing.Time) {
	const workers = 4
	cfg := publishing.DefaultConfig(workers + 1)
	cfg.Publishing = withPublishing
	c := publishing.New(cfg)

	// The factory hands us a pointer to the live (latest) controller
	// incarnation so we can read the result after the run.
	var live *controller
	c.Registry().RegisterMachine("controller", func(args []byte) publishing.Machine {
		live = &controller{}
		return live
	})
	c.Registry().RegisterProgram("worker", worker(hash(secretKey)))

	ctl, err := c.Spawn(0, publishing.ProcSpec{Name: "controller", Recoverable: true})
	if err != nil {
		panic(err)
	}
	c.SetService("controller", ctl)
	var pids []publishing.ProcID
	for i := 0; i < workers; i++ {
		arg := uint32(i)
		args := frame.AppendWire(nil, &arg, frame.Uint[uint32])
		pid, err := c.Spawn(publishing.NodeID(i+1), publishing.ProcSpec{
			Name: "worker", Args: args, Recoverable: true,
		})
		if err != nil {
			panic(err)
		}
		pids = append(pids, pid)
	}

	// The fault schedule: one worker crashes every three seconds; without
	// recovery the whole fleet is dead well before the space is searched
	// (the paper's six-minute MTBF, scaled to the example's pace).
	for i, at := range []publishing.Time{3, 6, 9, 12} {
		i, at := i, at
		c.Scheduler().At(at*publishing.Second, func() {
			c.CrashProcess(pids[i%workers])
		})
	}

	c.Run(12 * publishing.Minute)

	found, key = live.st.Found, live.st.Key
	if withPublishing {
		recoveries = c.Recorder().Stats().RecoveriesCompleted
	}
	return found, key, recoveries, c.Now()
}

func main() {
	fmt.Println("distributed key search (Chapter 1's motivating computation)")
	fmt.Printf("key space %d, secret key %d, 4 workers, one worker crashes every 3s\n\n", keySpace, secretKey)

	found, key, recoveries, t := run(true)
	fmt.Printf("with publishing:    found=%v key=%d after %v (%d recoveries)\n", found, key, t, recoveries)

	foundNo, _, _, t2 := run(false)
	fmt.Printf("without publishing: found=%v after %v (crashed workers stay dead)\n", foundNo, t2)

	if found && key == secretKey && !foundNo {
		fmt.Println("\npublishing turned an unfinishable computation into a finishable one ✓")
	} else {
		fmt.Println("\nUNEXPECTED RESULT")
		os.Exit(1)
	}
}

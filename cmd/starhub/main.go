// Starhub runs the paper's experimental star configuration (Fig 4.1a) over
// real TCP: the recording node is the hub; every frame a node sends travels
// to the hub, is durably stored in a file-backed stable store, and only
// then relayed to its destination — "any messages received incorrectly by
// the recorder are not passed on" (§4.1). This is publish-before-use by
// construction, on a real network stack.
//
// Modes:
//
//	go run ./cmd/starhub -demo                 # hub + 3 nodes in-process on loopback
//	go run ./cmd/starhub -listen :7440 -db pub.db
//	go run ./cmd/starhub -connect host:7440 -node 1 -send 2:hello
//
// The wire protocol is the repository's real frame encoding (length-
// prefixed frame.Encode bytes), so anything recorded here is bit-compatible
// with the simulation's wire format.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"publishing/internal/frame"
	"publishing/internal/stablestore"
)

func main() {
	var (
		demo    = flag.Bool("demo", false, "run hub and three nodes in-process on loopback")
		listen  = flag.String("listen", "", "run a hub on this address")
		db      = flag.String("db", "", "stable-store file (default: temp file)")
		connect = flag.String("connect", "", "run a node agent against this hub")
		nodeID  = flag.Int("node", 1, "this node's id (node agent mode)")
		send    = flag.String("send", "", "dst:payload message to send (node agent mode)")
	)
	flag.Parse()

	switch {
	case *demo:
		runDemo()
	case *listen != "":
		path := *db
		if path == "" {
			path = filepath.Join(os.TempDir(), "starhub-publish.db")
		}
		hub, err := newHub(*listen, path)
		die(err)
		fmt.Printf("hub listening on %s, publishing to %s\n", hub.ln.Addr(), path)
		hub.serve()
	case *connect != "":
		agent, err := dialHub(*connect, frame.NodeID(*nodeID))
		die(err)
		if *send != "" {
			dst, payload, ok := strings.Cut(*send, ":")
			if !ok {
				die(fmt.Errorf("-send wants dst:payload"))
			}
			var d int
			fmt.Sscanf(dst, "%d", &d)
			die(agent.send(frame.NodeID(d), []byte(payload)))
		}
		agent.pump(func(f *frame.Frame) {
			fmt.Printf("node %d received: %s %q\n", *nodeID, f, f.Body)
		})
	default:
		flag.Usage()
	}
}

// hub is the recording star hub.
type hub struct {
	ln net.Listener

	// mu guards the store as well as the tables: the store is not safe for
	// concurrent use, and a key's seqs must reach it in the order they are
	// assigned.
	mu    sync.Mutex
	store *stablestore.Paged
	conns map[frame.NodeID]net.Conn
	seq   map[string]uint64
}

func newHub(addr, dbPath string) (*hub, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	store, err := stablestore.Open(dbPath)
	if err != nil {
		ln.Close()
		return nil, err
	}
	return &hub{ln: ln, store: store, conns: make(map[frame.NodeID]net.Conn), seq: make(map[string]uint64)}, nil
}

func (h *hub) serve() {
	for {
		c, err := h.ln.Accept()
		if err != nil {
			return
		}
		go h.handle(c)
	}
}

// handle speaks to one spoke: first frame announces the node id (Src).
func (h *hub) handle(c net.Conn) {
	defer c.Close()
	var who frame.NodeID = -1
	for {
		f, err := readFrame(c)
		if err != nil {
			if who >= 0 {
				h.mu.Lock()
				if h.conns[who] == c {
					delete(h.conns, who)
				}
				h.mu.Unlock()
			}
			return
		}
		if who < 0 {
			who = f.Src
			h.mu.Lock()
			h.conns[who] = c
			h.mu.Unlock()
		}
		if f.Type == frame.Token {
			continue // keepalive
		}
		// Publish before use: store durably, then relay.
		if err := h.publish(f); err != nil {
			fmt.Fprintf(os.Stderr, "hub: %v, frame NOT relayed\n", err)
			continue
		}
		h.relay(f)
	}
}

// publish stores f durably under its destination's key, with the key's
// next seq. The hub lock is held from assigning the seq to the flush, so
// two connections relaying to one destination log in seq order.
func (h *hub) publish(f *frame.Frame) error {
	key := "msg:" + f.To.String()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.seq[key]++
	if _, err := h.store.Append(stablestore.Record{
		Kind: stablestore.KindMessage, Key: key, Seq: h.seq[key], Data: f.Encode(),
	}); err != nil {
		return fmt.Errorf("store failed: %w", err)
	}
	if err := h.store.Flush(); err != nil {
		return fmt.Errorf("flush failed: %w", err)
	}
	return nil
}

// close stops accepting spokes and closes the store, under the hub lock so
// no connection is mid-publish.
func (h *hub) close() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ln.Close()
	return h.store.Close()
}

func (h *hub) relay(f *frame.Frame) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if f.Dst == frame.Broadcast {
		for id, c := range h.conns { //det:ok order-free: one write per connection, and real I/O is not replayed
			if id != f.Src {
				_ = writeFrame(c, f)
			}
		}
		return
	}
	if c, ok := h.conns[f.Dst]; ok {
		_ = writeFrame(c, f)
	}
}

// agent is a spoke node.
type agent struct {
	id   frame.NodeID
	conn net.Conn
	seq  uint64
}

func dialHub(addr string, id frame.NodeID) (*agent, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	a := &agent{id: id, conn: c}
	// Announce ourselves.
	return a, writeFrame(c, &frame.Frame{Type: frame.Token, Src: id, Dst: frame.Broadcast})
}

func (a *agent) send(dst frame.NodeID, body []byte) error {
	a.seq++
	return writeFrame(a.conn, &frame.Frame{
		Type: frame.Guaranteed,
		Src:  a.id, Dst: dst,
		ID:   frame.MsgID{Sender: frame.ProcID{Node: a.id, Local: 1}, Seq: a.seq},
		From: frame.ProcID{Node: a.id, Local: 1},
		To:   frame.ProcID{Node: dst, Local: 1},
		Body: body,
	})
}

func (a *agent) pump(onFrame func(*frame.Frame)) {
	for {
		f, err := readFrame(a.conn)
		if err != nil {
			return
		}
		onFrame(f)
	}
}

// Wire framing: the frame's length as a u32, in frame.Coder's wire mode,
// then its frame.Encode bytes. A frame that fails its checksum on decode is
// dropped, exactly like the link layer.
func writeFrame(w io.Writer, f *frame.Frame) error {
	n := uint32(f.WireLen())
	buf := frame.AppendWire(make([]byte, 0, 4+n), &n, frame.Uint[uint32])
	_, err := w.Write(f.AppendEncode(buf))
	return err
}

func readFrame(r io.Reader) (*frame.Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	var n uint32
	if err := frame.DecodeWire(hdr[:], &n, frame.Uint[uint32]); err != nil {
		return nil, err
	}
	if n > 1<<20 {
		return nil, fmt.Errorf("oversized frame (%d bytes)", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return frame.Decode(buf)
}

// runDemo exercises the whole thing in one process.
func runDemo() {
	path := filepath.Join(os.TempDir(), fmt.Sprintf("starhub-demo-%d.db", os.Getpid()))
	defer os.Remove(path)
	h, err := newHub("127.0.0.1:0", path)
	die(err)
	go h.serve()
	addr := h.ln.Addr().String()
	fmt.Printf("hub on %s, stable store %s\n", addr, path)

	var wg sync.WaitGroup
	recv := make(chan string, 16)
	agents := make(map[frame.NodeID]*agent)
	for _, id := range []frame.NodeID{1, 2, 3} {
		a, err := dialHub(addr, id)
		die(err)
		agents[id] = a
		wg.Add(1)
		go func(a *agent) {
			defer wg.Done()
			a.pump(func(f *frame.Frame) {
				recv <- fmt.Sprintf("node %d got %q from %s", a.id, f.Body, f.From)
			})
		}(a)
	}
	time.Sleep(100 * time.Millisecond) // let every spoke announce itself
	die(agents[1].send(2, []byte("hello node 2")))
	die(agents[1].send(3, []byte("hello node 3")))
	die(agents[1].send(2, []byte("second message")))

	for i := 0; i < 3; i++ {
		select {
		case s := <-recv:
			fmt.Println(" ", s)
		case <-time.After(2 * time.Second):
			fmt.Println("timeout waiting for deliveries")
			os.Exit(1)
		}
	}

	// Prove the published log survives: reopen the store cold and read the
	// streams back — the recorder-crash rebuild of §4.5, on a real file.
	die(h.close())
	reopened, err := stablestore.Open(path)
	die(err)
	defer reopened.Close()
	recs, err := reopened.ReadAll()
	die(err)
	fmt.Printf("\nreopened stable store holds %d published frames:\n", len(recs))
	for _, rec := range recs {
		f, err := frame.Decode(rec.Data)
		if err != nil {
			continue
		}
		fmt.Printf("  %-12s #%d %s %q\n", rec.Key, rec.Seq, f.From, f.Body)
	}
	if len(recs) == 3 {
		fmt.Println("\npublish-before-use over real TCP, with a durable, reloadable log ✓")
	} else {
		fmt.Println("\nUNEXPECTED RESULT")
	}
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

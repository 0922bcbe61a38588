package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"publishing/internal/frame"
	"publishing/internal/stablestore"
)

// End-to-end over real TCP on loopback: spokes connect, the hub stores and
// relays, and the published log survives a cold reopen.
func TestHubStoreAndRelay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "publish.db")
	h, err := newHub("127.0.0.1:0", path)
	if err != nil {
		t.Fatal(err)
	}
	go h.serve()
	addr := h.ln.Addr().String()

	recv := make(chan *frame.Frame, 8)
	a1, err := dialHub(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := dialHub(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	go a2.pump(func(f *frame.Frame) { recv <- f })
	go a1.pump(func(f *frame.Frame) { t.Errorf("node 1 received unexpected %v", f) })

	time.Sleep(100 * time.Millisecond) // let announcements land
	if err := a1.send(2, []byte("over real tcp")); err != nil {
		t.Fatal(err)
	}

	select {
	case f := <-recv:
		if string(f.Body) != "over real tcp" || f.From.Node != 1 {
			t.Fatalf("wrong frame: %v %q", f, f.Body)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("relay timed out")
	}

	// Durability: close and reopen the store cold.
	if err := h.close(); err != nil {
		t.Fatal(err)
	}
	s, err := stablestore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	recs, err := s.ReadKey("msg:p2.1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("stored %d frames, want 1", len(recs))
	}
	f, err := frame.Decode(recs[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	if string(f.Body) != "over real tcp" {
		t.Fatalf("stored frame corrupt: %q", f.Body)
	}
}

// A frame addressed to a disconnected node is stored but not relayed; a
// corrupted frame on the wire is rejected by the decoder before the hub
// ever stores it.
func TestHubEdgeCases(t *testing.T) {
	path := filepath.Join(t.TempDir(), "publish.db")
	h, err := newHub("127.0.0.1:0", path)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	go h.serve()
	addr := h.ln.Addr().String()

	a1, err := dialHub(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	// Destination 9 never connected: the hub stores the frame anyway
	// (publish-before-use means the log is the source of truth).
	if err := a1.send(9, []byte("to nobody")); err != nil {
		t.Fatal(err)
	}
	// A corrupt frame: valid length prefix, garbage payload. The hub's
	// readFrame must reject it and drop the connection.
	if _, err := a1.conn.Write([]byte{0, 0, 0, 4, 'j', 'u', 'n', 'k'}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		h.mu.Lock()
		recs, err := h.store.ReadKey("msg:p9.1")
		h.mu.Unlock()
		if err == nil && len(recs) == 1 {
			return // stored exactly the good frame, not the junk
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("frame to absent node was not stored")
}

// Several spokes relaying to one destination at once: every frame is
// stored, and the reopened log holds each key's records in strictly
// increasing seq, in the order they were appended.
func TestHubLogsEachKeyInSeqOrder(t *testing.T) {
	const senders, each = 4, 50
	path := filepath.Join(t.TempDir(), "publish.db")
	h, err := newHub("127.0.0.1:0", path)
	if err != nil {
		t.Fatal(err)
	}
	go h.serve()
	addr := h.ln.Addr().String()

	var wg sync.WaitGroup
	for id := frame.NodeID(1); id <= senders; id++ {
		a, err := dialHub(addr, id)
		if err != nil {
			t.Fatal(err)
		}
		defer a.conn.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := a.send(9, []byte(fmt.Sprintf("n%d #%d", a.id, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for {
		h.mu.Lock()
		n := h.seq["msg:p9.1"]
		h.mu.Unlock()
		if n == senders*each {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stored %d of %d frames", n, senders*each)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := h.close(); err != nil {
		t.Fatal(err)
	}

	s, err := stablestore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	recs, err := s.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != senders*each {
		t.Fatalf("reopened store holds %d records, want %d", len(recs), senders*each)
	}
	last := make(map[string]uint64)
	for i, r := range recs {
		if r.Seq <= last[r.Key] {
			t.Fatalf("record %d: %s seq %d appended after seq %d", i, r.Key, r.Seq, last[r.Key])
		}
		last[r.Key] = r.Seq
	}
}

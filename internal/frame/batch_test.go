package frame

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

func sampleRecs() []BundleRec {
	return []BundleRec{
		{
			ID:      MsgID{Sender: ProcID{Node: 0, Local: 7}, Seq: 41},
			From:    ProcID{Node: 0, Local: 7},
			Channel: 3,
			Code:    9,
			Body:    []byte("first"),
		},
		{
			ID:      MsgID{Sender: ProcID{Node: 2, Local: 1}, Seq: 1},
			From:    ProcID{Node: 2, Local: 1},
			Body:    nil, // empty bodies are legal
			HasLink: true,
			Link: Link{
				To:              ProcID{Node: 1, Local: 4},
				Channel:         1,
				Code:            77,
				DeliverToKernel: true,
			},
		},
		{
			ID:      MsgID{Sender: ProcID{Node: 1, Local: 2}, Seq: 9000},
			From:    ProcID{Node: 1, Local: 2},
			Channel: 65535,
			Code:    1 << 31,
			Body:    bytes.Repeat([]byte{0xAB}, 300),
		},
	}
}

var sampleProc = ProcID{Node: 1, Local: 5}

// batchFrame is a records batch as the recorder sends one: the header as
// Body, the records as Recs.
func batchFrame(recs []BundleRec, gen, seq uint64) *Frame {
	return &Frame{
		Type: Guaranteed, Src: 3, Dst: sampleProc.Node,
		ID:      MsgID{Sender: ProcID{Node: 3, Local: 1}, Seq: seq},
		From:    ProcID{Node: 3, Local: 1},
		To:      ProcID{Node: sampleProc.Node, Local: 0},
		Channel: ChanReplay,
		Body:    AppendBatchHdr(nil, BatchHdr{Kind: BatchRecords, Proc: sampleProc, Gen: gen, Seq: seq, Count: uint32(len(recs))}),
		Recs:    recs,
	}
}

// batchBody is f's body as the wire carries it.
func batchBody(f *Frame) []byte {
	return appendReplayRecs(append([]byte(nil), f.Body...), f.Recs)
}

// carrying returns a ChanReplay frame whose Body is body, encoded: the
// bytes a batch of that body goes on the wire as.
func carrying(body []byte) []byte {
	f := batchFrame(nil, 0, 1)
	f.Body = body
	return f.Encode()
}

func TestReplayBatchRoundTrip(t *testing.T) {
	recs := sampleRecs()
	got, err := Decode(batchFrame(recs, 3, 12).Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	h, err := DecodeBatchHdr(got.Body)
	if err != nil {
		t.Fatal(err)
	}
	want := BatchHdr{Kind: BatchRecords, Proc: sampleProc, Gen: 3, Seq: 12, Count: 3}
	if h != want || len(got.Body) != BatchHdrLen {
		t.Fatalf("header = %+v (%d B), want %+v (%d B)", h, len(got.Body), want, BatchHdrLen)
	}
	if len(got.Recs) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got.Recs), len(recs))
	}
	for i := range recs {
		g, w := got.Recs[i], recs[i]
		if g.ID != w.ID || g.From != w.From || g.Channel != w.Channel || g.Code != w.Code ||
			g.HasLink != w.HasLink || g.Link != w.Link {
			t.Fatalf("record %d = %+v, want %+v", i, g, w)
		}
		if !bytes.Equal(g.Body, w.Body) {
			t.Fatalf("record %d body = %q, want %q", i, g.Body, w.Body)
		}
	}
}

func TestReplayBatchBodiesAliasFrame(t *testing.T) {
	enc := batchFrame(sampleRecs(), 3, 12).Encode()
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	// The zero-copy contract: decoded bodies point into the bytes read.
	for i := range got.Recs {
		if b := got.Recs[i].Body; len(b) > 0 && !aliases(enc, b) {
			t.Fatalf("record %d's body does not alias the decoded bytes", i)
		}
	}
	if aliases(enc, got.Body) {
		t.Fatal("the batch header aliases the decoded bytes; Body is the frame's own")
	}
}

func TestReplayBatchDecodeReusesSlice(t *testing.T) {
	enc := batchFrame(sampleRecs(), 3, 12).Encode()
	var g Frame
	if err := DecodeInto(&g, enc); err != nil {
		t.Fatal(err)
	}
	first := &g.Recs[0]
	allocs := testing.AllocsPerRun(100, func() {
		if err := DecodeInto(&g, enc); err != nil || len(g.Recs) != 3 {
			t.Fatal("decode failed in alloc loop")
		}
	})
	if &g.Recs[0] != first {
		t.Fatal("decode did not refill the frame's record array")
	}
	// Links are held by value, so decoding a batch into a warm frame
	// allocates nothing at all.
	if allocs != 0 {
		t.Fatalf("decode allocates %.1f objects/op, want 0", allocs)
	}
}

// TestReplayBatchEncodedLenMatches: every length a batch is charged or
// budgeted by is derived from its records and equals the bytes on the
// wire: ReplayLen per record, BodyLen, WireLen, String's len= and a Bundle
// record's EncodedLen.
func TestReplayBatchEncodedLenMatches(t *testing.T) {
	recs := sampleRecs()
	for i := range recs {
		solo := batchFrame(recs[i:i+1], 1, 1)
		if got, want := len(batchBody(solo))-BatchHdrLen, recs[i].ReplayLen(); got != want {
			t.Fatalf("record %d ReplayLen = %d, encoded size = %d", i, want, got)
		}
	}
	f := batchFrame(recs, 3, 12)
	body := batchBody(f)
	if f.BodyLen() != len(body) {
		t.Fatalf("BodyLen %d, body is %d bytes", f.BodyLen(), len(body))
	}
	opaque := *f
	opaque.Body, opaque.Recs = body, nil
	if enc := f.Encode(); f.WireLen() != len(enc) || !bytes.Equal(enc, opaque.Encode()) {
		t.Fatalf("WireLen %d for %d encoded bytes, or the encoding is not the batch body's", f.WireLen(), len(enc))
	}
	want := fmt.Sprintf("guaranteed %s %s->%s ch=%d len=%d", f.ID, f.From, f.To, ChanReplay, len(body))
	if s := f.String(); s != want {
		t.Fatalf("String %q, want %q", s, want)
	}
	var rec BundleRec
	rec.RecOf(f)
	if rec.EncodedLen() != BundleRecFixed+len(body) {
		t.Fatalf("bundle record EncodedLen %d, want %d", rec.EncodedLen(), BundleRecFixed+len(body))
	}
}

// TestReplayBatchTruncation: a records batch must account for every byte.
// A body cut short of its records, or with a trailing byte, does not
// decode; one cut inside its header, or of an unknown kind, is no batch at
// all, which the kernel's DecodeBatchHdr rejects.
func TestReplayBatchTruncation(t *testing.T) {
	body := batchBody(batchFrame(sampleRecs(), 3, 12))
	for cut := 0; cut < len(body); cut++ {
		f, err := Decode(carrying(body[:cut]))
		switch {
		case cut >= BatchHdrLen && err == nil:
			t.Fatalf("truncation at %d/%d bytes not detected", cut, len(body))
		case cut >= BatchHdrLen && !errors.Is(err, ErrShortFrame):
			t.Fatalf("truncation at %d/%d bytes: %v, want ErrShortFrame", cut, len(body), err)
		case cut < BatchHdrLen:
			if err != nil || f.Recs != nil {
				t.Fatalf("a %d-byte body is no batch, yet decoded to %v, %v", cut, f, err)
			}
			if _, err := DecodeBatchHdr(body[:cut]); err == nil {
				t.Fatalf("a %d-byte header accepted", cut)
			}
		}
	}
	// Trailing garbage is also malformed, not silently ignored.
	if _, err := Decode(carrying(append(append([]byte(nil), body...), 0x00))); err == nil {
		t.Fatal("trailing byte not detected")
	}
	// An unknown kind byte is rejected before any field parse.
	bad := append([]byte(nil), body...)
	bad[0] = 99
	if _, err := DecodeBatchHdr(bad); err == nil {
		t.Fatal("unknown kind not detected")
	}
	if f, err := Decode(carrying(bad)); err != nil || f.Recs != nil || !bytes.Equal(f.Body, bad) {
		t.Fatalf("an unknown kind decoded as records (%v)", err)
	}
}

func TestCkChunkRoundTrip(t *testing.T) {
	proc := ProcID{Node: 2, Local: 9}
	data := bytes.Repeat([]byte{1, 2, 3}, 100)
	buf := EncodeCkChunk(nil, proc, 7, 2, 5, data)
	h, got, err := DecodeCkChunk(buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Kind != BatchCkChunk || h.Proc != proc || h.Gen != 7 || h.Seq != 2 || h.Count != 5 {
		t.Fatalf("header = %+v", h)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("chunk data mismatch")
	}
	// Chunk payloads alias the buffer too.
	got[0] ^= 0xFF
	if buf[BatchHdrLen] != got[0] {
		t.Fatal("chunk data does not alias the buffer")
	}
	if _, _, err := DecodeCkChunk(batchFrame(sampleRecs(), 3, 12).Body); err == nil {
		t.Fatal("records batch accepted as chunk")
	}
	// A chunk keeps its bytes: it travels as an opaque Body.
	if f, err := Decode(carrying(buf)); err != nil || f.Recs != nil || !bytes.Equal(f.Body, buf) {
		t.Fatalf("chunk frame decoded to %v, %v", f, err)
	}
}

// TestBundleCarriesBatch: a short batch coalesces like any other message,
// so a Bundle record carries the batch's records. The Bundle encodes them
// inside the record's body, decodes them back into the record, and a
// receiver's expanded frame and a Clone carry them too.
func TestBundleCarriesBatch(t *testing.T) {
	batch := batchFrame(sampleRecs()[:2], 2, 4)
	batch.XSeq, batch.XLow = 1<<48|5, 1<<48|5
	var rec BundleRec
	rec.RecOf(batch)
	b := &Frame{Type: Bundle, Src: 3, Dst: 1, XLow: 1<<48 | 5, Recs: append([]BundleRec{rec}, bundleCorpus()[2])}
	enc := b.Encode()
	if b.WireLen() != len(enc) {
		t.Fatalf("WireLen %d, encoded %d bytes", b.WireLen(), len(enc))
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	g := got.Recs[0].Expand(got)
	if !bytes.Equal(g.Body, batch.Body) || len(g.Recs) != 2 {
		t.Fatalf("expanded batch has header %x and %d records", g.Body, len(g.Recs))
	}
	want := append([]BundleRec(nil), batch.Recs...)
	want[1].Body = nil
	if !reflect.DeepEqual(g.Recs, want) {
		t.Fatalf("records:\n got %+v\nwant %+v", g.Recs, want)
	}
	if !bytes.Equal(g.Encode(), batch.Encode()) {
		t.Fatal("the expanded record encodes differently from the batch it carries")
	}
	c := b.Clone()
	if !bytes.Equal(c.Encode(), enc) {
		t.Fatal("the clone encodes differently")
	}
	if &c.Recs[0].Recs[0] == &b.Recs[0].Recs[0] || &c.Recs[0].Recs[0].Body[0] == &b.Recs[0].Recs[0].Body[0] {
		t.Fatal("the clone shares the carried batch's records")
	}
}

// FuzzReplayBatchDecode fuzzes the replay-batch wire format (the recovery
// fast path) as a ChanReplay frame's body: arbitrary bytes either fail to
// decode, or yield records whose re-encoding round-trips and whose sizes
// account for every input byte. A body that is no records batch decodes as
// opaque bytes, with no records; checkpoint chunks, having no bool fields,
// must re-encode byte-identically.
func FuzzReplayBatchDecode(f *testing.F) {
	full := batchFrame(sampleRecs()[:2], 2, 1)
	f.Add(batchBody(full))
	f.Add(batchBody(batchFrame(nil, 1, 1))) // empty batch, count 0
	f.Add(EncodeCkChunk(nil, sampleProc, 2, 0, 3, []byte("checkpoint bytes")))
	f.Add(EncodeCkChunk(nil, sampleProc, 1, 2, 3, nil))
	f.Add([]byte{})
	f.Add([]byte{BatchRecords})
	f.Add(bytes.Repeat([]byte{0xff}, BatchHdrLen))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, ferr := Decode(carrying(data))
		h, err := DecodeBatchHdr(data)
		if err != nil {
			// No batch: the chunk decoder agrees, and the frame keeps the
			// bytes as they are.
			if _, _, err := DecodeCkChunk(data); err == nil {
				t.Fatal("DecodeCkChunk accepted input DecodeBatchHdr rejected")
			}
			if ferr != nil || fr.Recs != nil || !bytes.Equal(fr.Body, data) {
				t.Fatalf("a body with no batch header decoded to %+v, %v", fr, ferr)
			}
			return
		}
		switch h.Kind {
		case BatchRecords:
			if ferr != nil {
				if !errors.Is(ferr, ErrShortFrame) {
					t.Fatalf("undocumented batch decode error: %v", ferr)
				}
				return
			}
			if h2, err := DecodeBatchHdr(fr.Body); err != nil || h2 != h || len(fr.Body) != BatchHdrLen {
				t.Fatalf("header mismatch: %+v (%v) vs %+v", h2, err, h)
			}
			if uint32(len(fr.Recs)) != h.Count {
				t.Fatalf("decoded %d records, header says %d", len(fr.Recs), h.Count)
			}
			// ReplayLen is what the recorder budgets batches with; it must
			// account for every byte the decoder consumed.
			if n := BatchHdrLen + replayLen(fr.Recs); n != len(data) || fr.BodyLen() != len(data) {
				t.Fatalf("ReplayLen sum %d, BodyLen %d, input length %d", n, fr.BodyLen(), len(data))
			}
			// Re-encode and re-decode: the fixed point must hold (bool bytes
			// are canonicalized to 1, so byte identity is not required).
			back, err := Decode(fr.Encode())
			if err != nil {
				t.Fatalf("re-encoding does not decode: %v", err)
			}
			normalizeBody(fr)
			normalizeBody(back)
			if !reflect.DeepEqual(fr, back) {
				t.Fatalf("records round-trip mismatch:\n got %+v\nwant %+v", back, fr)
			}
		case BatchCkChunk:
			h2, chunk, err := DecodeCkChunk(data)
			if err != nil {
				t.Fatalf("chunk with valid header failed: %v", err)
			}
			if h2 != h {
				t.Fatalf("header mismatch: %+v vs %+v", h2, h)
			}
			if enc := EncodeCkChunk(nil, h.Proc, h.Gen, h.Seq, h.Count, chunk); !bytes.Equal(enc, data) {
				t.Fatalf("chunk re-encoding not byte-identical:\n in=%x\nout=%x", data, enc)
			}
			if ferr != nil || fr.Recs != nil || !bytes.Equal(fr.Body, data) {
				t.Fatalf("a chunk decoded to %+v, %v", fr, ferr)
			}
		default:
			t.Fatalf("DecodeBatchHdr accepted unknown kind %d", h.Kind)
		}
	})
}

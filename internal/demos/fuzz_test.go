package demos

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"publishing/internal/frame"
)

// batchCorpus returns encoded replay-batch bodies covering both batch kinds,
// records with and without links, empty batches, and a checkpoint chunk.
func batchCorpus() [][]byte {
	proc := frame.ProcID{Node: 1, Local: 2}
	recs := []ReplayRec{
		{
			ID:   frame.MsgID{Sender: frame.ProcID{Node: 0, Local: 1}, Seq: 3},
			From: frame.ProcID{Node: 0, Local: 1}, Channel: 5, Code: 9,
			Body: []byte("replayed body"),
		},
		{
			ID:   frame.MsgID{Sender: frame.ProcID{Node: 2, Local: 7}, Seq: 1},
			From: frame.ProcID{Node: 2, Local: 7},
			Link: &frame.Link{To: frame.ProcID{Node: 2, Local: 7}, Channel: 4, Code: 1, DeliverToKernel: true},
		},
	}
	full := BeginReplayBatch(nil, proc, 2, 1)
	for i := range recs {
		full = AppendReplayRec(full, &recs[i])
	}
	FinishReplayBatch(full, len(recs))
	return [][]byte{
		full,
		BeginReplayBatch(nil, proc, 1, 1), // empty batch, count 0
		EncodeCkChunk(nil, proc, 2, 0, 3, []byte("checkpoint bytes")),
		EncodeCkChunk(nil, proc, 1, 2, 3, nil),
	}
}

// FuzzReplayBatchDecode fuzzes the replay-batch wire format (the recovery
// fast path): arbitrary bytes either fail to decode, or yield records whose
// re-encoding round-trips and whose sizes account for every input byte.
// Checkpoint chunks, having no bool fields, must re-encode byte-identically.
func FuzzReplayBatchDecode(f *testing.F) {
	for _, b := range batchCorpus() {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{batchKindRecords})
	f.Add(bytes.Repeat([]byte{0xff}, batchHeaderLen))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DecodeBatchHdr(data)
		if err != nil {
			// The full decoders must agree with the header decoder.
			if _, _, err := DecodeReplayBatch(data, nil); err == nil {
				t.Fatal("DecodeReplayBatch accepted input DecodeBatchHdr rejected")
			}
			if _, _, err := DecodeCkChunk(data); err == nil {
				t.Fatal("DecodeCkChunk accepted input DecodeBatchHdr rejected")
			}
			return
		}
		switch h.Kind {
		case batchKindRecords:
			h2, recs, err := DecodeReplayBatch(data, nil)
			if err != nil {
				return
			}
			if h2 != h {
				t.Fatalf("header mismatch: %+v vs %+v", h2, h)
			}
			if uint32(len(recs)) != h.Count {
				t.Fatalf("decoded %d records, header says %d", len(recs), h.Count)
			}
			// EncodedLen is what senders budget batches with; it must account
			// for every byte the decoder consumed.
			total := batchHeaderLen
			for i := range recs {
				total += recs[i].EncodedLen()
			}
			if total != len(data) {
				t.Fatalf("EncodedLen sum %d != input length %d", total, len(data))
			}
			// Re-encode and re-decode: the fixed point must hold (bool bytes
			// are canonicalized to 1, so byte identity is not required).
			enc := BeginReplayBatch(nil, h.Proc, h.Gen, h.Seq)
			for i := range recs {
				enc = AppendReplayRec(enc, &recs[i])
			}
			FinishReplayBatch(enc, len(recs))
			h3, back, err := DecodeReplayBatch(enc, nil)
			if err != nil {
				t.Fatalf("re-encoding does not decode: %v", err)
			}
			if h3 != h || !reflect.DeepEqual(normalizeRecs(recs), normalizeRecs(back)) {
				t.Fatalf("records round-trip mismatch:\n got %+v\nwant %+v", back, recs)
			}
		case batchKindCkChunk:
			h2, chunk, err := DecodeCkChunk(data)
			if err != nil {
				t.Fatalf("chunk with valid header failed: %v", err)
			}
			if h2 != h {
				t.Fatalf("header mismatch: %+v vs %+v", h2, h)
			}
			enc := EncodeCkChunk(nil, h.Proc, h.Gen, h.Seq, h.Count, chunk)
			if !bytes.Equal(enc, data) {
				t.Fatalf("chunk re-encoding not byte-identical:\n in=%x\nout=%x", data, enc)
			}
		default:
			t.Fatalf("DecodeBatchHdr accepted unknown kind %d", h.Kind)
		}
	})
}

// normalizeRecs maps empty bodies to nil so records decoded from different
// backings compare equal under DeepEqual.
func normalizeRecs(recs []ReplayRec) []ReplayRec {
	out := make([]ReplayRec, len(recs))
	for i, r := range recs {
		if len(r.Body) == 0 {
			r.Body = nil
		}
		out[i] = r
	}
	return out
}

// kernelImage is a checkpoint image as the kernel writes one (process.image):
// a machine snapshot, a link table, and the given acceptance marks.
func kernelImage(t testing.TB, marks ...frame.MsgID) []byte {
	p := &process{
		machine: &funcMachine{snap: func() ([]byte, error) { return []byte("state"), nil }},
		links:   newLinkTable(),
	}
	p.links.insert(frame.Link{To: frame.ProcID{Node: 2, Local: 1}, Channel: 3})
	p.links.insert(frame.Link{To: frame.ProcID{Node: 0, Local: 4}, Code: 7})
	for _, id := range marks {
		p.marks.Note(id)
	}
	b, err := p.image()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzCheckpointMarks fuzzes the marks trailer CheckpointMarks reads. Input
// it accepts ends in exactly the trailer its marks encode to, and never
// claims more ids than it holds; a kernel-written image round-trips through
// the reader and through Spawn's decoder.
func FuzzCheckpointMarks(f *testing.F) {
	a, b := frame.ProcID{Node: 0, Local: 1}, frame.ProcID{Node: 3, Local: 2}
	f.Add(kernelImage(f))
	f.Add(kernelImage(f, frame.MsgID{Sender: b, Seq: 9}, frame.MsgID{Sender: a, Seq: 4}))
	f.Add([]byte{0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		marks, err := CheckpointMarks(data)
		if len(data) >= 4 {
			n := uint64(binary.BigEndian.Uint32(data[len(data)-4:]))
			if n*frame.AckIDLen+4 > uint64(len(data)) && err == nil {
				t.Fatalf("accepted a count of %d ids in %d bytes", n, len(data))
			}
		}
		if err != nil || len(data) == 0 {
			return
		}
		var trailer []byte
		for _, id := range marks {
			trailer = frame.AppendAckID(trailer, id)
		}
		trailer = binary.BigEndian.AppendUint32(trailer, uint32(len(marks)))
		if !bytes.HasSuffix(data, trailer) {
			t.Fatalf("marks %v re-encode to %x, not the input's tail %x", marks, trailer, data)
		}
		img := kernelImage(t, marks...)
		got, err := CheckpointMarks(img)
		if err != nil || !reflect.DeepEqual(got, marks) {
			t.Fatalf("a kernel image of %v reads back as %v (%v)", marks, got, err)
		}
		if _, got, err := decodeCheckpoint(img); err != nil || !reflect.DeepEqual(got, marks) {
			t.Fatalf("Spawn's decoder reads a kernel image of %v as %v (%v)", marks, got, err)
		}
	})
}

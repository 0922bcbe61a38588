package frame

import (
	"errors"
	"reflect"
	"testing"
)

// frameCorpus returns representative frames covering every encoder branch:
// body/no body, passed link, control types, corrupt checksum.
func frameCorpus() []*Frame {
	return []*Frame{
		{
			Type: Guaranteed, Src: 0, Dst: 1,
			ID:   MsgID{Sender: ProcID{Node: 0, Local: 1}, Seq: 7},
			From: ProcID{Node: 0, Local: 1}, To: ProcID{Node: 1, Local: 2},
			Channel: 3, Code: 99, XSeq: 1<<48 | 12, XLow: 1<<48 | 10,
			Body: []byte("step=7 sum=42"),
		},
		{
			Type: Guaranteed, Src: 2, Dst: Broadcast,
			ID:   MsgID{Sender: ProcID{Node: 2, Local: 5}, Seq: 1},
			From: ProcID{Node: 2, Local: 5}, To: ProcID{Node: 1, Local: 0},
			DeliverToKernel: true,
			PassedLink:      &Link{To: ProcID{Node: 2, Local: 5}, Channel: 9, Code: 4, DeliverToKernel: true},
			Body:            []byte{0x00},
		},
		{Type: Ack, Src: 1, Dst: 0, ID: MsgID{Sender: ProcID{Node: 0, Local: 1}, Seq: 7}, XSeq: 12},
		{
			Type: Ack, Src: 1, Dst: 0,
			ID:        MsgID{Sender: ProcID{Node: 0, Local: 1}, Seq: 7},
			AckCumSet: true, AckCum: 1<<48 | 6,
			AckRecs: []AckRec{
				{ID: MsgID{Sender: ProcID{Node: 0, Local: 1}, Seq: 7}, Rcv: ProcID{Node: 1, Local: 2}},
				{ID: MsgID{Sender: ProcID{Node: 0, Local: 3}, Seq: 2}, Rcv: ProcID{Node: 1, Local: 2}},
			},
		},
		{
			Type: Guaranteed, Src: 1, Dst: 0,
			ID:   MsgID{Sender: ProcID{Node: 1, Local: 4}, Seq: 3},
			From: ProcID{Node: 1, Local: 4}, To: ProcID{Node: 0, Local: 1},
			XSeq: 3, Body: []byte("reverse data"),
			AckRecs: []AckRec{{ID: MsgID{Sender: ProcID{Node: 0, Local: 1}, Seq: 9}, Rcv: ProcID{Node: 1, Local: 2}}},
		},
		{Type: Bundle, Src: 0, Dst: 1, XLow: 1<<48 | 10, Recs: bundleCorpus()},
		{
			Type: Bundle, Src: 1, Dst: 0, XLow: 1<<48 | 3,
			Recs:      bundleCorpus()[2:],
			AckCumSet: true, AckCum: 1<<48 | 6,
			AckRecs: []AckRec{{ID: MsgID{Sender: ProcID{Node: 0, Local: 1}, Seq: 9}, Rcv: ProcID{Node: 1, Local: 2}}},
		},
		{Type: Bundle, Src: 2, Dst: 3},
		{Type: RecorderAck, Src: 3, Dst: Broadcast, ID: MsgID{Sender: ProcID{Node: 0, Local: 1}, Seq: 8}},
		{Type: Unguaranteed, Src: 0, Dst: 2, From: ProcID{Node: 0, Local: 0}, To: ProcID{Node: 2, Local: 0}, Body: []byte{0x01}},
		{Type: Token},
		{
			Type: Guaranteed, Src: 0, Dst: 1,
			ID:   MsgID{Sender: ProcID{Node: 0, Local: 1}, Seq: 9},
			From: ProcID{Node: 0, Local: 1}, To: ProcID{Node: 1, Local: 2},
			Body: []byte("noise got me"), Corrupt: true,
		},
	}
}

// normalizeBody maps an empty body, record list or record body to nil so
// frames decoded into fresh and reused Frames (which differ only in
// empty-slice identity) compare equal. A record's own records (a batch in a
// Bundle) are normalized too.
func normalizeBody(f *Frame) {
	if len(f.Body) == 0 {
		f.Body = nil
	}
	f.Recs = normalizeRecs(f.Recs)
}

func normalizeRecs(recs []BundleRec) []BundleRec {
	if len(recs) == 0 {
		return nil
	}
	for i := range recs {
		if len(recs[i].Body) == 0 {
			recs[i].Body = nil
		}
		recs[i].Recs = normalizeRecs(recs[i].Recs)
	}
	return recs
}

// checkBatch checks a decoded records batch, a frame's or a Bundle
// record's, against what FuzzReplayBatchDecode asks of a batch body: the
// header counts the records and the records account for every byte after
// it, so the body cut short or with a trailing byte does not decode, and
// with an unknown kind it is no batch.
func checkBatch(t *testing.T, body []byte, recs []BundleRec) {
	t.Helper()
	h, err := DecodeBatchHdr(body)
	if err != nil || h.Kind != BatchRecords || int(h.Count) != len(recs) || len(body) != BatchHdrLen {
		t.Fatalf("batch with %d records has header %+v (%d B, %v)", len(recs), h, len(body), err)
	}
	wire := appendReplayRecs(append([]byte(nil), body...), recs)
	if len(wire) != BatchHdrLen+replayLen(recs) {
		t.Fatalf("batch encodes to %d bytes, ReplayLen counts %d", len(wire), BatchHdrLen+replayLen(recs))
	}
	if len(recs) > 0 {
		if _, _, err := splitBatch(wire[:len(wire)-1], nil); err == nil {
			t.Fatal("a batch one byte short decoded")
		}
	}
	if _, _, err := splitBatch(append(wire, 0), nil); err == nil {
		t.Fatal("a batch with a trailing byte decoded")
	}
	wire[0] = 99
	if _, err := DecodeBatchHdr(wire); err == nil || isBatch(ChanReplay, wire) {
		t.Fatal("a batch of unknown kind accepted")
	}
}

// FuzzFrameDecode fuzzes the link-layer frame codec: arbitrary bytes either
// fail Decode with one of the documented errors, or decode to a frame whose
// re-encoding decodes back to the identical frame. Byte-for-byte encode
// identity is deliberately NOT asserted — decode accepts any nonzero byte as
// a bool while encode always emits 1 — but the decode∘encode fixed point
// must hold, and a corrupted re-encoding must be rejected.
func FuzzFrameDecode(f *testing.F) {
	for _, fr := range frameCorpus() {
		f.Add(fr.Encode())
	}
	f.Add([]byte{})
	f.Add(make([]byte, headerLen+checksumLen))
	f.Add(frameCorpus()[0].Encode()[:headerLen])
	// A Bundle whose body is not a record list: DecodeInto rejects it.
	f.Add(asBundle((&Frame{Type: Unguaranteed, Body: []byte("opaque bundle records")}).Encode()))
	// A replay batch, a checkpoint chunk, and a Bundle carrying a
	// one-record batch.
	f.Add(batchFrame(sampleRecs(), 3, 12).Encode())
	chunk := batchFrame(nil, 2, 0)
	chunk.Body = EncodeCkChunk(nil, sampleProc, 2, 0, 3, []byte("checkpoint bytes"))
	f.Add(chunk.Encode())
	var one BundleRec
	one.RecOf(batchFrame(sampleRecs()[1:2], 2, 5))
	f.Add((&Frame{Type: Bundle, Src: 3, Dst: 1, Recs: []BundleRec{one, bundleCorpus()[0]}}).Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrShortFrame) && !errors.Is(err, ErrBadChecksum) && !errors.Is(err, ErrBadType) {
				t.Fatalf("undocumented decode error: %v", err)
			}
			return
		}
		if fr.Corrupt {
			t.Fatal("decode accepted a frame yet left Corrupt set")
		}
		if fr.Type != Bundle && fr.Recs != nil {
			checkBatch(t, fr.Body, fr.Recs)
		}
		for i := range fr.Recs {
			if r := &fr.Recs[i]; r.Recs != nil {
				checkBatch(t, r.Body, r.Recs)
			}
		}

		enc := fr.Encode()
		if want := fr.WireLen(); len(enc) != want {
			t.Fatalf("WireLen %d but encoded %d bytes", want, len(enc))
		}
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoding does not decode: %v", err)
		}
		normalizeBody(fr)
		normalizeBody(back)
		if !reflect.DeepEqual(fr, back) {
			t.Fatalf("decode/encode not a fixed point:\n got %+v\nwant %+v", back, fr)
		}

		// DecodeInto must agree with Decode even when reusing a dirty frame.
		dirty := &Frame{Body: make([]byte, 64), PassedLink: &Link{Channel: 77}, Corrupt: true, Recs: make([]BundleRec, 3)}
		if err := DecodeInto(dirty, data); err != nil {
			t.Fatalf("DecodeInto failed where Decode succeeded: %v", err)
		}
		normalizeBody(dirty)
		if !reflect.DeepEqual(fr, dirty) {
			t.Fatalf("DecodeInto reuse diverged:\n got %+v\nwant %+v", dirty, fr)
		}

		// Invalidating the checksum — how injected noise and the ring
		// recorder's store-failure signal appear on the wire — must be caught.
		fr.Corrupt = true
		if _, err := Decode(fr.Encode()); !errors.Is(err, ErrBadChecksum) {
			t.Fatalf("corrupt re-encoding not rejected: %v", err)
		}
	})
}

package demos

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"publishing/internal/frame"
)

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

package demos

import (
	"bytes"
	"reflect"
	"testing"

	"publishing/internal/frame"
)

// kernelImage is a checkpoint image as the kernel writes one (process.appendImage):
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
	b, err := p.appendImage(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzCheckpointMarks fuzzes the image reader the recorder trims and fences
// streams by. Input it accepts is the one encoding of the image it decodes
// to, with marks in strict sender order, and a kernel-written image with
// those marks reads back as them.
func FuzzCheckpointMarks(f *testing.F) {
	a, b := frame.ProcID{Node: 0, Local: 1}, frame.ProcID{Node: 3, Local: 2}
	f.Add(kernelImage(f))
	f.Add(kernelImage(f, frame.MsgID{Sender: b, Seq: 9}, frame.MsgID{Sender: a, Seq: 4}))
	f.Add([]byte{0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		marks, err := CheckpointMarks(data)
		if err != nil || len(data) == 0 {
			return
		}
		var img checkpointImage
		_ = frame.DecodeBody(data, &img, codeImage)
		if again := frame.AppendBody(nil, &img, codeImage); !bytes.Equal(again, data) {
			t.Fatalf("%x decodes to %+v, which encodes to %x", data, img, again)
		}
		for i := 1; i < len(marks); i++ {
			if marks[i-1].Sender.Compare(marks[i].Sender) >= 0 {
				t.Fatalf("accepted marks out of sender order: %v", marks)
			}
		}
		if got, err := CheckpointMarks(kernelImage(t, marks...)); err != nil || !reflect.DeepEqual(got, marks) {
			t.Fatalf("a kernel image of %v reads back as %v (%v)", marks, got, err)
		}
	})
}

package frame

import (
	"cmp"
	"encoding/binary"
	"errors"
	"maps"
	"math"
	"slices"
)

// Coder is the one binary codec of every body and record the kernel, the
// recorder and the system processes build. A body is its fields in order:
// integers as varints (signed ones zigzagged), byte strings and slices as
// their length then their contents, maps as their entries in ascending key
// order. There are no tags and no type descriptors.
//
// Each type has one code function, which a Coder runs either way: an
// encoder appends the fields, a decoder reads them back into the same
// fields, so the two cannot drift apart. A decoder is strict: the first
// field cut short, not a varint in its shortest form or out of its type's
// range sticks, as does a Fail, and so does a byte left over at the end. A
// body therefore has one encoding.
type Coder struct {
	b   []byte // an encoder's output, a decoder's unread input
	dec bool
	bad bool
}

// The most bytes a Coder writes for a process id and for a message id.
const (
	MaxProcIDLen = 2 * binary.MaxVarintLen32
	MaxMsgIDLen  = MaxProcIDLen + binary.MaxVarintLen64
)

// AppendBody appends v, as code writes it, to dst.
func AppendBody[T any](dst []byte, v *T, code func(*Coder, *T)) []byte {
	c := Coder{b: dst}
	code(&c, v)
	return c.b
}

// DecodeBody reads v from all of b as code reads it. The byte strings it
// decodes alias b and are read-only.
func DecodeBody[T any](b []byte, v *T, code func(*Coder, *T)) error {
	c := Coder{b: b, dec: true}
	if code(&c, v); c.bad || len(c.b) != 0 {
		return errMalformed
	}
	return nil
}

var errMalformed = errors.New("frame: body cut short, with bytes left over, or with a field not in its shortest form or out of range")

// Decoding reports whether c reads.
func (c *Coder) Decoding() bool { return c.dec }

// Fail marks a decode malformed: a code function found a field at odds with
// another.
func (c *Coder) Fail() { c.bad = true }

// Uvarint decodes the uvarint at the head of b, returning it and its length.
// n <= 0 means b does not start with one in its shortest form: unlike
// binary.Uvarint it rejects padded (overlong) encodings, so a decoder that
// reads through it accepts one encoding per value.
func Uvarint(b []byte) (v uint64, n int) {
	v, n = binary.Uvarint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, -n
	}
	return v, n
}

// uvarint codes *v, which a decoder takes only up to max.
func (c *Coder) uvarint(v *uint64, max uint64) {
	if !c.dec {
		c.b = binary.AppendUvarint(c.b, *v)
		return
	}
	x, n := Uvarint(c.b)
	if c.bad || n <= 0 || x > max {
		c.bad, *v = true, 0
		return
	}
	c.b, *v = c.b[n:], x
}

// Uint codes *v as a uvarint. Like every coding function it writes *v only
// when decoding, so a value being encoded may be shared.
func Uint[T ~uint8 | ~uint16 | ~uint32 | ~uint64](c *Coder, v *T) {
	x := uint64(*v)
	if c.uvarint(&x, uint64(^T(0))); c.dec {
		*v = T(x)
	}
}

// Int codes *v as a zigzag varint.
func Int[T ~int8 | ~int16 | ~int32 | ~int | ~int64](c *Coder, v *T) {
	x := int64(*v)
	z := uint64(x<<1) ^ uint64(x>>63)
	if c.uvarint(&z, math.MaxUint64); !c.dec {
		return
	}
	if x = int64(z>>1) ^ -int64(z&1); int64(T(x)) != x {
		c.bad, x = true, 0
	}
	*v = T(x)
}

// Bool codes *v as one byte, 0 or 1.
func (c *Coder) Bool(v *bool) {
	var x uint64
	if *v {
		x = 1
	}
	if c.uvarint(&x, 1); c.dec {
		*v = x == 1
	}
}

// bytes reads a byte string's length and returns that many bytes,
// capacity capped.
func (c *Coder) bytes() []byte {
	var x uint64
	if c.uvarint(&x, math.MaxUint64); x > uint64(len(c.b)) {
		c.bad = true
		return nil
	}
	b := c.b[:x:x]
	c.b = c.b[x:]
	return b
}

// Blob codes a byte string. An empty one decodes as nil.
func (c *Coder) Blob(v *[]byte) {
	if !c.dec {
		c.b = append(binary.AppendUvarint(c.b, uint64(len(*v))), *v...)
	} else if *v = c.bytes(); len(*v) == 0 {
		*v = nil
	}
}

// Text codes a string.
func (c *Coder) Text(v *string) {
	if !c.dec {
		c.b = append(binary.AppendUvarint(c.b, uint64(len(*v))), *v...)
	} else {
		*v = string(c.bytes())
	}
}

// Slice codes a slice's length; the caller then codes each element of *v.
// A decoder sets *v to that many zero elements, nil for none, but no more
// than the bytes left, since an element codes to one byte at least.
func Slice[S ~[]E, E any](c *Coder, v *S) {
	n := uint64(len(*v))
	if c.uvarint(&n, uint64(len(c.b))); c.dec {
		*v = nil
		if n > 0 {
			*v = make(S, n)
		}
	}
}

// Map codes m's entries in ascending key order, each its key then its
// value. A decoder makes a map even for no entries and rejects keys out of
// order, so a map has one encoding whatever order Go ranges over it in.
func Map[K cmp.Ordered, V any](c *Coder, m *map[K]V, key func(*Coder, *K), val func(*Coder, *V)) {
	keys := slices.Sorted(maps.Keys(*m))
	if Slice(c, &keys); c.dec {
		*m = make(map[K]V, len(keys))
	}
	for i := range keys {
		key(c, &keys[i])
		v := (*m)[keys[i]]
		if val(c, &v); c.dec {
			c.bad = c.bad || i > 0 && keys[i] <= keys[i-1]
			(*m)[keys[i]] = v
		}
	}
}

// Proc codes a process id: its node, then its local id.
func (c *Coder) Proc(p *ProcID) {
	if !c.dec {
		c.b = AppendProcID(c.b, *p)
		return
	}
	Int(c, &p.Node)
	Uint(c, &p.Local)
}

// MsgID codes a message id: its sender, then its seq.
func (c *Coder) MsgID(id *MsgID) {
	if !c.dec {
		c.b = AppendMsgID(c.b, *id)
		return
	}
	c.Proc(&id.Sender)
	Uint(c, &id.Seq)
}

// AppendProcID appends p as Proc codes it, with no call per field: ids are
// on the recorder's per-message path.
func AppendProcID(dst []byte, p ProcID) []byte {
	return binary.AppendUvarint(binary.AppendVarint(dst, int64(p.Node)), uint64(p.Local))
}

// AppendMsgID appends id as MsgID codes it.
func AppendMsgID(dst []byte, id MsgID) []byte {
	return binary.AppendUvarint(AppendProcID(dst, id.Sender), id.Seq)
}

// Link codes a link.
func (c *Coder) Link(l *Link) {
	c.Proc(&l.To)
	Uint(c, &l.Channel)
	Uint(c, &l.Code)
	c.Bool(&l.DeliverToKernel)
}

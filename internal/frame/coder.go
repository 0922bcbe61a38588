package frame

import (
	"cmp"
	"encoding/binary"
	"errors"
	"maps"
	"math"
	"slices"
	"unsafe"
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
//
// In wire mode (AppendWire, DecodeWire) a Coder codes the network's
// fixed-width layouts: an integer big-endian at its type's width, a bool one
// byte, 0 or 1, and a byte string's or a slice's length a u32. A frame's
// length is its wire time, so it follows from its layout's widths
// (Frame.WireLen).
type Coder struct {
	b    []byte // an encoder's output, a decoder's unread input
	dec  bool
	wire bool
	bad  bool
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

// AppendWire appends v, as code writes it in wire mode, to dst.
func AppendWire[T any](dst []byte, v *T, code func(*Coder, *T)) []byte {
	c := Coder{b: dst, wire: true}
	code(&c, v)
	return c.b
}

// DecodeWire reads v from all of b as code reads it in wire mode. The byte
// strings it decodes alias b and are read-only.
func DecodeWire[T any](b []byte, v *T, code func(*Coder, *T)) error {
	c := Coder{b: b, dec: true, wire: true}
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

// fixed codes *v big-endian at its width, in two's complement if signed:
// an integer in wire mode.
func fixed[T ~int8 | ~int16 | ~int32 | ~int | ~int64 | ~uint8 | ~uint16 | ~uint32 | ~uint64](c *Coder, v *T) {
	n := int(unsafe.Sizeof(*v))
	if !c.dec {
		switch n {
		case 1:
			c.b = append(c.b, byte(*v))
		case 2:
			c.b = binary.BigEndian.AppendUint16(c.b, uint16(*v))
		case 4:
			c.b = binary.BigEndian.AppendUint32(c.b, uint32(*v))
		default:
			c.b = binary.BigEndian.AppendUint64(c.b, uint64(*v))
		}
		return
	}
	if c.bad || len(c.b) < n {
		c.bad, *v = true, 0
		return
	}
	switch n {
	case 1:
		*v = T(c.b[0])
	case 2:
		*v = T(binary.BigEndian.Uint16(c.b))
	case 4:
		*v = T(binary.BigEndian.Uint32(c.b))
	default:
		*v = T(binary.BigEndian.Uint64(c.b))
	}
	c.b = c.b[n:]
}

// Uint codes *v as a uvarint, or in wire mode at its width. Like every
// coding function it writes *v only when decoding, so a value being encoded
// may be shared.
func Uint[T ~uint8 | ~uint16 | ~uint32 | ~uint64](c *Coder, v *T) {
	if c.wire {
		fixed(c, v)
		return
	}
	x := uint64(*v)
	if c.uvarint(&x, uint64(^T(0))); c.dec {
		*v = T(x)
	}
}

// Int codes *v as a zigzag varint, or in wire mode in two's complement at
// its width.
func Int[T ~int8 | ~int16 | ~int32 | ~int | ~int64](c *Coder, v *T) {
	if c.wire {
		fixed(c, v)
		return
	}
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

// Bool codes *v as one byte, 0 or 1, in either mode.
func (c *Coder) Bool(v *bool) {
	var x uint8
	if *v {
		x = 1
	}
	if fixed(c, &x); c.dec {
		c.bad = c.bad || x > 1
		*v = x == 1
	}
}

// length codes a byte string's or a slice's length, which a decoder takes
// only up to max: a uvarint, or in wire mode a u32.
func (c *Coder) length(n *uint64, max uint64) {
	if !c.wire {
		c.uvarint(n, max)
		return
	}
	x := uint32(*n)
	if fixed(c, &x); c.dec {
		if *n = uint64(x); *n > max {
			c.bad, *n = true, 0
		}
	}
}

// next returns the next n bytes of a decoder's input, capacity capped, or
// nil for none.
func (c *Coder) next(n uint64) (b []byte) {
	if c.bad || n > uint64(len(c.b)) {
		c.bad = true
	} else if n > 0 {
		b, c.b = c.b[:n:n], c.b[n:]
	}
	return b
}

// bytes reads a byte string's length and returns that many bytes.
func (c *Coder) bytes() []byte {
	var x uint64
	c.length(&x, math.MaxUint64)
	return c.next(x)
}

// appendBytes appends a byte string, its length first.
func appendBytes[S string | []byte](c *Coder, s S) {
	n := uint64(len(s))
	c.length(&n, 0)
	c.b = append(c.b, s...)
}

// Blob codes a byte string. An empty one decodes as nil.
func (c *Coder) Blob(v *[]byte) {
	if !c.dec {
		appendBytes(c, *v)
	} else {
		*v = c.bytes()
	}
}

// Text codes a string.
func (c *Coder) Text(v *string) {
	if !c.dec {
		appendBytes(c, *v)
	} else {
		*v = string(c.bytes())
	}
}

// Slice codes a slice's length; the caller then codes each element of *v.
// A decoder sets *v to that many zero elements, nil for none, but no more
// than the bytes left, since an element codes to one byte at least.
func Slice[S ~[]E, E any](c *Coder, v *S) {
	n := uint64(len(*v))
	if c.length(&n, uint64(len(c.b))); c.dec {
		*v = nil
		if n > 0 {
			*v = make(S, n)
		}
	}
}

// Tail sizes a list that runs to the end of the body with no count, of
// elements size bytes each in wire mode; the caller then codes each element
// of *v. A decoder sets *v to as many zero elements as whole ones are left,
// reusing its array; a part of one left over fails at the end.
func Tail[S ~[]E, E any](c *Coder, v *S, size int) {
	if c.dec {
		*v = resize(c, *v, len(c.b)/size, size)
	}
}

// resize returns s holding n zero elements, reusing its array, or nil for
// none: a decoder's room for n elements of at least min bytes each. More
// than the bytes left could hold fails.
func resize[S ~[]E, E any](c *Coder, s S, n, min int) S {
	if n*min > len(c.b) {
		c.bad, n = true, 0
	}
	if n == 0 {
		return nil
	}
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
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

// Proc codes a process id: its node, then its local id. In wire mode it is
// coded as one u64, node high: the two fields' bytes, in one step.
func (c *Coder) Proc(p *ProcID) {
	switch {
	case c.wire:
		x := uint64(uint32(p.Node))<<32 | uint64(p.Local)
		if fixed(c, &x); c.dec {
			p.Node, p.Local = NodeID(int32(x>>32)), uint32(x)
		}
	case !c.dec:
		c.b = AppendProcID(c.b, *p)
	default:
		Int(c, &p.Node)
		Uint(c, &p.Local)
	}
}

// MsgID codes a message id: its sender, then its seq.
func (c *Coder) MsgID(id *MsgID) {
	if !c.dec && !c.wire {
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

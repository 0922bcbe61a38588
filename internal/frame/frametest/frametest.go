// Package frametest checks frame.Coder code functions: each package that
// codes its bodies and states runs its cases through CheckCodec and fuzzes
// each code function with FuzzCodec.
package frametest

import (
	"bytes"
	"reflect"
	"testing"

	"publishing/internal/frame"
)

// CheckCodec checks code on vals: each round-trips, and decoding rejects
// the encoding cut short anywhere, with a byte after it, and with its first
// varint padded to a second byte.
func CheckCodec[T any](t *testing.T, code func(*frame.Coder, *T), vals []T) {
	t.Helper()
	for i := range vals {
		b := frame.AppendBody(nil, &vals[i], code)
		var got T
		if err := frame.DecodeBody(b, &got, code); err != nil || !reflect.DeepEqual(got, vals[i]) {
			t.Fatalf("case %d: %x decodes to %+v (err %v), want %+v", i, b, got, err, vals[i])
		}
		for n := range len(b) {
			if frame.DecodeBody(b[:n], new(T), code) == nil {
				t.Fatalf("case %d: the %d-byte prefix of %x decodes", i, n, b)
			}
		}
		if frame.DecodeBody(append(b[:len(b):len(b)], 0), new(T), code) == nil {
			t.Fatalf("case %d: %x with a trailing byte decodes", i, b)
		}
		if b[0] < 0x80 {
			padded := append([]byte{b[0] | 0x80, 0}, b[1:]...)
			if frame.DecodeBody(padded, new(T), code) == nil {
				t.Fatalf("case %d: %x with its first varint padded decodes", i, b)
			}
		}
	}
}

// FuzzCodec fuzzes code from the encodings of seeds: a body decoded from
// fuzzed input is accepted only if it is the one encoding of what it
// decodes to.
func FuzzCodec[T any](f *testing.F, code func(*frame.Coder, *T), seeds []T) {
	for i := range seeds {
		f.Add(frame.AppendBody(nil, &seeds[i], code))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var v T
		if frame.DecodeBody(b, &v, code) != nil {
			return
		}
		if again := frame.AppendBody(nil, &v, code); !bytes.Equal(again, b) {
			t.Fatalf("%x decodes to %+v, which encodes to %x", b, v, again)
		}
	})
}

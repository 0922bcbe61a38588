// Package gobx amortizes gob's per-stream setup for the values that are
// gob-encoded once per message, per control exchange or per checkpoint on
// the simulator's hot path: the kernel's wire bodies (demos.CtlMsg,
// demos.Notice, demos.CtlReply, demos.QueryResponse), its checkpoint image
// and the link-table snapshot inside it (demos.checkpointImage,
// demos.linkTableImage), and the recorder's rare store records (procMeta,
// ckMeta). The recorder's per-message records — stored messages, read-order
// advisories, last-sent watermarks — do not come through here: they have a
// fixed binary layout of their own (internal/recorder/persist.go).
//
// The contract for those eight types is "one self-contained gob stream per
// value": producers call gob.NewEncoder(buf).Encode(v), consumers
// gob.NewDecoder(r).Decode(v). That contract is what makes a notice or a
// checkpoint record decodable in isolation — but a fresh encoder
// re-transmits the type descriptors and a fresh decoder re-compiles its
// decode engines for every single value, which profiling showed was the
// single largest CPU and allocation line in a 256-node run.
//
// For a fixed concrete type with no interface fields, a gob stream factors
// into a constant prefix (the type-descriptor messages, a pure function of
// the static type graph) followed by one value message. Codec exploits
// that: it keeps one long-lived encoder whose descriptor traffic was
// captured at construction, so each Encode emits only the value message and
// prepends the cached prefix — producing byte-for-byte the stream a fresh
// encoder would. Decode runs the inverse: when the input starts with the
// expected prefix (always, for streams our own encoders produced), the
// value message is fed to a long-lived decoder with already-compiled
// engines; anything else falls back to a fresh decoder, so foreign or
// corrupt streams behave exactly as before.
//
// Byte-identity is not an optimization nicety here. The four demos wire
// types are frame bodies: their length is transmission time on the
// simulated medium and bytes in every lan and transport counter, and a
// notice or control message is itself a published message whose body a
// recorder stores and replays. A checkpoint image rides in a checkpoint
// notice and the recorder stores it, so its length is wire time and store
// bytes too. The two record types set the store's live bytes and where its
// pages fill. All of that is fingerprinted by the determinism oracles (the
// golden fingerprint table, the scale tests, bench), so an encoder that
// changed the stream would change virtual time and every digest.
// gobx_test.go pins the equivalence against the stock encoder on a stand-in
// struct with the field shapes those types use; demos pins it on CtlReply,
// QueryResponse, the checkpoint image and the link-table snapshot
// themselves (this package cannot import demos or recorder).
package gobx

import (
	"bytes"
	"encoding/gob"
	"slices"
	"sync"
)

// Codec encodes and decodes values of the concrete type T as self-contained
// gob streams, byte-compatible with one-shot gob encoders and decoders. T
// must not contain interface-typed fields (the descriptor prefix would then
// depend on the value); the first Encode or Decode panics on types gob
// cannot handle at all, same as the one-shot path.
//
// A Codec is safe for concurrent use; the chaos harness and the golden
// fingerprint test drive clusters from parallel goroutines through
// package-level codecs.
type Codec[T any] struct {
	mu sync.Mutex

	// prefix is the constant type-descriptor section a fresh encoder emits
	// before the first value of T.
	prefix []byte

	enc    *gob.Encoder
	encBuf bytes.Buffer

	dec    *gob.Decoder
	decBuf bytes.Buffer
}

// prime captures the descriptor prefix and warms the persistent encoder and
// decoder. Called lazily under mu so constructing package-level codecs stays
// free.
func (c *Codec[T]) prime() error {
	if c.enc != nil {
		return nil
	}
	var zero T
	// A one-shot encode of the zero value yields prefix+valueMsg(zero)...
	var full bytes.Buffer
	if err := gob.NewEncoder(&full).Encode(&zero); err != nil {
		return err
	}
	// ...and a second encode on a persistent encoder yields valueMsg(zero)
	// alone, which lets us split off the constant prefix.
	c.enc = gob.NewEncoder(&c.encBuf)
	if err := c.enc.Encode(&zero); err != nil {
		c.enc = nil
		return err
	}
	c.encBuf.Reset()
	if err := c.enc.Encode(&zero); err != nil {
		c.enc = nil
		return err
	}
	valueLen := c.encBuf.Len()
	c.prefix = append([]byte(nil), full.Bytes()[:full.Len()-valueLen]...)
	c.encBuf.Reset()

	c.dec = gob.NewDecoder(&c.decBuf)
	c.decBuf.Write(full.Bytes())
	if err := c.dec.Decode(&zero); err != nil {
		c.enc, c.dec = nil, nil
		return err
	}
	c.decBuf.Reset()
	return nil
}

// Encode appends the gob stream for v to dst and returns the extended
// slice. The appended bytes are exactly what gob.NewEncoder(w).Encode(v)
// would write.
func (c *Codec[T]) Encode(dst []byte, v *T) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.prime(); err != nil {
		return dst, err
	}
	c.encBuf.Reset()
	if err := c.enc.Encode(v); err != nil {
		// The persistent encoder's stream state is suspect after a failed
		// encode; rebuild on next use.
		c.enc = nil
		return dst, err
	}
	// One growth to the exact length: a nil dst costs one allocation.
	dst = slices.Grow(dst, len(c.prefix)+c.encBuf.Len())
	dst = append(dst, c.prefix...)
	return append(dst, c.encBuf.Bytes()...), nil
}

// Decode decodes one value of T from the gob stream b. Streams produced by
// Encode (or any fresh gob encoder, which emit the same bytes) take the
// fast path; anything else — foreign descriptor layouts, corruption — is
// retried with a one-shot decoder so behavior matches gob exactly.
func (c *Codec[T]) Decode(b []byte, v *T) error {
	c.mu.Lock()
	if err := c.prime(); err != nil {
		c.mu.Unlock()
		return err
	}
	if bytes.HasPrefix(b, c.prefix) {
		c.decBuf.Reset()
		c.decBuf.Write(b[len(c.prefix):])
		err := c.dec.Decode(v)
		if err == nil {
			c.mu.Unlock()
			return nil
		}
		// A failed decode may leave the persistent decoder mid-stream;
		// rebuild it, then let the one-shot path produce the error (or the
		// value, if the stream was merely unusual).
		c.dec, c.enc = nil, nil
		c.decBuf.Reset()
	}
	c.mu.Unlock()
	return gob.NewDecoder(bytes.NewReader(b)).Decode(v)
}

package frame

// Slab carves byte strings out of append-only chunks, so a short body built
// on a hot path (a replay batch's header, a batch acknowledgement) costs one
// allocation per chunk instead of one each. Nothing a slab hands out is
// written again, by the slab or by anyone appending to it: like every body
// (Msg.Body), what it carves is read-only from Send on, and a chunk lives
// while any body carved from it does. The zero Slab is ready to use.
type Slab struct {
	chunk []byte
	room  int // the size of the room last handed out
}

// slabLen is a chunk's size: a 2 KB size class holds about 70 replay batch
// headers, or some 280 batch acknowledgements.
const slabLen = 2048

// Room returns empty room for up to n bytes at the end of the current
// chunk, starting a new chunk when fewer are left. Append to it and hand
// the result to Keep before asking for room again.
func (s *Slab) Room(n int) []byte {
	if cap(s.chunk)-len(s.chunk) < n {
		s.chunk = make([]byte, 0, max(n, slabLen))
	}
	s.room = n
	at := len(s.chunk)
	return s.chunk[at : at : at+n]
}

// Keep takes b, the room Room returned with bytes appended, out of the
// chunk for good and returns it capped at its length. A b that outgrew its
// room is the append's own allocation, and the chunk keeps the room.
func (s *Slab) Keep(b []byte) []byte {
	if len(b) <= s.room {
		s.chunk = s.chunk[:len(s.chunk)+len(b)]
	}
	s.room = 0
	return b[:len(b):len(b)]
}

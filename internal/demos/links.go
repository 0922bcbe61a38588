package demos

import (
	"cmp"
	"fmt"
	"slices"

	"publishing/internal/frame"
)

// linkTable is a process's kernel-resident table of links (§4.2.2.1).
// "Links exist outside of the address space of the processes, either in
// messages or in kernel resident link tables" — so the table is part of the
// kernel state a checkpoint must capture. Ids come from a counter, so
// appending keeps the links in id order, and a checkpoint image of the
// table is byte-deterministic.
type linkTable struct {
	next  LinkID
	links []linkEntry
}

type linkEntry struct {
	ID   LinkID
	Link frame.Link
}

func newLinkTable() *linkTable { return &linkTable{} }

// insert adds a link and returns its id.
func (t *linkTable) insert(l frame.Link) LinkID {
	id := t.next
	t.next++
	t.links = append(t.links, linkEntry{id, l})
	return id
}

// find returns id's position, or where it would go.
func (t *linkTable) find(id LinkID) (int, bool) {
	return slices.BinarySearchFunc(t.links, id, func(e linkEntry, id LinkID) int { return cmp.Compare(e.ID, id) })
}

// get looks a link up.
func (t *linkTable) get(id LinkID) (frame.Link, bool) {
	i, ok := t.find(id)
	if !ok {
		return frame.Link{}, false
	}
	return t.links[i].Link, true
}

// remove deletes a link, returning it (for links passed away in messages:
// "The link is removed from the sender's link table and copied into the
// message", §4.2.2.3).
func (t *linkTable) remove(id LinkID) (frame.Link, bool) {
	i, ok := t.find(id)
	if !ok {
		return frame.Link{}, false
	}
	l := t.links[i].Link
	t.links = slices.Delete(t.links, i, i+1)
	return l, true
}

// size reports the number of live links.
func (t *linkTable) size() int { return len(t.links) }

// linkTableImage is the serializable form of a link table.
type linkTableImage struct {
	Next  LinkID
	Links []linkEntry
}

// snapshot serializes the table for a checkpoint.
func (t *linkTable) snapshot() []byte {
	return mustEncode(&linkTableCodec, &linkTableImage{Next: t.next, Links: t.links})
}

// restoreLinkTable rebuilds a table from a snapshot.
func restoreLinkTable(b []byte) (*linkTable, error) {
	var img linkTableImage
	if err := linkTableCodec.Decode(b, &img); err != nil {
		return nil, fmt.Errorf("demos: bad link table snapshot: %w", err)
	}
	return &linkTable{next: img.Next, links: img.Links}, nil
}

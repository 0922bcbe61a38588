package demos

import (
	"cmp"
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

// codeLinkTable codes a link table: its next id, then its links in id
// order. A decoder takes only ids that rise and stay below next, so the
// table it builds is one insert could have.
func codeLinkTable(c *frame.Coder, t *linkTable) {
	frame.Int(c, &t.next)
	frame.Slice(c, &t.links)
	prev := LinkID(-1)
	for i := range t.links {
		codeLinkEntry(c, &t.links[i], &prev, t.next)
	}
}

// skipLinkTable reads a link table as strictly as codeLinkTable, one link
// at a time into the same entry, and keeps none of it.
func skipLinkTable(c *frame.Coder) {
	var next LinkID
	var n int
	frame.Int(c, &next)
	c.Len(&n)
	var e linkEntry
	prev := LinkID(-1)
	for range n {
		codeLinkEntry(c, &e, &prev, next)
	}
}

// codeLinkEntry codes one link of a table, which a decoder takes only with
// an id above prev's and below next.
func codeLinkEntry(c *frame.Coder, e *linkEntry, prev *LinkID, next LinkID) {
	frame.Int(c, &e.ID)
	c.Link(&e.Link)
	if e.ID <= *prev || e.ID >= next {
		c.Fail()
	}
	*prev = e.ID
}

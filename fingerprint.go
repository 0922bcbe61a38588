package publishing

import (
	"fmt"
	"strings"
)

// Fingerprint is a cluster's observable state as text. The recovery contract
// (§3.3) makes a process's state a deterministic function of its checkpoint
// and its published stream; this reproduction holds the whole simulation to
// the stronger rule that same-seed runs end with equal fingerprints, and a
// change that moves one shows which section moved.
type Fingerprint struct {
	// Now is the virtual clock and Fired the number of events fired.
	Now   Time
	Fired uint64
	// Metrics is the metrics snapshot in its text form.
	Metrics string
	// Stores holds one dump per recorder rank: a "kind key seq data" line
	// per stored record, in page order.
	Stores []string
}

// Fingerprint reads the cluster's fingerprint. It changes nothing: two calls
// in a row are equal, and one taken between two Runs leaves the rest of the
// run as it would have been. Batched monitor events are not flushed, so read
// it after Run returns for a complete metrics section.
func (c *Cluster) Fingerprint() Fingerprint {
	f := Fingerprint{Now: c.Now(), Fired: c.sched.Fired()}
	var b strings.Builder
	_ = c.mets.Snapshot().WriteText(&b) // a strings.Builder does not fail
	f.Metrics = b.String()
	for _, s := range c.stores {
		var d strings.Builder
		recs, err := s.Peek()
		for _, r := range recs {
			fmt.Fprintf(&d, "%d %q %d %x\n", r.Kind, r.Key, r.Seq, r.Data)
		}
		if err != nil {
			fmt.Fprintf(&d, "error: %v\n", err)
		}
		f.Stores = append(f.Stores, d.String())
	}
	return f
}

// Section is one named part of a fingerprint's text.
type Section struct {
	Name, Text string
}

// Sections returns the fingerprint's canonical text section by section, in
// order: "clock" (the line "now=<ns> fired=<events>"), "metrics", then
// "store/<rank>" per recorder.
func (f Fingerprint) Sections() []Section {
	ss := []Section{
		{"clock", fmt.Sprintf("now=%d fired=%d\n", f.Now, f.Fired)},
		{"metrics", f.Metrics},
	}
	for rank, d := range f.Stores {
		ss = append(ss, Section{fmt.Sprintf("store/%d", rank), d})
	}
	return ss
}

// Diff names the sections in which f and g differ, including a store only
// one of them has.
func (f Fingerprint) Diff(g Fingerprint) []string {
	return diffSections(f.Sections(), g.Sections())
}

// diffSections names the sections in which fs and gs differ, position by
// position, including one only one of them has.
func diffSections(fs, gs []Section) []string {
	var moved []string
	for i := range max(len(fs), len(gs)) {
		switch {
		case i >= len(fs):
			moved = append(moved, gs[i].Name)
		case i >= len(gs) || fs[i] != gs[i]:
			moved = append(moved, fs[i].Name)
		}
	}
	return moved
}

// Package metrics is the simulation's unified measurement registry — the
// role Bart Miller's metering system played for the DEMOS/MP numbers in the
// paper's Ch. 5. Each subsystem (lan, transport, recorder, store, kernel)
// registers its Stats struct, whose integer fields are its counters, and
// any gauges and histograms it keeps, keyed by (node, subsystem, name). A
// snapshot is a deterministic, sorted list of samples, printed in
// Prometheus text exposition style. There is no diffing and no JSON: a
// snapshot is printed, or read sample by sample.
//
// A counter's name is its Stats field's name, by one rule (statFields): the
// field in snake_case, a simtime.Time field with _ns appended, an embedded
// struct's fields as the struct's own, and a field tagged `metric:"-"` left
// out.
//
// Hot-path discipline: a counter is a plain Stats field and a Gauge or
// Histogram update is plain field arithmetic on a pre-allocated struct — no
// maps, no interfaces, no allocation. Stats fields are read only at
// snapshot time.
//
// All values are driven by virtual time (internal/simtime) and deterministic
// event counts, so two runs with the same seed produce byte-identical
// WriteText output — a property the repo's tests assert.
//
// A nil *Registry is safe everywhere: instrument constructors return nil and
// every instrument method is a no-op on a nil receiver, so wiring code can
// instrument unconditionally.
package metrics

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"reflect"
	"sort"
	"strings"
	"sync"

	"publishing/internal/simtime"
)

// numBuckets is the fixed histogram bucket count: power-of-two buckets
// indexed by bits.Len64 cover the whole int64 range.
const numBuckets = 64

// Gauge is an instantaneous level (queue depth, window occupancy).
type Gauge struct{ v int64 }

// Set replaces the level.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v = v
	}
}

// Add moves the level by d (negative to decrease).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v += d
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram records a distribution of int64 observations (virtual-time
// durations in nanoseconds, or sizes in bytes) in power-of-two buckets:
// bucket 0 counts v <= 0, bucket i counts 2^(i-1) <= v < 2^i. Observation is
// a bits.Len64, two adds, and an array increment — no allocation.
type Histogram struct {
	count   int64
	sum     int64
	buckets [numBuckets + 1]int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count++
	h.sum += v
	idx := 0
	if v > 0 {
		idx = bits.Len64(uint64(v))
	}
	h.buckets[idx]++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Quantile estimates the q-quantile (0 < q <= 1) of the observed
// distribution from the power-of-two buckets: the result is the upper bound
// of the first bucket whose cumulative count reaches q·count — the same
// `le`-style bound WriteText labels buckets with. Zero observations give 0.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil || h.count <= 0 {
		return 0
	}
	rank := int64(q*float64(h.count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	cum := int64(0)
	for i, b := range h.buckets {
		cum += b
		if cum >= rank {
			return bucketUpper(i) - 1
		}
	}
	// Unreachable when buckets sum to count; a defensive ceiling otherwise.
	return math.MaxInt64
}

// Kind distinguishes instrument types in snapshots.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// key identifies one instrument.
type key struct {
	node      int
	subsystem string
	name      string
}

// entry is one registered instrument. A gauge is the entry's own g; a
// histogram is carved from the registry's histogram block.
type entry struct {
	key  key
	kind Kind
	g    Gauge
	h    *Histogram
}

// entryBlockLen is how many entries one allocation holds: 32 of 64 bytes.
// histBlockLen is how many histograms one does: 10 of 536 bytes, which fill
// a 5,376-byte size class.
const (
	entryBlockLen = 32
	histBlockLen  = 10
)

// statsKey identifies one registered Stats struct.
type statsKey struct {
	node      int
	subsystem string
}

// statsSrc is one registered Stats struct and its type's counted fields.
type statsSrc struct {
	key    statsKey
	v      reflect.Value
	fields []statField
}

// statField is one counted field of a Stats type: where it lies in the
// struct, its sample name, and whether it is unsigned.
type statField struct {
	index    []int
	name     string
	unsigned bool
}

// Registry holds every instrument and Stats struct for one simulation. It
// is not safe for concurrent use; the simulation is single-threaded by
// design.
type Registry struct {
	byKey   map[key]*entry
	entries []*entry
	byStats map[statsKey]int // index into stats
	stats   []statsSrc
	// Entries and histograms are carved from blocks, so a new instrument
	// costs no allocation of its own. Neither is ever freed or moved.
	entryBlock []entry
	histBlock  []Histogram
}

// typeFields caches each Stats type's counted fields (statFields), named
// once per process and shared read-only by every registry: a
// map[reflect.Type][]statField that independent clusters on parallel
// goroutines fill and read.
var typeFields sync.Map

// fieldsOf returns the counted fields of the struct type t.
func fieldsOf(t reflect.Type) []statField {
	if f, ok := typeFields.Load(t); ok {
		return f.([]statField)
	}
	f, _ := typeFields.LoadOrStore(t, statFields(t, nil, new([]int), nil))
	return f.([]statField)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byKey:   make(map[key]*entry),
		byStats: make(map[statsKey]int),
	}
}

// lookup returns the entry for k, creating it with kind if absent. Asking
// for an existing name with a different kind is a wiring bug and panics.
func (r *Registry) lookup(k key, kind Kind) *entry {
	if e, ok := r.byKey[k]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("metrics: %s/%s node %d registered as %v, requested as %v",
				k.subsystem, k.name, k.node, e.kind, kind))
		}
		return e
	}
	if len(r.entryBlock) == 0 {
		r.entryBlock = make([]entry, entryBlockLen)
	}
	e := &r.entryBlock[0]
	r.entryBlock = r.entryBlock[1:]
	e.key, e.kind = k, kind
	if kind == KindHistogram {
		if len(r.histBlock) == 0 {
			r.histBlock = make([]Histogram, histBlockLen)
		}
		e.h, r.histBlock = &r.histBlock[0], r.histBlock[1:]
	}
	r.byKey[k] = e
	r.entries = append(r.entries, e)
	return e
}

// Gauge returns the gauge for (node, subsystem, name).
func (r *Registry) Gauge(node int, subsystem, name string) *Gauge {
	if r == nil {
		return nil
	}
	return &r.lookup(key{node, subsystem, name}, KindGauge).g
}

// Histogram returns the histogram for (node, subsystem, name).
func (r *Registry) Histogram(node int, subsystem, name string) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(key{node, subsystem, name}, KindHistogram).h
}

// AddStats registers stats, a pointer to a subsystem's Stats struct, as
// the counters of (node, subsystem): each snapshot reads every counted
// field (statFields) as one counter sample. Re-registering the same (node,
// subsystem) replaces the previous struct, so a restarted component never
// double-reports. A field the rule cannot count is a wiring bug and panics
// here.
func (r *Registry) AddStats(node int, subsystem string, stats any) {
	if r == nil {
		return
	}
	v := reflect.ValueOf(stats)
	if v.Kind() != reflect.Pointer || v.Elem().Kind() != reflect.Struct {
		panic(fmt.Sprintf("metrics: %s node %d: stats %T is not a pointer to a struct", subsystem, node, stats))
	}
	v = v.Elem()
	fields := fieldsOf(v.Type())
	k := statsKey{node, subsystem}
	if i, ok := r.byStats[k]; ok {
		r.stats[i].v, r.stats[i].fields = v, fields
		return
	}
	r.byStats[k] = len(r.stats)
	r.stats = append(r.stats, statsSrc{k, v, fields})
}

var timeType = reflect.TypeFor[simtime.Time]()

// statFields appends to out every counted field of the struct type t, which
// lies at path in the registered struct, with its sample name: the field's
// name in snake_case, with _ns appended for a simtime.Time. An embedded
// struct contributes its own fields, and a field tagged `metric:"-"` is
// left out. Any other field that is not an integer panics. The fields'
// index paths are laid end to end in arena, so they share its few arrays.
func statFields(t reflect.Type, path []int, arena *[]int, out []statField) []statField {
	for i := range t.NumField() {
		f := t.Field(i)
		*arena = append(append(*arena, path...), i)
		at := (*arena)[len(*arena)-len(path)-1 : len(*arena) : len(*arena)]
		switch k := f.Type.Kind(); {
		case f.Tag.Get("metric") == "-":
		case f.Anonymous && k == reflect.Struct:
			out = statFields(f.Type, at, arena, out)
		case k >= reflect.Int && k <= reflect.Int64:
			out = append(out, statField{index: at, name: sampleName(f)})
		case k >= reflect.Uint && k <= reflect.Uint64:
			out = append(out, statField{index: at, name: sampleName(f), unsigned: true})
		default:
			panic(fmt.Sprintf("metrics: %v.%s: a %v field is not a counter", t, f.Name, f.Type))
		}
	}
	return out
}

// sampleName is a counted field's sample name: its name in snake_case, with
// _ns appended for a simtime.Time.
func sampleName(f reflect.StructField) string {
	if f.Type == timeType {
		return snakeCase(f.Name, "_ns")
	}
	return snakeCase(f.Name, "")
}

// snakeCase spells a Go field name in snake_case, keeping an acronym one
// word, and appends suffix: CkChunksSent is ck_chunks_sent, PublishCPU is
// publish_cpu.
func snakeCase(name, suffix string) string {
	lower := func(i int) bool { return i < len(name) && (name[i] < 'A' || name[i] > 'Z') }
	var b strings.Builder
	b.Grow(2*len(name) + len(suffix))
	for i := range len(name) {
		c := name[i]
		if !lower(i) {
			if i > 0 && (lower(i-1) || lower(i+1)) {
				b.WriteByte('_')
			}
			c += 'a' - 'A'
		}
		b.WriteByte(c)
	}
	b.WriteString(suffix)
	return b.String()
}

// Sample is one (node, subsystem, name) measurement in a snapshot.
type Sample struct {
	Node      int
	Subsystem string
	Name      string
	Kind      string
	// Value is the count (counter), level (gauge), or observation count
	// (histogram).
	Value int64
	// Sum is the histogram's sum of observations.
	Sum int64
	// Buckets are the histogram's per-bucket counts, trailing zeros
	// trimmed: Buckets[0] counts v <= 0, Buckets[i] counts
	// 2^(i-1) <= v < 2^i.
	Buckets []int64
	// P50/P99/P999 are bucket-resolution quantile estimates (the upper
	// bound of the bucket holding the quantile rank), present for
	// histograms with at least one observation.
	P50  int64
	P99  int64
	P999 int64
}

// Snapshot is a deterministic point-in-time reading of the whole registry,
// sorted by (subsystem, name, node).
type Snapshot struct {
	Samples []Sample
}

// Snapshot reads every instrument and every registered Stats field. The
// result is fully detached from the registry: printing it later shows the
// values as of this call.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	n := len(r.entries)
	for _, src := range r.stats {
		n += len(src.fields)
	}
	s.Samples = make([]Sample, 0, n)
	for _, e := range r.entries {
		smp := Sample{
			Node:      e.key.node,
			Subsystem: e.key.subsystem,
			Name:      e.key.name,
			Kind:      e.kind.String(),
		}
		switch e.kind {
		case KindGauge:
			smp.Value = e.g.v
		case KindHistogram:
			smp.Value = e.h.count
			smp.Sum = e.h.sum
			last := -1
			for i, b := range e.h.buckets {
				if b != 0 {
					last = i
				}
			}
			if last >= 0 {
				smp.Buckets = append([]int64(nil), e.h.buckets[:last+1]...)
			}
			smp.P50, smp.P99, smp.P999 = e.h.Quantile(0.5), e.h.Quantile(0.99), e.h.Quantile(0.999)
		}
		s.Samples = append(s.Samples, smp)
	}
	for _, src := range r.stats {
		for _, f := range src.fields {
			fv := src.v.FieldByIndex(f.index)
			v := int64(0)
			if f.unsigned {
				v = int64(fv.Uint())
			} else {
				v = fv.Int()
			}
			s.Samples = append(s.Samples, Sample{
				Node:      src.key.node,
				Subsystem: src.key.subsystem,
				Name:      f.name,
				Kind:      KindCounter.String(),
				Value:     v,
			})
		}
	}
	sort.Slice(s.Samples, func(i, j int) bool {
		a, b := &s.Samples[i], &s.Samples[j]
		if a.Subsystem != b.Subsystem {
			return a.Subsystem < b.Subsystem
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Node < b.Node
	})
	return s
}

// bucketUpper returns the exclusive upper bound of bucket i (its `le` label
// is upper-1, the largest value the bucket can hold).
func bucketUpper(i int) int64 {
	if i == 0 {
		return 1 // bucket 0 holds v <= 0
	}
	return int64(1) << uint(i)
}

// WriteText writes the snapshot in Prometheus text exposition style, one
// series per line:
//
//	pub_<subsystem>_<name>{node="N"} value
//
// Histograms expand to cumulative buckets (le is the largest value the
// bucket admits), a _sum, and a _count. Output order is the snapshot's
// deterministic sort, so same-seed runs produce byte-identical text.
func (s Snapshot) WriteText(w io.Writer) error {
	for i := range s.Samples {
		smp := &s.Samples[i]
		base := "pub_" + smp.Subsystem + "_" + smp.Name
		if smp.Kind != KindHistogram.String() {
			if _, err := fmt.Fprintf(w, "%s{node=\"%d\"} %d\n", base, smp.Node, smp.Value); err != nil {
				return err
			}
			continue
		}
		cum := int64(0)
		for bi, b := range smp.Buckets {
			cum += b
			if b == 0 {
				continue // keep the dump compact; cum still accumulates
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{node=\"%d\",le=\"%d\"} %d\n",
				base, smp.Node, bucketUpper(bi)-1, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{node=\"%d\",le=\"+Inf\"} %d\n", base, smp.Node, smp.Value); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum{node=\"%d\"} %d\n", base, smp.Node, smp.Sum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count{node=\"%d\"} %d\n", base, smp.Node, smp.Value); err != nil {
			return err
		}
		if smp.Value > 0 {
			// Summary-style quantile series (bucket-resolution estimates),
			// so dashboards read p50/p99/p999 without re-deriving them.
			for _, q := range [...]struct {
				label string
				v     int64
			}{{"0.5", smp.P50}, {"0.99", smp.P99}, {"0.999", smp.P999}} {
				if _, err := fmt.Fprintf(w, "%s{node=\"%d\",quantile=\"%s\"} %d\n",
					base, smp.Node, q.label, q.v); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

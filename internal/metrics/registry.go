// Package metrics is the engine's instrumentation registry: named
// counters, gauges, fixed-bucket histograms and labeled families,
// collected into deterministic snapshots for the live run monitor
// (Prometheus text, JSON) and offline diffing.
//
// Two properties shape the design:
//
//   - Zero cost when disabled. Every instrument is a pointer whose
//     methods are no-ops on a nil receiver, and a nil *Registry hands
//     out nil instruments from every constructor. Code instruments its
//     hot paths unconditionally — `c.Inc()` on a nil counter is a single
//     predictable branch, performs no allocation and touches no shared
//     state — so the simulator's 0 allocs/op benchmarks hold with
//     metrics off, pinned by TestDisabledInstrumentsAllocFree and the
//     bench gate.
//
//   - Deterministic output. Snapshots iterate families by sorted name
//     and children by sorted label values (maps are only ranged to
//     collect keys for sorting, the nbtilint detmap idiom), histograms
//     are integer-valued so no float summation order can leak into the
//     output, and the text/JSON encoders write fields in a fixed order.
//     Equal instrument states therefore always render byte-identically.
//
// Instruments are safe for concurrent use: values are atomics, and
// registration (creating a family or a labeled child) is mutex-guarded
// and idempotent — asking for an existing name returns the existing
// instrument, so packages resolve their instruments at construction
// time without coordinating ownership.
package metrics

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind discriminates the instrument families.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String renders the Prometheus TYPE spelling.
func (k Kind) String() string {
	switch k {
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "counter"
	}
}

// Counter is a monotonically increasing uint64. The nil counter is a
// valid no-op, which is how the disabled path stays free.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for the nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous int64 (occupancy, depth, phase id). The nil
// gauge is a valid no-op.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds d (negative to decrease).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 for the nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket integer histogram: observation v lands in
// the first bucket whose upper bound satisfies v <= le, or the implicit
// +Inf bucket past the last bound. Bounds are uint64 because everything
// this engine measures — cycles, span lengths, byte counts — is an
// integer; keeping floats out of the accumulation makes the rendered
// output independent of observation interleaving. The nil histogram is
// a valid no-op.
type Histogram struct {
	bounds []uint64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v; the bound slice is
	// validated ascending at registration.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.sum.Add(v)
}

// family is one named instrument family: a singleton (no labels) or a
// set of labeled children.
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []uint64

	mu       sync.Mutex
	children map[string]*child
}

// child is one (label-values → instrument) binding.
type child struct {
	values  []string
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// childKey joins label values with \xff, which cannot appear in a UTF-8
// label value's byte representation at a rune boundary ambiguity that
// matters here: the key is only an internal map index.
func childKey(values []string) string {
	switch len(values) {
	case 0:
		return ""
	case 1:
		return values[0]
	}
	n := len(values) - 1
	for _, v := range values {
		n += len(v)
	}
	b := make([]byte, 0, n)
	for i, v := range values {
		if i > 0 {
			b = append(b, '\xff')
		}
		b = append(b, v...)
	}
	return string(b)
}

// get returns the child for the given label values, creating it on
// first use.
func (f *family) get(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := childKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := &child{values: append([]string(nil), values...)}
	switch f.kind {
	case KindCounter:
		c.counter = &Counter{}
	case KindGauge:
		c.gauge = &Gauge{}
	case KindHistogram:
		c.hist = &Histogram{
			bounds: f.buckets,
			counts: make([]atomic.Uint64, len(f.buckets)+1),
		}
	}
	f.children[key] = c
	return c
}

// Registry is a set of named instrument families. The nil registry is
// the disabled state: every constructor returns a nil instrument and
// every reader reports emptiness.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// New returns an empty enabled registry.
func New() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// def is the process default registry; nil (the boot state) means
// instrumentation is disabled everywhere. This is deliberately mutable
// process state: instrumented objects resolve their instruments from it
// once, at construction time, so a swap never races a simulation — and
// the atomic.Pointer makes the single SetDefault/Default hand-off safe
// even from tooling goroutines.
//
//nbtilint:allow globalmut process default registry, resolved only at construction time
var def atomic.Pointer[Registry]

// Default returns the process default registry, nil when disabled.
// Packages resolve their instruments from it at construction time
// (network build, store open, pool run), so a CLI that wants telemetry
// must call SetDefault before building any instrumented object.
func Default() *Registry { return def.Load() }

// SetDefault installs (or, with nil, disables) the process default
// registry. Objects built earlier keep the instruments they resolved.
func SetDefault(r *Registry) { def.Store(r) }

// family returns the named family, creating it on first registration.
// Re-registration with a different kind, label set or bucket layout is
// a programmer error and panics; instrument names are a global
// namespace and two meanings for one name would corrupt the output.
func (r *Registry) family(name, help string, kind Kind, labels []string, buckets []uint64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || !equalStrings(f.labels, labels) || !equalUint64s(f.buckets, buckets) {
			panic(fmt.Sprintf("metrics: conflicting re-registration of %q", name))
		}
		if f.help == "" {
			f.help = help
		}
		return f
	}
	if name == "" {
		panic("metrics: empty instrument name")
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q buckets not strictly ascending", name))
		}
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   append([]string(nil), labels...),
		buckets:  append([]uint64(nil), buckets...),
		children: make(map[string]*child),
	}
	r.families[name] = f
	return f
}

// Counter returns the named singleton counter, registering it on first
// use. A nil registry returns the nil (no-op) counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.family(name, help, KindCounter, nil, nil).get(nil).counter
}

// Gauge returns the named singleton gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.family(name, help, KindGauge, nil, nil).get(nil).gauge
}

// Histogram returns the named singleton histogram with the given
// strictly ascending upper bounds (an implicit +Inf bucket is added).
func (r *Registry) Histogram(name, help string, buckets []uint64) *Histogram {
	if r == nil {
		return nil
	}
	return r.family(name, help, KindHistogram, nil, buckets).get(nil).hist
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// CounterVec returns the named labeled counter family. A nil registry
// returns the nil vec, whose With returns nil counters.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.family(name, help, KindCounter, labelNames, nil)}
}

// With returns the child counter for the given label values (in label
// declaration order), creating it on first use. Callers cache the
// result: With takes the family lock and builds a key string, so it
// belongs at construction time, not in a hot loop.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.get(values).counter
}

// CounterValue returns the summed value of the named counter family
// (all children), or 0 when the registry is nil or the name unknown.
// The progress printer reads totals through this without caring whether
// a family is labeled.
func (r *Registry) CounterValue(name string) uint64 {
	f := r.lookup(name, KindCounter)
	if f == nil {
		return 0
	}
	var total uint64
	f.mu.Lock()
	defer f.mu.Unlock()
	//nbtilint:allow detmap summing commutative uint64 counters; the total is independent of iteration order
	for _, c := range f.children {
		total += c.counter.Value()
	}
	return total
}

// GaugeValue returns the summed value of the named gauge family, or 0
// when absent.
func (r *Registry) GaugeValue(name string) int64 {
	f := r.lookup(name, KindGauge)
	if f == nil {
		return 0
	}
	var total int64
	f.mu.Lock()
	defer f.mu.Unlock()
	//nbtilint:allow detmap summing commutative int64 gauges; the total is independent of iteration order
	for _, c := range f.children {
		total += c.gauge.Value()
	}
	return total
}

func (r *Registry) lookup(name string, kind Kind) *family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	f := r.families[name]
	r.mu.Unlock()
	if f == nil || f.kind != kind {
		return nil
	}
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalUint64s(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sortedFamilies returns the registry's families ordered by name — the
// deterministic iteration base for every exporter.
func (r *Registry) sortedFamilies() []*family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*family, len(names))
	for i, name := range names {
		out[i] = r.families[name]
	}
	r.mu.Unlock()
	return out
}

// sortedChildren returns the family's children ordered by label values
// — the per-family deterministic iteration base.
func (f *family) sortedChildren() []*child {
	f.mu.Lock()
	keys := make([]string, 0, len(f.children))
	for key := range f.children {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	out := make([]*child, len(keys))
	for i, key := range keys {
		out[i] = f.children[key]
	}
	f.mu.Unlock()
	return out
}

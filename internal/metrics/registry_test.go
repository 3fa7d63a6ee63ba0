package metrics

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if c2 := r.Counter("c_total", "a counter"); c2 != c {
		t.Error("re-registration did not return the existing counter")
	}
	g := r.Gauge("g", "a gauge")
	g.Set(7)
	g.Inc()
	g.Dec()
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Errorf("gauge = %d, want 5", got)
	}
	if got := r.CounterValue("c_total"); got != 5 {
		t.Errorf("CounterValue = %d, want 5", got)
	}
	if got := r.GaugeValue("g"); got != 5 {
		t.Errorf("GaugeValue = %d, want 5", got)
	}
}

func TestNilRegistryAndInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	g := r.Gauge("y", "")
	h := r.Histogram("z", "", []uint64{1, 2})
	cv := r.CounterVec("xv_total", "", "l")
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(2)
	h.Observe(9)
	cv.With("a").Inc()
	if c.Value() != 0 || g.Value() != 0 {
		t.Error("nil instruments must read 0")
	}
	if r.CounterValue("x_total") != 0 || r.GaugeValue("y") != 0 {
		t.Error("nil registry reads must be 0")
	}
	if s := r.Snapshot(); len(s.Families) != 0 {
		t.Errorf("nil registry snapshot has %d families, want 0", len(s.Families))
	}
}

// TestDisabledInstrumentsAllocFree pins the zero-cost-when-disabled
// contract the hot paths rely on (see the package comment): every no-op
// instrument method must be allocation-free. The enabled fast paths
// (Inc/Add/Observe on resolved instruments) must be allocation-free
// too — only construction-time calls (With, the registry constructors)
// may allocate.
func TestDisabledInstrumentsAllocFree(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var cv *CounterVec
	check := func(name string, f func()) {
		t.Helper()
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, n)
		}
	}
	check("nil Counter.Inc", func() { c.Inc() })
	check("nil Counter.Add", func() { c.Add(3) })
	check("nil Gauge.Set", func() { g.Set(1) })
	check("nil Gauge.Add", func() { g.Add(-1) })
	check("nil Histogram.Observe", func() { h.Observe(42) })
	check("nil CounterVec.With+Inc", func() { cv.With("a", "b").Inc() })

	r := New()
	ec := r.Counter("enabled_total", "")
	eh := r.Histogram("enabled_hist", "", []uint64{1, 4, 16})
	check("enabled Counter.Inc", func() { ec.Inc() })
	check("enabled Histogram.Observe", func() { eh.Observe(7) })
}

func TestOrderedLabelIteration(t *testing.T) {
	r := New()
	// Register families and children in deliberately shuffled order; the
	// snapshot must come out sorted by family name, then label values.
	v := r.CounterVec("zz_total", "", "policy", "kind")
	v.With("rr", "wake").Inc()
	v.With("baseline", "gate").Inc()
	v.With("rr", "gate").Inc()
	v.With("baseline", "wake").Inc()
	r.Counter("aa_total", "").Inc()
	r.Gauge("mm", "").Set(3)

	s := r.Snapshot()
	var names []string
	for _, f := range s.Families {
		names = append(names, f.Name)
	}
	if got, want := strings.Join(names, ","), "aa_total,mm,zz_total"; got != want {
		t.Errorf("family order %q, want %q", got, want)
	}
	var children []string
	for _, m := range s.Families[2].Metrics {
		children = append(children, strings.Join(m.LabelValues, "/"))
	}
	want := "baseline/gate,baseline/wake,rr/gate,rr/wake"
	if got := strings.Join(children, ","); got != want {
		t.Errorf("child order %q, want %q", got, want)
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	r := New()
	h := r.Histogram("edges", "", []uint64{1, 4, 16})
	// An observation lands in the first bucket with v <= le.
	for _, v := range []uint64{0, 1, 2, 4, 5, 16, 17} {
		h.Observe(v)
	}
	hs := h.snapshot()
	if hs.Count != 7 {
		t.Errorf("count = %d, want 7", hs.Count)
	}
	if hs.Sum != 45 {
		t.Errorf("sum = %d, want 45", hs.Sum)
	}
	// Cumulative: le=1 holds {0,1}, le=4 adds {2,4}, le=16 adds {5,16},
	// +Inf adds {17}.
	wantCum := []uint64{2, 4, 6, 7}
	for i, b := range hs.Buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket %d cumulative = %d, want %d", i, b.Count, wantCum[i])
		}
	}
	if !hs.Buckets[3].Inf {
		t.Error("last bucket must be +Inf")
	}
}

func TestConcurrentIncrements(t *testing.T) {
	r := New()
	c := r.Counter("conc_total", "")
	v := r.CounterVec("conc_vec_total", "", "w")
	h := r.Histogram("conc_hist", "", []uint64{10, 100})
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Resolving the child concurrently exercises the family lock.
			child := v.With(fmt.Sprintf("w%d", w%2))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				child.Inc()
				h.Observe(uint64(i % 200))
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.CounterValue("conc_vec_total"); got != workers*perWorker {
		t.Errorf("vec total = %d, want %d", got, workers*perWorker)
	}
	if got := h.snapshot().Count; got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

func TestConflictingReregistrationPanics(t *testing.T) {
	r := New()
	r.Counter("name", "")
	for _, tc := range []struct {
		desc string
		f    func()
	}{
		{"kind change", func() { r.Gauge("name", "") }},
		{"label change", func() { r.CounterVec("name", "", "l") }},
		{"bucket change", func() {
			r.Histogram("hist", "", []uint64{1, 2})
			r.Histogram("hist", "", []uint64{1, 3})
		}},
		{"descending buckets", func() { r.Histogram("desc", "", []uint64{5, 2}) }},
		{"empty name", func() { r.Counter("", "") }},
		{"arity mismatch", func() { r.CounterVec("vec_total", "", "a", "b").With("only-one") }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.desc)
				}
			}()
			tc.f()
		}()
	}
}

func TestPrometheusOutput(t *testing.T) {
	r := New()
	v := r.CounterVec("noc_gating_transitions_total", "Gating transitions.", "policy", "kind")
	v.With("sensor-wise", "gate").Add(3)
	v.With("baseline", "wake").Add(1)
	r.Gauge("sim_workers_busy", "Busy workers.").Set(2)
	h := r.Histogram("nbti_span_cycles", "Span lengths.", []uint64{1, 4})
	h.Observe(1)
	h.Observe(3)
	h.Observe(9)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP nbti_span_cycles Span lengths.
# TYPE nbti_span_cycles histogram
nbti_span_cycles_bucket{le="1"} 1
nbti_span_cycles_bucket{le="4"} 2
nbti_span_cycles_bucket{le="+Inf"} 3
nbti_span_cycles_sum 13
nbti_span_cycles_count 3
# HELP noc_gating_transitions_total Gating transitions.
# TYPE noc_gating_transitions_total counter
noc_gating_transitions_total{policy="baseline",kind="wake"} 1
noc_gating_transitions_total{policy="sensor-wise",kind="gate"} 3
# HELP sim_workers_busy Busy workers.
# TYPE sim_workers_busy gauge
sim_workers_busy 2
`
	if b.String() != want {
		t.Errorf("Prometheus output mismatch:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
	// Byte stability: a second render of the same state is identical.
	var b2 strings.Builder
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b.String() != b2.String() {
		t.Error("two renders of the same state differ")
	}
}

func TestWriteJSONStable(t *testing.T) {
	build := func() *Registry {
		r := New()
		r.Counter("a_total", "help a").Add(2)
		r.CounterVec("b_total", "", "x").With("v").Inc()
		r.Histogram("h", "", []uint64{1}).Observe(1)
		return r
	}
	var s1, s2 strings.Builder
	if err := build().WriteJSON(&s1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&s2); err != nil {
		t.Fatal(err)
	}
	if s1.String() != s2.String() {
		t.Error("equal registry states encode differently")
	}
	if !strings.HasSuffix(s1.String(), "\n") {
		t.Error("JSON output must end in a newline")
	}
	if !strings.Contains(s1.String(), `"label_values"`) {
		t.Error("labeled child missing label_values")
	}
}

func TestDefaultRegistryResolution(t *testing.T) {
	if Default() != nil {
		t.Fatal("default registry must start disabled")
	}
	r := New()
	SetDefault(r)
	defer SetDefault(nil)
	if Default() != r {
		t.Error("Default did not return the installed registry")
	}
	Default().Counter("via_default_total", "").Inc()
	if got := r.CounterValue("via_default_total"); got != 1 {
		t.Errorf("counter via default = %d, want 1", got)
	}
}

func TestEscaping(t *testing.T) {
	r := New()
	r.CounterVec("esc_total", "help with \\ backslash\nand newline", "l").
		With("quote\" slash\\ nl\n").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `# HELP esc_total help with \\ backslash\nand newline`) {
		t.Errorf("help not escaped:\n%s", out)
	}
	if !strings.Contains(out, `esc_total{l="quote\" slash\\ nl\n"} 1`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
}

package nbti

import "nbtinoc/internal/metrics"

// Exported instrument names for the span-batched stress accounting.
const (
	// MetricStressSpans counts flushed stress spans (powered intervals
	// charged in one Tracker.Stress call).
	MetricStressSpans = "nbti_stress_spans_total"
	// MetricRecoverySpans counts flushed recovery spans (power-gated
	// intervals charged in one Tracker.Recover call).
	MetricRecoverySpans = "nbti_recovery_spans_total"
	// MetricSpanCycles is a histogram of flushed span lengths in cycles;
	// long spans are the activity-gated engine's batching win.
	MetricSpanCycles = "nbti_span_cycles"
)

// spanBuckets are the histogram bounds for MetricSpanCycles: powers of
// four from 1 to 256k cycles, resolving both per-cycle churn (spans of
// 1) and deep quiescence.
var spanBuckets = []uint64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144}

// SpanMetrics mirrors span flushes into the process metrics registry.
// Trackers carry no handles of their own: the owner of a population of
// devices (a network) resolves one SpanMetrics when it is built and
// reports each span it charges to a tracker. The zero value (all-nil
// handles, as when instrumentation is disabled) is a no-op.
type SpanMetrics struct {
	stressSpans   *metrics.Counter
	recoverySpans *metrics.Counter
	spanLen       *metrics.Histogram
}

// NewSpanMetrics resolves the span instruments from the process default
// registry.
func NewSpanMetrics() SpanMetrics {
	r := metrics.Default()
	if r == nil {
		return SpanMetrics{}
	}
	return SpanMetrics{
		stressSpans: r.Counter(MetricStressSpans,
			"Flushed stress spans (powered intervals batched into one charge)."),
		recoverySpans: r.Counter(MetricRecoverySpans,
			"Flushed recovery spans (power-gated intervals batched into one charge)."),
		spanLen: r.Histogram(MetricSpanCycles,
			"Length in cycles of flushed stress/recovery spans.", spanBuckets),
	}
}

// Stress records one stress span of n cycles (a Tracker.Stress charge).
func (m *SpanMetrics) Stress(n uint64) {
	m.stressSpans.Inc()
	m.spanLen.Observe(n)
}

// Recover records one recovery span of n cycles (a Tracker.Recover
// charge).
func (m *SpanMetrics) Recover(n uint64) {
	m.recoverySpans.Inc()
	m.spanLen.Observe(n)
}

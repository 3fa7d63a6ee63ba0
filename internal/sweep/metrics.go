package sweep

import "nbtinoc/internal/metrics"

// Exported instrument names for sweep campaigns. cmd/nbtisweep wires
// the unit counters into metrics.Progress for the -v progress line;
// lease contention shows up through the cache_lease_* instruments of
// internal/cache.
const (
	// MetricUnitsTotal counts units handed to workers.
	MetricUnitsTotal = "sweep_units_total"
	// MetricUnitsDone counts units whose summary is in the cache
	// (computed, or found there).
	MetricUnitsDone = "sweep_units_done_total"
	// MetricUnitsFailed counts units whose compute errored.
	MetricUnitsFailed = "sweep_units_failed_total"
	// MetricUnitsDeferred counts first-pass step-asides: a unit found
	// claimed by another process and revisited in the blocking pass.
	MetricUnitsDeferred = "sweep_units_deferred_total"
	// MetricWorkersActive gauges worker batches currently executing in
	// this process.
	MetricWorkersActive = "sweep_workers_active"
)

// sweepMetrics are the per-batch handles into the process registry;
// all nil when instrumentation is disabled.
type sweepMetrics struct {
	unitsTotal    *metrics.Counter
	unitsDone     *metrics.Counter
	unitsFailed   *metrics.Counter
	unitsDeferred *metrics.Counter
	workersActive *metrics.Gauge
}

// newSweepMetrics resolves the sweep instruments from the process
// default registry.
func newSweepMetrics() sweepMetrics {
	r := metrics.Default()
	if r == nil {
		return sweepMetrics{}
	}
	return sweepMetrics{
		unitsTotal:    r.Counter(MetricUnitsTotal, "Sweep units handed to workers."),
		unitsDone:     r.Counter(MetricUnitsDone, "Sweep units whose summary is in the cache."),
		unitsFailed:   r.Counter(MetricUnitsFailed, "Sweep units whose compute errored."),
		unitsDeferred: r.Counter(MetricUnitsDeferred, "First-pass step-asides revisited later."),
		workersActive: r.Gauge(MetricWorkersActive, "Worker batches currently executing."),
	}
}

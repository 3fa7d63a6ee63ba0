package sim

import "nbtinoc/internal/metrics"

// Exported instrument names for the scenario drivers. cmd/* wire the
// job counters into metrics.Progress for the -v progress line.
const (
	// MetricJobsTotal counts jobs dispatched to Pool.Run batches.
	MetricJobsTotal = "sim_jobs_total"
	// MetricJobsDone counts jobs that finished executing.
	MetricJobsDone = "sim_jobs_done_total"
	// MetricWorkersBusy gauges jobs currently executing across pools.
	MetricWorkersBusy = "sim_workers_busy"
	// MetricRunsCached counts Runner.Run calls answered from the result
	// cache.
	MetricRunsCached = "sim_runs_cached_total"
	// MetricRunsComputed counts Runner.Run calls that executed the
	// engine (cache miss or cache off).
	MetricRunsComputed = "sim_runs_computed_total"
)

// poolMetrics are the per-Run-batch handles into the process registry;
// all nil when instrumentation is disabled.
type poolMetrics struct {
	jobsTotal *metrics.Counter
	jobsDone  *metrics.Counter
	busy      *metrics.Gauge
}

// newPoolMetrics resolves the scheduler instruments from the process
// default registry.
func newPoolMetrics() poolMetrics {
	r := metrics.Default()
	if r == nil {
		return poolMetrics{}
	}
	return poolMetrics{
		jobsTotal: r.Counter(MetricJobsTotal, "Jobs dispatched to worker-pool batches."),
		jobsDone:  r.Counter(MetricJobsDone, "Jobs finished executing."),
		busy:      r.Gauge(MetricWorkersBusy, "Jobs currently executing across pools."),
	}
}

// runnerMetrics are the cached-runner handles; all nil when
// instrumentation is disabled.
type runnerMetrics struct {
	cached   *metrics.Counter
	computed *metrics.Counter
}

// newRunnerMetrics resolves the cached-runner instruments from the
// process default registry.
func newRunnerMetrics() runnerMetrics {
	r := metrics.Default()
	if r == nil {
		return runnerMetrics{}
	}
	return runnerMetrics{
		cached:   r.Counter(MetricRunsCached, "Scenario runs answered from the result cache."),
		computed: r.Counter(MetricRunsComputed, "Scenario runs executed by the engine."),
	}
}

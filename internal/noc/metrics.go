package noc

import (
	"nbtinoc/internal/metrics"
	"nbtinoc/internal/sensor"
)

// Exported instrument names, for monitors and progress readers that
// look series up by name (cmd/* wire these into metrics.Progress).
const (
	// MetricCycles counts simulated cycles executed by Network.Step.
	MetricCycles = "noc_cycles_total"
	// MetricUnitSteps counts per-cycle unit visits by the activity-gated
	// engine, labeled unit=router|ni and state=active|skipped; the
	// active:skipped ratio is the live effectiveness of the active set.
	MetricUnitSteps = "noc_unit_steps_total"
	// MetricFlitsRouted counts flits launched onto links (router and NI
	// output units).
	MetricFlitsRouted = "noc_flits_routed_total"
	// MetricCreditsReturned counts credits sent back upstream by input
	// units.
	MetricCreditsReturned = "noc_credits_returned_total"
	// MetricGatingTransitions counts power-state transitions commanded
	// by the recovery policies, labeled policy=<name> and
	// kind=gate|wake.
	MetricGatingTransitions = "noc_gating_transitions_total"
	// MetricCyclesFastForwarded counts simulated cycles covered by bulk
	// fast-forward jumps (RunUntil) rather than executed Steps; the ratio
	// to MetricCycles is the event-horizon engine's effectiveness.
	MetricCyclesFastForwarded = "engine_cycles_fastforwarded_total"
)

// netMetrics are the per-network handles into the process registry,
// resolved once at Network construction. With instrumentation disabled
// (metrics.Default() == nil at New time) every handle is nil and each
// instrumented site costs one predictable nil-check branch — the
// engine's 0 allocs/op benchmarks and the bench-check sec/op gate pin
// that this stays free.
type netMetrics struct {
	cycles         *metrics.Counter
	ffCycles       *metrics.Counter
	routersActive  *metrics.Counter
	routersSkipped *metrics.Counter
	nisActive      *metrics.Counter
	nisSkipped     *metrics.Counter
	// sensorSamples counts sensor measurements: each executed sweep adds
	// the network's sensor count, and so does each sweep a static sensor
	// config elides.
	sensorSamples *metrics.Counter
}

// newNetMetrics resolves the network-level instruments from the process
// default registry.
func newNetMetrics() netMetrics {
	r := metrics.Default()
	if r == nil {
		return netMetrics{}
	}
	steps := r.CounterVec(MetricUnitSteps,
		"Per-cycle unit visits by the activity-gated engine.", "unit", "state")
	return netMetrics{
		cycles: r.Counter(MetricCycles, "Simulated cycles executed."),
		ffCycles: r.Counter(MetricCyclesFastForwarded,
			"Simulated cycles covered by bulk fast-forward jumps."),
		routersActive:  steps.With("router", "active"),
		routersSkipped: steps.With("router", "skipped"),
		nisActive:      steps.With("ni", "active"),
		nisSkipped:     steps.With("ni", "skipped"),
		sensorSamples:  sensor.SamplesCounter(),
	}
}

// gatingCounters resolves the per-policy gate/wake transition counters
// an output unit caches at construction.
func gatingCounters(policy string) (gate, wake *metrics.Counter) {
	r := metrics.Default()
	if r == nil {
		return nil, nil
	}
	vec := r.CounterVec(MetricGatingTransitions,
		"Power-state transitions commanded by the recovery policies.", "policy", "kind")
	return vec.With(policy, "gate"), vec.With(policy, "wake")
}

// flitsRoutedCounter resolves the shared flit-launch counter.
func flitsRoutedCounter() *metrics.Counter {
	return metrics.Default().Counter(MetricFlitsRouted,
		"Flits launched onto links by output units.")
}

// creditsReturnedCounter resolves the shared credit-return counter.
func creditsReturnedCounter() *metrics.Counter {
	return metrics.Default().Counter(MetricCreditsReturned,
		"Credits returned upstream by input units.")
}

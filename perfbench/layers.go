package main

import "nbtinoc/internal/cache"

// endToEnd lists the metrics of an untraced run, with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"router_cycles_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_p99_ms", "ms"},
}

// perLayer lists the metrics of a traced run, with their units. Every
// traced run reports all of them; a layer a workload does not reach
// reports 0. Times and counts are per traced pass.
var perLayer = []struct{ name, unit string }{
	{"traffic.tick.calls", "count"},
	{"traffic.tick.self_s", "s"},
	{"traffic.horizon.calls", "count"},
	{"traffic.horizon.self_s", "s"},
	{"traffic.packets", "count"},
	{"noc.step.calls", "count"},
	{"noc.step.self_s", "s"},
	{"noc.router_active_ratio", "ratio"},
	{"noc.va_grants", "count"},
	{"noc.sa_grants", "count"},
	{"noc.crossbar_traversals", "count"},
	{"noc.link_flits", "count"},
	{"noc.sample_step.calls", "count"},
	{"noc.sample_step.self_s", "s"},
	{"noc.fastforward.calls", "count"},
	{"noc.fastforward.self_s", "s"},
	{"noc.ff_ratio", "ratio"},
	{"noc.idle.calls", "count"},
	{"noc.idle.self_s", "s"},
	{"noc.reset.self_s", "s"},
	{"noc.setup.self_s", "s"},
	{"noc.readout.self_s", "s"},
	{"core.gate_events", "count"},
	{"core.wake_events", "count"},
	{"sim.validate.self_s", "s"},
	{"sim.spec_key.calls", "count"},
	{"sim.spec_key.self_s", "s"},
	{"sim.render.self_s", "s"},
	{"sim.compute.self_s", "s"},
	{"sim.drivers.self_s", "s"},
	{"cache.hits", "count"},
	{"cache.misses", "count"},
	{"cache.deduped", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.read_bytes", "B"},
	{"cache.written_bytes", "B"},
	{"cache.hit.self_s", "s"},
	{"cache.miss.self_s", "s"},
	{"cache.lease_acquired", "count"},
	{"cache.lease_waits", "count"},
	{"service.submit.self_s", "s"},
	{"service.poll.calls", "count"},
	{"service.poll.self_s", "s"},
	{"service.poll_wait_s", "s"},
	{"service.polls_per_job", "ratio"},
	{"service.result.self_s", "s"},
	{"service.queue_wait_s", "s"},
	{"service.run_s", "s"},
	{"service.deduped", "count"},
	{"service.rejected", "count"},
	{"trace.wall_s", "s"},
	{"trace.unattributed_s", "s"},
	{"trace.overhead_pct", "%"},
	{"noc.sample_step.share", "ratio"},
}

// completeLayers gives every per-layer metric a traced run did not set
// the value 0, so all workloads report the same names.
func completeLayers(m metricSet) {
	for _, l := range perLayer {
		if _, ok := m[l.name]; !ok {
			m.set(l.name, 0, l.unit)
		}
	}
}

// cacheMetrics reports a store's counters per pass.
func cacheMetrics(m metricSet, st cache.Stats, passes float64) {
	per := func(x int64) float64 { return float64(x) / passes }
	m.count("cache.hits", per(st.Hits))
	m.count("cache.misses", per(st.Misses))
	m.count("cache.deduped", per(st.Deduped))
	m.ratio("cache.hit_ratio", ratio(float64(st.Hits+st.Deduped), float64(st.Hits+st.Misses+st.Deduped)))
	m.set("cache.read_bytes", per(st.BytesRead), "B")
	m.set("cache.written_bytes", per(st.BytesWritten), "B")
	m.count("cache.lease_acquired", per(st.LeaseAcquired))
	m.count("cache.lease_waits", per(st.LeaseWaited))
}

// traceTotals reports the traced pass's wall time, the part of it no
// span covers, and the tracing overhead: how much lower the traced
// throughput is than the untraced one, in percent.
func traceTotals(m metricSet, wall, busy, passes, untraced, traced float64) {
	m.sec("trace.wall_s", wall/passes)
	m.sec("trace.unattributed_s", (wall-busy)/passes)
	m.set("trace.overhead_pct", 100*(1-ratio(traced, untraced)), "%")
}

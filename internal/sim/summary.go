package sim

import "nbtinoc/internal/noc"

// RunSummary is the serialisable subset of a RunResult: everything the
// table and sweep drivers consume, without the live *noc.Network. It is
// the unit of result caching (internal/cache) and what parallel sweeps
// retain per finished job — a few hundred bytes instead of an entire
// mesh pinned until the reduction pass.
type RunSummary struct {
	Policy   string `json:"policy"`
	Workload string `json:"workload"`
	// Cycles is the measured window length.
	Cycles uint64 `json:"cycles"`
	// Ports holds one reading per requested probe, in probe order.
	Ports []PortReading `json:"ports,omitempty"`
	// AvgLatency is the mean packet latency over all NIs (cycles).
	AvgLatency float64 `json:"avg_latency"`
	// Throughput is ejected flits per cycle per node.
	Throughput float64 `json:"throughput"`
	// InjectedPackets / EjectedPackets over the measured window.
	InjectedPackets uint64 `json:"injected_packets"`
	EjectedPackets  uint64 `json:"ejected_packets"`
	// Nodes and TotalVCs describe the simulated geometry, so consumers
	// like the energy model need not rebuild the network to count
	// sensors.
	Nodes    int `json:"nodes"`
	TotalVCs int `json:"total_vcs"`
	// Events are the measured-window event counters feeding the power
	// model.
	Events noc.EventCounts `json:"events"`
}

// Summary extracts the serialisable view of a result. The live network
// is left behind, so the caller's reference to the RunResult can be
// dropped and the mesh collected.
func (r *RunResult) Summary() *RunSummary {
	s := &RunSummary{
		Policy:          r.Policy,
		Workload:        r.Workload,
		Cycles:          r.Cycles,
		Ports:           r.Ports,
		AvgLatency:      r.AvgLatency,
		Throughput:      r.Throughput,
		InjectedPackets: r.InjectedPackets,
		EjectedPackets:  r.EjectedPackets,
	}
	if r.Net != nil {
		s.Nodes = r.Net.Nodes()
		s.TotalVCs = r.Net.Config().TotalVCs()
		s.Events = r.Net.Events()
	}
	return s
}

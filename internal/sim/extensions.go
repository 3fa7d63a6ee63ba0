package sim

import (
	"fmt"
	"strings"

	"nbtinoc/internal/core"
	"nbtinoc/internal/noc"
	"nbtinoc/internal/power"
)

// PerfRow is one point of the NBTI/performance trade-off analysis: the
// paper motivates its cooperative design by the ability to trade NBTI
// recovery against performance (Section II criticises [13] for losing
// that option), so this extension quantifies what the gating costs.
type PerfRow struct {
	Policy string
	Rate   float64
	// AvgLatency is the mean packet latency in cycles.
	AvgLatency float64
	// Throughput is accepted flits/cycle/node.
	Throughput float64
	// DutyMD is the most degraded VC's duty-cycle at the probe port.
	DutyMD float64
}

// PerfTable is the load/latency sweep across policies.
type PerfTable struct {
	Cores, VCs    int
	WakeupLatency int
	Rows          []PerfRow
}

// PerfPolicies returns the policies compared in the trade-off sweep as
// a fresh slice per call.
func PerfPolicies() []string {
	return []string{"baseline", "rr-no-sensor", "sensor-wise"}
}

// RunPerfImpact sweeps injection rates for each policy on one
// architecture and reports latency, throughput and the MD-VC duty-cycle,
// demonstrating that the NBTI recovery is (nearly) performance-neutral —
// and what a non-zero sleep-transistor wake-up latency costs.
func RunPerfImpact(cores, vcs, wakeup int, rates []float64, opt TableOptions) (*PerfTable, error) {
	return perfDriver(cores, vcs, wakeup, rates, opt).run(opt)
}

// perfDriver enumerates the trade-off sweep: every policy at every rate.
func perfDriver(cores, vcs, wakeup int, rates []float64, opt TableOptions) driver[*PerfTable] {
	m, err := SquareMesh(cores)
	if err != nil {
		return driver[*PerfTable]{err: err}
	}
	var specs []Spec
	for _, rate := range rates {
		for _, policy := range PerfPolicies() {
			spec := opt.syntheticSpec(m, vcs, rate, policy)
			spec.Net.WakeupLatency = wakeup
			specs = append(specs, spec)
		}
	}
	return driver[*PerfTable]{specs: specs, reduce: func(sums []*RunSummary) (*PerfTable, error) {
		out := &PerfTable{Cores: cores, VCs: vcs, WakeupLatency: wakeup}
		for i, spec := range specs {
			r := sums[i].Ports[0]
			out.Rows = append(out.Rows, PerfRow{
				Policy:     spec.Policy.Name,
				Rate:       spec.Gen.Rate,
				AvgLatency: sums[i].AvgLatency,
				Throughput: sums[i].Throughput,
				DutyMD:     r.Duty[r.MostDegraded],
			})
		}
		return out, nil
	}}
}

// Render formats the trade-off sweep.
func (t *PerfTable) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "NBTI/performance trade-off — %d cores, %d VCs, wake-up %d cycles\n",
		t.Cores, t.VCs, t.WakeupLatency)
	fmt.Fprintf(&b, "%-6s %-14s %-12s %-12s %-10s\n",
		"rate", "policy", "latency", "throughput", "duty@MD")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-6.2f %-14s %9.2f cy %12.4f %8.1f%%\n",
			r.Rate, r.Policy, r.AvgLatency, r.Throughput, r.DutyMD)
	}
	return b.String()
}

// EnergyRow is one policy's energy breakdown on a common scenario.
type EnergyRow struct {
	Policy string
	Report power.Report
	// Sensors is the number of always-on NBTI sensors charged.
	Sensors int
}

// EnergyTable is the leakage/energy extension result.
type EnergyTable struct {
	Cores, VCs int
	Rate       float64
	Cycles     uint64
	Rows       []EnergyRow
}

// RunEnergy runs every registered policy on one scenario and estimates
// router energy, including the leakage avoided by the NBTI gating and
// the cost of the always-on sensors — the side-benefit analysis of the
// power-gating mechanism the paper builds on.
func RunEnergy(cores, vcs int, rate float64, opt TableOptions) (*EnergyTable, error) {
	return energyDriver(cores, vcs, rate, opt).run(opt)
}

// energyDriver enumerates the energy extension: one unprobed run per
// policy on a common scenario.
func energyDriver(cores, vcs int, rate float64, opt TableOptions) driver[*EnergyTable] {
	m, err := SquareMesh(cores)
	if err != nil {
		return driver[*EnergyTable]{err: err}
	}
	policies := []string{"baseline", "rr-no-sensor", "rr-no-sensor-no-traffic",
		"sensor-wise-no-traffic", "sensor-wise"}
	specs := make([]Spec, len(policies))
	for i, policy := range policies {
		specs[i] = opt.syntheticSpec(m, vcs, rate, policy)
		specs[i].Probes = nil
	}
	return driver[*EnergyTable]{specs: specs, reduce: func(sums []*RunSummary) (*EnergyTable, error) {
		out := &EnergyTable{Cores: cores, VCs: vcs, Rate: rate, Cycles: opt.Measure}
		params := power.Default45nm()
		for i, policy := range policies {
			factory, err := core.Lookup(policy)
			if err != nil {
				return nil, err
			}
			sensors := 0
			if noc.PolicyUsesSensors(factory()) {
				// One sensor per router input VC buffer.
				sensors = sums[i].Nodes * int(noc.NumPorts) * sums[i].TotalVCs
			}
			rep, err := power.Estimate(params, sums[i].Events, sensors, opt.Measure)
			if err != nil {
				return nil, err
			}
			out.Rows = append(out.Rows, EnergyRow{Policy: policy, Report: rep, Sensors: sensors})
		}
		return out, nil
	}}
}

// Render formats the energy extension.
func (t *EnergyTable) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Router energy over %d cycles — %d cores, %d VCs, uniform inj %.2f\n",
		t.Cycles, t.Cores, t.VCs, t.Rate)
	fmt.Fprintf(&b, "%-24s %-11s %-11s %-11s %-12s %s\n",
		"policy", "dynamic", "leakage", "total", "leak saved", "sensors")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-24s %8.1f nJ %8.1f nJ %8.1f nJ %9.1f%%  %d\n",
			r.Policy, r.Report.DynamicNJ, r.Report.LeakageNJ, r.Report.TotalNJ,
			r.Report.LeakSavedPct, r.Sensors)
	}
	return b.String()
}

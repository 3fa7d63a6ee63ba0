package sim

import (
	"fmt"
	"strings"

	"nbtinoc/internal/area"
)

// DSERow is one (VCs, buffer depth) design point of the exploration.
type DSERow struct {
	VCs, Depth int
	// DutyMD is the sensor-wise duty-cycle on the most degraded VC.
	DutyMD float64
	// GapVsRR is rr-no-sensor minus sensor-wise on that VC.
	GapVsRR float64
	// AvgLatency is the sensor-wise average packet latency.
	AvgLatency float64
	// RouterUm2 is the baseline router area at this point.
	RouterUm2 float64
	// OverheadPct is the NBTI-awareness area overhead (Section III-D
	// accounting) at this point.
	OverheadPct float64
}

// DSETable is the cost/benefit exploration over the paper's main
// microarchitectural knobs: more VCs give the sensor-wise policy more
// steering slack (larger gap) but cost buffer area and sensors; deeper
// buffers amortise the sensors but increase the stress captured per VC.
type DSETable struct {
	Cores int
	Rate  float64
	Rows  []DSERow
}

// RunDSE sweeps VC count and buffer depth on one scenario.
func RunDSE(cores int, rate float64, vcsList, depths []int, opt TableOptions) (*DSETable, error) {
	return dseDriver(cores, rate, vcsList, depths, opt).run(opt)
}

// dseDriver enumerates the exploration: both policies at every (VCs,
// depth) design point.
func dseDriver(cores int, rate float64, vcsList, depths []int, opt TableOptions) driver[*DSETable] {
	if len(vcsList) == 0 || len(depths) == 0 {
		return driver[*DSETable]{err: fmt.Errorf("sim: empty design space")}
	}
	m, err := SquareMesh(cores)
	if err != nil {
		return driver[*DSETable]{err: err}
	}
	dsePolicies := []string{"rr-no-sensor", "sensor-wise"}
	var specs []Spec
	for _, vcs := range vcsList {
		for _, depth := range depths {
			for _, policy := range dsePolicies {
				spec := opt.syntheticSpec(m, vcs, rate, policy)
				spec.Net.BufferDepth = depth
				specs = append(specs, spec)
			}
		}
	}
	return driver[*DSETable]{specs: specs, reduce: func(sums []*RunSummary) (*DSETable, error) {
		out := &DSETable{Cores: cores, Rate: rate}
		next := 0
		for _, vcs := range vcsList {
			for _, depth := range depths {
				duty := map[string]float64{}
				var lat float64
				md := -1
				for _, policy := range dsePolicies {
					r := sums[next].Ports[0]
					if md == -1 {
						md = r.MostDegraded
					}
					duty[policy] = r.Duty[md]
					if policy == "sensor-wise" {
						lat = sums[next].AvgLatency
					}
					next++
				}
				spec := area.RouterSpec{
					Ports: 4, VCsPerPort: vcs, BufferDepth: depth, FlitBits: 64,
				}
				rep, err := area.Estimate(area.Default45nm(), spec)
				if err != nil {
					return nil, err
				}
				out.Rows = append(out.Rows, DSERow{
					VCs:         vcs,
					Depth:       depth,
					DutyMD:      duty["sensor-wise"],
					GapVsRR:     duty["rr-no-sensor"] - duty["sensor-wise"],
					AvgLatency:  lat,
					RouterUm2:   rep.RouterUm2,
					OverheadPct: rep.TotalPctOfBaseline,
				})
			}
		}
		return out, nil
	}}
}

// Render formats the exploration.
func (t *DSETable) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Design-space exploration — %d cores, uniform inj %.2f\n", t.Cores, t.Rate)
	fmt.Fprintf(&b, "%-5s %-6s %-11s %-10s %-10s %-12s %s\n",
		"VCs", "depth", "duty@MD", "gap vs rr", "latency", "router area", "NBTI ovh")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-5d %-6d %9.2f%% %9.2f%% %7.1f cy %9.0f um2 %7.2f%%\n",
			r.VCs, r.Depth, r.DutyMD, r.GapVsRR, r.AvgLatency, r.RouterUm2, r.OverheadPct)
	}
	return b.String()
}

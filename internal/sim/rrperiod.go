package sim

import (
	"fmt"
	"strings"

	"nbtinoc/internal/core"
)

// RRPeriodRow is one rotation-period point of the rr-no-sensor study.
type RRPeriodRow struct {
	Period uint64
	// DutyMD is the duty-cycle of the most degraded VC.
	DutyMD float64
	// DutyMax and DutySpread summarise the whole port: the paper's
	// claim is that fast rotation spreads stress evenly, which is
	// exactly what minimises the unknowable most degraded VC's share.
	DutyMax, DutySpread float64
}

// RRPeriodTable validates the paper's claim that the fast round-robin
// rotation is "the best approach we can cast" without sensors: slower
// rotation keeps the same VC powered for longer stretches, skewing
// stress and — since a sensor-less policy cannot know which VC the
// process variation made weakest — raising the expected duty of the
// most degraded one.
type RRPeriodTable struct {
	Cores, VCs int
	Rate       float64
	Rows       []RRPeriodRow
}

// RunRRPeriodStudy sweeps the Algorithm 1 candidate rotation period on
// one scenario.
func RunRRPeriodStudy(cores, vcs int, rate float64, periods []uint64, opt TableOptions) (*RRPeriodTable, error) {
	return rrPeriodDriver(cores, vcs, rate, periods, opt).run(opt)
}

// rrPeriodDriver enumerates one run per rotation period. The period is
// declared through PolicySpec, so the sweep stays cacheable by content;
// the default period is plain rr-no-sensor, the same run (and cache key)
// as that policy's row of Table II.
func rrPeriodDriver(cores, vcs int, rate float64, periods []uint64, opt TableOptions) driver[*RRPeriodTable] {
	if len(periods) == 0 {
		return driver[*RRPeriodTable]{err: fmt.Errorf("sim: empty period sweep")}
	}
	m, err := SquareMesh(cores)
	if err != nil {
		return driver[*RRPeriodTable]{err: err}
	}
	specs := make([]Spec, len(periods))
	for i, period := range periods {
		if period == core.DefaultRotatePeriod {
			specs[i] = opt.syntheticSpec(m, vcs, rate, "rr-no-sensor")
			continue
		}
		specs[i] = opt.syntheticSpec(m, vcs, rate, "")
		specs[i].Policy.RRPeriod = period
	}
	return driver[*RRPeriodTable]{specs: specs, reduce: func(sums []*RunSummary) (*RRPeriodTable, error) {
		out := &RRPeriodTable{Cores: cores, VCs: vcs, Rate: rate}
		for i, period := range periods {
			r := sums[i].Ports[0]
			min, max := 100.0, 0.0
			for _, d := range r.Duty {
				if d < min {
					min = d
				}
				if d > max {
					max = d
				}
			}
			out.Rows = append(out.Rows, RRPeriodRow{
				Period:     period,
				DutyMD:     r.Duty[r.MostDegraded],
				DutyMax:    max,
				DutySpread: max - min,
			})
		}
		return out, nil
	}}
}

// Render formats the study.
func (t *RRPeriodTable) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rr-no-sensor rotation-period study — %d cores, %d VCs, uniform inj %.2f\n",
		t.Cores, t.VCs, t.Rate)
	fmt.Fprintf(&b, "%-10s %-10s %-10s %s\n", "period", "duty@MD", "worst VC", "spread")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-10d %8.2f%% %8.2f%% %7.2f%%\n",
			r.Period, r.DutyMD, r.DutyMax, r.DutySpread)
	}
	return b.String()
}

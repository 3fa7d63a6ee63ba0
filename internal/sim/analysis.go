package sim

import (
	"fmt"
	"strings"

	"nbtinoc/internal/nbti"
)

// VthRow is one scenario of the ΔVth saving analysis (the paper's
// conclusion claim: up to 54.2% net NBTI Vth saving vs the non-NBTI-
// aware baseline, obtained by feeding measured duty-cycles into the
// long-term model of Eq. 1).
type VthRow struct {
	Scenario string
	MDVC     int
	// AlphaMD is the measured sensor-wise duty-cycle fraction on the
	// most degraded VC; the baseline NoC holds every VC at alpha = 1.
	AlphaMD float64
	// DeltaVthBaseline and DeltaVthSensorWise are the projected shifts
	// (volts) after Years of operation.
	DeltaVthBaseline   float64
	DeltaVthSensorWise float64
	// SavingPct is the net ΔVth saving percentage.
	SavingPct float64
}

// VthTable is the ΔVth saving analysis result.
type VthTable struct {
	Years float64
	Rows  []VthRow
	// MaxSavingPct is the headline number (paper: up to 54.2%).
	MaxSavingPct float64
}

// RunVthSaving measures sensor-wise duty-cycles on the synthetic sweep
// and projects the ΔVth saving of the most degraded VC against the
// always-on baseline after the given number of years.
func RunVthSaving(vcs int, years float64, opt TableOptions) (*VthTable, error) {
	return vthDriver(vcs, years, opt).run(opt)
}

// vthDriver enumerates the ΔVth analysis: one synthetic run per (cores,
// rate), then one application-mix run per architecture. The app-mix
// scenarios matter because the paper's headline 54.2% saving comes from
// ports whose most degraded VC is almost never exercised, which the
// bursty benchmark workloads produce (Table IV shows MD-VC duty-cycles
// below 1%). Both kinds are runs Tables III and IV make too, so a
// manifest of all tables holds them once.
func vthDriver(vcs int, years float64, opt TableOptions) driver[*VthTable] {
	if years <= 0 {
		return driver[*VthTable]{err: fmt.Errorf("sim: non-positive projection horizon %v", years)}
	}
	var specs []Spec
	for _, cores := range opt.Cores {
		m, err := SquareMesh(cores)
		if err != nil {
			return driver[*VthTable]{err: err}
		}
		for _, rate := range opt.Rates {
			specs = append(specs, opt.syntheticSpec(m, vcs, rate, "sensor-wise"))
		}
	}
	for _, cores := range opt.Cores {
		spec, err := opt.appSpec(cores, vcs, 0, "sensor-wise")
		if err != nil {
			return driver[*VthTable]{err: err}
		}
		specs = append(specs, spec)
	}
	return driver[*VthTable]{specs: specs, reduce: func(sums []*RunSummary) (*VthTable, error) {
		model := nbti.Default45nm()
		out := &VthTable{Years: years}
		wall := years * nbti.SecondsPerYear
		for i, spec := range specs {
			for _, reading := range sums[i].Ports {
				scenario := fmt.Sprintf("%dcore-inj%.2f", spec.Net.Nodes(), spec.Gen.Rate)
				if spec.Gen.Kind == "app" {
					scenario = fmt.Sprintf("%dc-app-%s", spec.Net.Nodes(), reading.Probe.Label())
				}
				alpha := reading.Duty[reading.MostDegraded] / 100
				row := VthRow{
					Scenario:           scenario,
					MDVC:               reading.MostDegraded,
					AlphaMD:            alpha,
					DeltaVthBaseline:   model.DeltaVth(1, wall),
					DeltaVthSensorWise: model.DeltaVth(alpha, wall),
				}
				row.SavingPct = 100 * model.Saving(alpha, 1, wall)
				if row.SavingPct > out.MaxSavingPct {
					out.MaxSavingPct = row.SavingPct
				}
				out.Rows = append(out.Rows, row)
			}
		}
		return out, nil
	}}
}

// Render formats the ΔVth analysis.
func (t *VthTable) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Net NBTI ΔVth saving on the most degraded VC after %.1f years\n", t.Years)
	fmt.Fprintf(&b, "%-16s %-3s %-9s %-14s %-14s %s\n",
		"Scenario", "MD", "alpha(MD)", "ΔVth baseline", "ΔVth sens-wise", "saving")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-16s %-3d %8.2f%% %11.1f mV %11.1f mV %5.1f%%\n",
			r.Scenario, r.MDVC, 100*r.AlphaMD,
			1000*r.DeltaVthBaseline, 1000*r.DeltaVthSensorWise, r.SavingPct)
	}
	fmt.Fprintf(&b, "max saving: %.1f%% (paper reports up to 54.2%%)\n", t.MaxSavingPct)
	return b.String()
}

// CoopRow is one scenario of the cooperation ablation (conclusion claim:
// exploiting upstream traffic information reduces the most degraded
// VC's duty-cycle by up to 23% versus the non-cooperative variants).
type CoopRow struct {
	Scenario string
	MDVC     int
	// DutyMD maps policy name to the MD-VC duty-cycle.
	DutyMD map[string]float64
	// ReductionSW is duty(sensor-wise-no-traffic) − duty(sensor-wise)
	// on the MD VC, in percentage points.
	ReductionSW float64
	// ReductionRR is the same for the round-robin pair.
	ReductionRR float64
}

// CoopTable is the cooperation ablation result.
type CoopTable struct {
	VCs  int
	Rows []CoopRow
	// MaxReductionPts is the headline number in percentage points.
	MaxReductionPts float64
}

// CoopPolicies returns the four policies of the ablation as a fresh
// slice per call.
func CoopPolicies() []string {
	return []string{
		"rr-no-sensor", "rr-no-sensor-no-traffic",
		"sensor-wise", "sensor-wise-no-traffic",
	}
}

// RunCooperation quantifies the benefit of the cooperative traffic
// information by running each policy against its non-cooperative twin
// on identical scenarios.
func RunCooperation(vcs int, opt TableOptions) (*CoopTable, error) {
	return coopDriver(vcs, opt).run(opt)
}

// coopDriver enumerates the cooperation ablation: the four policies on
// every (cores, rate) scenario.
func coopDriver(vcs int, opt TableOptions) driver[*CoopTable] {
	policies := CoopPolicies()
	var specs []Spec
	for _, cores := range opt.Cores {
		m, err := SquareMesh(cores)
		if err != nil {
			return driver[*CoopTable]{err: err}
		}
		for _, rate := range opt.Rates {
			for _, policy := range policies {
				specs = append(specs, opt.syntheticSpec(m, vcs, rate, policy))
			}
		}
	}
	return driver[*CoopTable]{specs: specs, reduce: func(sums []*RunSummary) (*CoopTable, error) {
		out := &CoopTable{VCs: vcs}
		next := 0
		for _, cores := range opt.Cores {
			for _, rate := range opt.Rates {
				row := CoopRow{
					Scenario: fmt.Sprintf("%dcore-inj%.2f", cores, rate),
					DutyMD:   make(map[string]float64, len(policies)),
					MDVC:     -1,
				}
				for _, policy := range policies {
					reading := sums[next].Ports[0]
					next++
					if row.MDVC == -1 {
						row.MDVC = reading.MostDegraded
					}
					row.DutyMD[policy] = reading.Duty[reading.MostDegraded]
				}
				row.ReductionSW = row.DutyMD["sensor-wise-no-traffic"] - row.DutyMD["sensor-wise"]
				row.ReductionRR = row.DutyMD["rr-no-sensor-no-traffic"] - row.DutyMD["rr-no-sensor"]
				for _, v := range []float64{row.ReductionSW, row.ReductionRR} {
					if v > out.MaxReductionPts {
						out.MaxReductionPts = v
					}
				}
				out.Rows = append(out.Rows, row)
			}
		}
		return out, nil
	}}
}

// Render formats the cooperation ablation.
func (t *CoopTable) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cooperation ablation — MD-VC NBTI-duty-cycle (%%), %d VCs\n", t.VCs)
	fmt.Fprintf(&b, "%-16s %-3s %12s %12s %12s %12s %9s %9s\n",
		"Scenario", "MD", "rr", "rr-no-traf", "sw", "sw-no-traf", "Δrr", "Δsw")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-16s %-3d %11.1f%% %11.1f%% %11.1f%% %11.1f%% %8.1f%% %8.1f%%\n",
			r.Scenario, r.MDVC,
			r.DutyMD["rr-no-sensor"], r.DutyMD["rr-no-sensor-no-traffic"],
			r.DutyMD["sensor-wise"], r.DutyMD["sensor-wise-no-traffic"],
			r.ReductionRR, r.ReductionSW)
	}
	fmt.Fprintf(&b, "max cooperative reduction: %.1f points (paper reports up to 23%%)\n",
		t.MaxReductionPts)
	return b.String()
}

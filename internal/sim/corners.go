package sim

import (
	"fmt"
	"math"
	"strings"

	"nbtinoc/internal/nbti"
)

// CornerRow is one (temperature, Vdd) operating corner of the lifetime
// analysis.
type CornerRow struct {
	TempK float64
	Vdd   float64
	// LifetimeYears maps policy name to the years until the most
	// degraded VC's ΔVth reaches the budget (+Inf capped at 100).
	LifetimeYears map[string]float64
	// ExtensionX is lifetime(sensor-wise)/lifetime(baseline), the
	// lifetime-extension factor of the methodology at this corner.
	ExtensionX float64
}

// CornerTable is the environment-sweep result. NBTI is exponentially
// temperature- and field-accelerated (the Kv term of Eq. 1), so the
// value of the duty-cycle reduction grows where chips actually run hot —
// this extension quantifies that.
type CornerTable struct {
	Cores, VCs int
	Rate       float64
	BudgetMV   float64
	// AlphaMD maps policy to the duty-cycle fraction measured once on
	// the common scenario (the workload does not depend on temperature).
	AlphaMD map[string]float64
	Rows    []CornerRow
}

// CornerPolicies returns the compared policies as a fresh slice per
// call.
func CornerPolicies() []string {
	return []string{"baseline", "rr-no-sensor", "sensor-wise"}
}

// RunCorners measures the most-degraded-VC duty-cycle per policy on one
// scenario, then sweeps the NBTI model across operating corners and
// reports the time each corner allows before a ΔVth budget is exhausted.
func RunCorners(cores, vcs int, rate, budgetV float64,
	temps, vdds []float64, opt TableOptions) (*CornerTable, error) {
	if budgetV <= 0 {
		return nil, fmt.Errorf("sim: non-positive budget %v", budgetV)
	}
	if len(temps) == 0 || len(vdds) == 0 {
		return nil, fmt.Errorf("sim: empty corner sweep")
	}
	m, err := SquareMesh(cores)
	if err != nil {
		return nil, err
	}
	policies := CornerPolicies()
	specs := make([]Spec, len(policies))
	for i, policy := range policies {
		specs[i] = opt.syntheticSpec(m, vcs, rate, policy)
	}
	sums, err := opt.runAll(specs)
	if err != nil {
		return nil, err
	}
	out := &CornerTable{
		Cores: cores, VCs: vcs, Rate: rate,
		BudgetMV: 1000 * budgetV,
		AlphaMD:  make(map[string]float64, len(policies)),
	}
	for i, policy := range policies {
		r := sums[i].Ports[0]
		out.AlphaMD[policy] = r.Duty[r.MostDegraded] / 100
	}

	for _, tK := range temps {
		for _, vdd := range vdds {
			model := nbti.Default45nm()
			model.TempK = tK
			model.Vdd = vdd
			if err := model.Validate(); err != nil {
				return nil, err
			}
			row := CornerRow{
				TempK:         tK,
				Vdd:           vdd,
				LifetimeYears: make(map[string]float64, len(policies)),
			}
			for _, policy := range policies {
				lt := model.LifetimeToBudget(out.AlphaMD[policy], budgetV)
				years := lt / nbti.SecondsPerYear
				if math.IsInf(lt, 1) || years > 100 {
					years = 100
				}
				row.LifetimeYears[policy] = years
			}
			if b := row.LifetimeYears["baseline"]; b > 0 {
				row.ExtensionX = row.LifetimeYears["sensor-wise"] / b
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// Render formats the corner sweep.
func (t *CornerTable) Render() string {
	policies := CornerPolicies()
	var b strings.Builder
	fmt.Fprintf(&b, "Lifetime to a %.0f mV ΔVth budget across operating corners\n", t.BudgetMV)
	fmt.Fprintf(&b, "(%d cores, %d VCs, uniform inj %.2f; duty-cycles:", t.Cores, t.VCs, t.Rate)
	for _, p := range policies {
		fmt.Fprintf(&b, " %s=%.1f%%", p, 100*t.AlphaMD[p])
	}
	fmt.Fprintf(&b, ")\n%-7s %-6s", "T(K)", "Vdd")
	for _, p := range policies {
		fmt.Fprintf(&b, " %14s", p)
	}
	fmt.Fprintf(&b, " %10s\n", "extension")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-7.0f %-6.2f", r.TempK, r.Vdd)
		for _, p := range policies {
			y := r.LifetimeYears[p]
			if y >= 100 {
				fmt.Fprintf(&b, " %13s", ">100 y")
			} else {
				fmt.Fprintf(&b, " %11.1f y", y)
			}
		}
		fmt.Fprintf(&b, " %9.1fx\n", r.ExtensionX)
	}
	return b.String()
}

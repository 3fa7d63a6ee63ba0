package sim

import (
	"fmt"
	"strings"

	"nbtinoc/internal/nbti"
	"nbtinoc/internal/sensor"
)

// SensorVariant names one sensor configuration of the robustness study.
type SensorVariant struct {
	Name string
	Cfg  sensor.Config
}

// SensorVariants returns the studied configurations: the idealised
// sensor the tables use, the reference 45 nm sensor of [20] with its
// quantisation and read noise, progressively degraded variants, and a
// closed-loop variant whose ranking follows accumulated stress rather
// than initial Vth alone.
func SensorVariants() []SensorVariant {
	return []SensorVariant{
		{Name: "ideal", Cfg: sensor.Config{SamplePeriod: 1024}},
		{Name: "reference", Cfg: sensor.DefaultConfig()},
		{Name: "coarse", Cfg: sensor.Config{SamplePeriod: 1024, LSB: 2e-3, NoiseSigma: 1e-3}},
		{Name: "very-noisy", Cfg: sensor.Config{SamplePeriod: 1024, LSB: 2e-3, NoiseSigma: 5e-3}},
		{Name: "slow", Cfg: sensor.Config{SamplePeriod: 100_000, LSB: 0.5e-3, NoiseSigma: 0.25e-3}},
		{Name: "dynamic", Cfg: sensor.Config{SamplePeriod: 4096,
			Horizon: 3 * nbti.SecondsPerYear}},
	}
}

// SensorRow is one variant's outcome.
type SensorRow struct {
	Variant string
	// TrueMD is the argmax-Vth0 VC of the probed port; SensedMD is the
	// VC the sensor bank designated at the end of the run.
	TrueMD, SensedMD int
	// Identified reports whether the bank pointed at the true MD VC.
	Identified bool
	// DutyTrueMD is the NBTI-duty-cycle the *true* most degraded VC
	// accumulated — the quantity that actually determines its aging.
	DutyTrueMD float64
	// GapVsRR is rr-no-sensor's duty on the true MD VC minus this
	// variant's; positive means the noisy sensors still beat the
	// sensor-less reference.
	GapVsRR float64
}

// SensorTable is the robustness-study result.
type SensorTable struct {
	Cores, VCs int
	Rate       float64
	Rows       []SensorRow
}

// RunSensorStudy evaluates the sensor-wise policy under each sensor
// variant on a common scenario, against the rr-no-sensor reference.
// It quantifies how much of the paper's gain survives realistic sensor
// non-idealities — the feasibility question behind Section III-D's
// choice of the [20] sensor.
func RunSensorStudy(cores, vcs int, rate float64, opt TableOptions) (*SensorTable, error) {
	m, err := SquareMesh(cores)
	if err != nil {
		return nil, err
	}
	sensorSeed := scenarioSeed(opt.SeedBase, cores, rate, 29)
	variants := SensorVariants()

	// Spec 0 is the rr-no-sensor reference (sensor configuration
	// irrelevant); specs 1..N are the sensor-wise runs, one per variant.
	// The true MD VC falls out of the reference run.
	specs := []Spec{opt.syntheticSpec(m, vcs, rate, "rr-no-sensor")}
	for _, v := range variants {
		spec := opt.syntheticSpec(m, vcs, rate, "sensor-wise")
		spec.Net.Sensor = v.Cfg
		specs = append(specs, spec)
	}
	for i := range specs {
		specs[i].Net.SensorSeed = sensorSeed
	}
	sums, err := opt.runAll(specs)
	if err != nil {
		return nil, err
	}
	out := &SensorTable{Cores: cores, VCs: vcs, Rate: rate}
	ref := sums[0].Ports[0]
	trueMD := argmax(ref.Vth0)
	rrDuty := ref.Duty[trueMD]
	for i, v := range variants {
		r := sums[1+i].Ports[0]
		row := SensorRow{
			Variant:    v.Name,
			TrueMD:     trueMD,
			SensedMD:   r.MostDegraded,
			Identified: r.MostDegraded == trueMD,
			DutyTrueMD: r.Duty[trueMD],
		}
		row.GapVsRR = rrDuty - row.DutyTrueMD
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// argmax returns the index of the maximum value (first on ties).
func argmax(vals []float64) int {
	best := 0
	for i, v := range vals {
		if v > vals[best] {
			best = i
		}
	}
	return best
}

// Render formats the study.
func (t *SensorTable) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sensor robustness — sensor-wise vs rr-no-sensor on the true MD VC\n")
	fmt.Fprintf(&b, "(%d cores, %d VCs, uniform inj %.2f)\n", t.Cores, t.VCs, t.Rate)
	fmt.Fprintf(&b, "%-12s %-8s %-9s %-11s %-12s %s\n",
		"variant", "true MD", "sensed", "identified", "duty@trueMD", "gap vs rr")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-12s %-8d %-9d %-11v %10.2f%% %8.2f%%\n",
			r.Variant, r.TrueMD, r.SensedMD, r.Identified, r.DutyTrueMD, r.GapVsRR)
	}
	return b.String()
}

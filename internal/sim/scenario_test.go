package sim

import (
	"math"
	"testing"

	"nbtinoc/internal/nbti"
	"nbtinoc/internal/pv"
)

// compute runs a spec the way every run path does, after the checks a
// submission of it gets.
func compute(t *testing.T, s Spec) *RunSummary {
	t.Helper()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	sum, err := s.Compute()
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

func TestScenarioExecute(t *testing.T) {
	res := compute(t, quickSpec())
	if res.Policy != "sensor-wise" || len(res.Ports) != 1 {
		t.Errorf("unexpected result: %+v", res)
	}
	if res.EjectedPackets == 0 {
		t.Error("no traffic delivered")
	}
}

func TestScenarioExecuteReqResp(t *testing.T) {
	s := quickSpec()
	s.Net.VNets = 2
	s.Gen = GenSpec{Kind: "req-resp", Width: 2, Height: 2, Rate: 0.02, Seed: 1}
	if res := compute(t, s); res.EjectedPackets == 0 {
		t.Error("req-resp run delivered nothing")
	}
}

func TestScenarioExecuteApp(t *testing.T) {
	s := quickSpec()
	s.Gen = GenSpec{Kind: "app", Width: 2, Height: 2, Seed: 1}
	s.Measure = 20000
	if res := compute(t, s); res.Workload != "app-mix" {
		t.Errorf("workload = %q", res.Workload)
	}
}

// TestScenarioBadWorkload: an unknown synthetic pattern is refused by
// Validate, and a spec that skipped validation still does not run.
func TestScenarioBadWorkload(t *testing.T) {
	s := quickSpec()
	s.Gen.Pattern = "spiral"
	if err := s.Validate(); err == nil {
		t.Error("unknown workload validated")
	}
	if _, err := s.Compute(); err == nil {
		t.Error("unknown workload computed")
	}
}

// TestScenario32nmConfig: the 32 nm corner (the NBTI model and PV draw
// nbtisim's -tech 32 sets) validates, keys apart from the 45 nm
// default, and reaches the run's sampled Vth0.
func TestScenario32nmConfig(t *testing.T) {
	s45 := quickSpec()
	s32 := quickSpec()
	s32.Net.NBTI, s32.Net.PV = nbti.Default32nm(), pv.Default32nm()
	if s32.Net.NBTI.Vth0 != 0.160 || s32.Net.PV.MeanVth != 0.160 {
		t.Errorf("32 nm Vth0: model %v, PV mean %v, want 0.160", s32.Net.NBTI.Vth0, s32.Net.PV.MeanVth)
	}
	if s45.Net.NBTI.Vth0 != 0.180 || s45.Net.PV.MeanVth != 0.180 {
		t.Errorf("45 nm Vth0: model %v, PV mean %v, want 0.180", s45.Net.NBTI.Vth0, s45.Net.PV.MeanVth)
	}
	if mustKey(t, s32) == mustKey(t, s45) {
		t.Error("32 nm and 45 nm specs share a key")
	}
	// Both corners share sigma and the PV seed, so each VC draws the
	// same deviate and its Vth0 sits 20 mV lower at 32 nm.
	r45, r32 := compute(t, s45), compute(t, s32)
	if len(r45.Ports) != 1 || len(r32.Ports) != 1 || len(r45.Ports[0].Vth0) == 0 ||
		len(r45.Ports[0].Vth0) != len(r32.Ports[0].Vth0) {
		t.Fatalf("Vth0 readings: 45 nm %+v, 32 nm %+v", r45.Ports, r32.Ports)
	}
	for vc, v45 := range r45.Ports[0].Vth0 {
		if v32 := r32.Ports[0].Vth0[vc]; math.Abs(v45-v32-0.020) > 1e-9 {
			t.Errorf("VC %d sampled Vth0: 45 nm %v, 32 nm %v, want 20 mV apart", vc, v45, v32)
		}
	}
}

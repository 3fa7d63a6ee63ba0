package sim

import (
	"errors"
	"testing"

	"nbtinoc/internal/noc"
)

func validScenario() Scenario {
	return Scenario{
		Name:     "unit",
		Cores:    4,
		VCs:      2,
		Policy:   "sensor-wise",
		Workload: "uniform",
		Rate:     0.1,
		Warmup:   500,
		Measure:  5000,
		Seed:     1,
		PVSeed:   2,
	}
}

func TestScenarioDefaults(t *testing.T) {
	s := validScenario()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.VNets != 1 || s.TechNode != 45 || s.PacketLen != 4 || s.Phits != 1 {
		t.Errorf("defaults not applied: %+v", s)
	}
}

func TestScenarioValidation(t *testing.T) {
	// Validate rejects what only a scenario can get wrong: its cores
	// shorthand and its tech node.
	for i, mutate := range []func(*Scenario){
		func(s *Scenario) { s.Cores = 0 },
		func(s *Scenario) { s.Cores = 5 },
		func(s *Scenario) { s.Width, s.Height = 4, 2 },
		func(s *Scenario) { s.TechNode = 28 },
	} {
		s := validScenario()
		mutate(&s)
		if _, err := s.Spec(nil); err == nil {
			t.Errorf("case %d accepted: %+v", i, s)
		}
	}
	// Everything else reaches Spec.Validate, so Spec reports the
	// field-tagged SpecErrors a daemon submission of the same run gets.
	for field, mutate := range map[string]func(*Scenario){
		"net":         func(s *Scenario) { s.VCs = 0 },
		"measure":     func(s *Scenario) { s.Measure = 0 },
		"gen.kind":    func(s *Scenario) { s.Workload = "req-resp"; s.VNets = 1 },
		"gen.pattern": func(s *Scenario) { s.Workload = "spiral" },
		"policy.name": func(s *Scenario) { s.Policy = "bogus" },
	} {
		s := validScenario()
		mutate(&s)
		_, err := s.Spec(nil)
		var errs SpecErrors
		if !errors.As(err, &errs) || errs[0].Field != field {
			t.Errorf("%s: error %v, want SpecErrors tagged %s", field, err, field)
		}
	}
}

// TestScenarioSpecKeysLikeTableSpec: a uniform run keys the same
// whether a table driver or a Scenario (the CLI flags, a grid point)
// describes it, so both share one cache entry.
func TestScenarioSpecKeysLikeTableSpec(t *testing.T) {
	opt := DefaultTableOptions()
	m := Mesh{Width: 2, Height: 2}
	want := opt.syntheticSpec(m, 2, 0.1, "sensor-wise")
	s := Scenario{
		Cores:    4,
		VCs:      2,
		Policy:   "sensor-wise",
		Workload: "uniform",
		Rate:     0.1,
		Phits:    opt.Phits,
		Warmup:   opt.Warmup,
		Measure:  opt.Measure,
		Seed:     want.Gen.Seed,
		PVSeed:   want.Net.PVSeed,
	}
	got, err := s.Spec(want.Probes)
	if err != nil {
		t.Fatal(err)
	}
	if gk, wk := mustKey(t, got), mustKey(t, want); gk != wk {
		t.Errorf("scenario spec keys %s, table spec %s:\n%+v\n%+v", gk[:12], wk[:12], got.Gen, want.Gen)
	}
	// Only the hotspot pattern carries the hotspot knobs.
	s.Workload = "hotspot"
	if hot, err := s.Spec(nil); err != nil || hot.Gen.HotspotFraction != 0.3 {
		t.Errorf("hotspot scenario: fraction %v, err %v", hot.Gen.HotspotFraction, err)
	}
}

func TestScenario32nmConfig(t *testing.T) {
	s := validScenario()
	s.TechNode = 32
	spec, err := s.Spec(nil)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Net.PV.MeanVth != 0.160 {
		t.Errorf("32 nm mean Vth0 = %v, want 0.160", spec.Net.PV.MeanVth)
	}
	if spec.Net.NBTI.Vth0 != 0.160 {
		t.Errorf("32 nm model Vth0 = %v", spec.Net.NBTI.Vth0)
	}
	s45 := validScenario()
	spec45, err := s45.Spec(nil)
	if err != nil {
		t.Fatal(err)
	}
	if spec45.Net.PV.MeanVth != 0.180 {
		t.Errorf("45 nm mean Vth0 = %v, want 0.180", spec45.Net.PV.MeanVth)
	}
}

// execute runs a scenario the way every run path does: compile it to a
// spec, then compute the spec.
func execute(t *testing.T, s Scenario, probes []PortProbe) *RunSummary {
	t.Helper()
	spec, err := s.Spec(probes)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := spec.Compute()
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

func TestScenarioExecute(t *testing.T) {
	res := execute(t, validScenario(), []PortProbe{{Node: 0, Port: noc.East}})
	if res.Policy != "sensor-wise" || len(res.Ports) != 1 {
		t.Errorf("unexpected result: %+v", res)
	}
	if res.EjectedPackets == 0 {
		t.Error("no traffic delivered")
	}
}

func TestScenarioExecuteReqResp(t *testing.T) {
	s := validScenario()
	s.Workload = "req-resp"
	s.VNets = 2
	s.Rate = 0.02
	if res := execute(t, s, nil); res.EjectedPackets == 0 {
		t.Error("req-resp scenario delivered nothing")
	}
}

func TestScenarioExecuteApp(t *testing.T) {
	s := validScenario()
	s.Workload = "app"
	s.Measure = 20000
	if res := execute(t, s, nil); res.Workload != "app-mix" {
		t.Errorf("workload = %q", res.Workload)
	}
}

func TestScenarioBadWorkload(t *testing.T) {
	s := validScenario()
	s.Workload = "spiral"
	if _, err := s.Spec(nil); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

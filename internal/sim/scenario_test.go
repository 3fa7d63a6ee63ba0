package sim

import (
	"bytes"
	"strings"
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
	cases := []func(*Scenario){
		func(s *Scenario) { s.Cores = 0 },
		func(s *Scenario) { s.Cores = 5 },
		func(s *Scenario) { s.VCs = 0 },
		func(s *Scenario) { s.Measure = 0 },
		func(s *Scenario) { s.TechNode = 28 },
		func(s *Scenario) { s.Workload = "req-resp"; s.VNets = 1 },
	}
	for i, mutate := range cases {
		s := validScenario()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, s)
		}
	}
}

func TestScenarioRoundTrip(t *testing.T) {
	s := validScenario()
	s.TechNode = 32
	s.Phits = 2
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadScenario(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != s.Name || back.TechNode != 32 || back.Phits != 2 ||
		back.Policy != s.Policy || back.Rate != s.Rate {
		t.Errorf("round trip lost fields: %+v", back)
	}
}

func TestLoadScenarioRejectsUnknownFields(t *testing.T) {
	in := `{"name":"x","cores":4,"vcs":2,"measure":10,"bogus":1}`
	if _, err := LoadScenario(strings.NewReader(in)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestLoadScenarioRejectsGarbage(t *testing.T) {
	if _, err := LoadScenario(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	// A second object after the scenario is data, not padding: the file
	// must not run as its first half.
	trailing := `{"name":"x","cores":4,"vcs":2,"measure":10}{"name":"y"}`
	if _, err := LoadScenario(strings.NewReader(trailing)); err == nil {
		t.Fatal("scenario with a trailing object accepted")
	}
	if _, err := LoadScenarioFile("/nonexistent.json"); err == nil {
		t.Fatal("missing file accepted")
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

package sim

import (
	"encoding/json"
	"strings"
	"testing"

	"nbtinoc/internal/cache"
	"nbtinoc/internal/core"
	"nbtinoc/internal/noc"
)

func TestValidateAcceptsQuickSpec(t *testing.T) {
	if err := quickSpec().Validate(); err != nil {
		t.Fatalf("canonical test spec rejected: %v", err)
	}
}

func TestValidateReportsEveryProblem(t *testing.T) {
	s := quickSpec()
	s.Measure = 0
	s.Policy.Name = "no-such-policy"
	s.Gen.Pattern = "no-such-pattern"
	s.Gen.PacketLen = 0
	s.Probes = append(s.Probes, PortProbe{Node: 99, Port: noc.East})
	err := s.Validate()
	if err == nil {
		t.Fatal("broken spec validated")
	}
	errs, ok := err.(SpecErrors)
	if !ok {
		t.Fatalf("Validate returned %T, want SpecErrors", err)
	}
	want := map[string]bool{
		"measure":        false,
		"policy.name":    false,
		"gen.pattern":    false,
		"gen.packet_len": false,
		"probes[1]":      false,
	}
	for _, e := range errs {
		if _, tracked := want[e.Field]; tracked {
			want[e.Field] = true
		}
	}
	for field, seen := range want {
		if !seen {
			t.Errorf("no error for %s in %v", field, errs)
		}
	}
	// The report serialises field-tagged for the HTTP error body.
	data, jerr := json.Marshal(errs)
	if jerr != nil {
		t.Fatal(jerr)
	}
	if !strings.Contains(string(data), `"field":"measure"`) {
		t.Errorf("serialised report lacks field tags: %s", data)
	}
	if !strings.Contains(err.Error(), "invalid spec") {
		t.Errorf("Error(): %q", err.Error())
	}
}

func TestValidateFieldCases(t *testing.T) {
	mutate := map[string]func(*Spec){
		"measure":     func(s *Spec) { s.Measure = 0 },
		"gen.kind":    func(s *Spec) { s.Gen.Kind = "quantum" },
		"gen.rate":    func(s *Spec) { s.Gen.Rate = -0.5 },
		"gen.vnet":    func(s *Spec) { s.Gen.VNet = 7 },
		"gen":         func(s *Spec) { s.Gen.Width = 4 },
		"net":         func(s *Spec) { s.Net.BufferDepth = 0 },
		"probes[0]":   func(s *Spec) { s.Probes[0].Port = noc.West }, // node 0: mesh edge
		"policy.name": func(s *Spec) { s.Policy.Name = "bogus" },
		// The hotspot knobs belong to the hotspot pattern alone.
		"gen.hotspot_node":     func(s *Spec) { s.Gen.HotspotNode = 3 },
		"gen.hotspot_fraction": func(s *Spec) { s.Gen.HotspotFraction = 0.3 },
	}
	for field, f := range mutate {
		s := quickSpec()
		f(&s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: mutation validated", field)
			continue
		}
		if !strings.Contains(err.Error(), field+":") {
			t.Errorf("%s: error %q does not name the field", field, err)
		}
	}
	// An RRPeriod policy skips the registry lookup, so a name beside it
	// would only give the run a second content address.
	s := quickSpec()
	s.Policy = PolicySpec{Name: "ignored", RRPeriod: 1024}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "policy.name:") {
		t.Errorf("rr-period spec with a name: error %v, want a policy.name error", err)
	}
	s.Policy.Name = ""
	if err := s.Validate(); err != nil {
		t.Errorf("rr-period spec rejected: %v", err)
	}
	// The default period is the rr-no-sensor network under a second
	// content address.
	s.Policy.RRPeriod = core.DefaultRotatePeriod
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "policy.rr_period:") ||
		!strings.Contains(err.Error(), `"rr-no-sensor"`) {
		t.Errorf("default-period spec: error %v, want a policy.rr_period error naming rr-no-sensor", err)
	}
	// An empty name would run the always-on network that "baseline"
	// names, under a second content address.
	s.Policy = PolicySpec{}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "policy.name:") ||
		!strings.Contains(err.Error(), `"baseline"`) {
		t.Errorf("spec with an empty policy: error %v, want a policy.name error naming baseline", err)
	}
	s = quickSpec()
	s.Gen.Pattern, s.Gen.HotspotNode, s.Gen.HotspotFraction = "hotspot", 3, 0.3
	if err := s.Validate(); err != nil {
		t.Errorf("hotspot spec rejected: %v", err)
	}
	s.Gen = GenSpec{Kind: "app", Width: 2, Height: 2, Seed: 1, HotspotFraction: 0.3}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "gen.hotspot_fraction:") {
		t.Errorf("app spec with a hotspot fraction: error %v, want a gen.hotspot_fraction error", err)
	}
	// req-resp needs two vnets.
	s = quickSpec()
	s.Gen = GenSpec{Kind: "req-resp", Width: 2, Height: 2, Rate: 0.05, Seed: 1}
	if err := s.Validate(); err == nil {
		t.Error("req-resp on a 1-vnet mesh validated")
	}
}

func TestValidateProbeEdges(t *testing.T) {
	cfg := noc.DefaultConfig()
	cfg.Width, cfg.Height = 3, 3
	cases := []struct {
		probe PortProbe
		ok    bool
	}{
		{PortProbe{Node: 4, Port: noc.North}, true},  // centre has all ports
		{PortProbe{Node: 0, Port: noc.North}, false}, // top row
		{PortProbe{Node: 0, Port: noc.West}, false},  // left column
		{PortProbe{Node: 2, Port: noc.East}, false},  // right column
		{PortProbe{Node: 8, Port: noc.South}, false}, // bottom row
		{PortProbe{Node: 8, Port: noc.Local}, true},  // local always exists
		{PortProbe{Node: -1, Port: noc.Local}, false},
		{PortProbe{Node: 9, Port: noc.Local}, false},
		{PortProbe{Node: 4, Port: noc.NumPorts}, false},
		{PortProbe{Node: 4, Port: noc.Local, VNet: 5}, false},
	}
	for _, c := range cases {
		err := validateProbe(cfg, c.probe)
		if (err == nil) != c.ok {
			t.Errorf("probe %+v: err=%v, want ok=%v", c.probe, err, c.ok)
		}
	}
}

func TestRunJobValidatesAndReportsCached(t *testing.T) {
	store := cache.Open(t.TempDir(), cache.ReadWrite)
	r := Runner{Store: store}

	bad := quickSpec()
	bad.Measure = 0
	if _, _, err := r.RunJob(bad); err == nil {
		t.Fatal("RunJob executed an invalid spec")
	}

	sum, cached, err := r.RunJob(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("first RunJob reported cached=true")
	}
	if sum == nil || len(sum.Ports) == 0 {
		t.Fatal("RunJob returned an empty summary")
	}
	if _, cached, err = r.RunJob(quickSpec()); err != nil || !cached {
		t.Errorf("second RunJob: cached=%v err=%v, want true nil", cached, err)
	}
	// The runner's own Record hook still observes both runs.
	var calls int
	r.Record = func(Spec, string, bool) { calls++ }
	if _, _, err := r.RunJob(quickSpec()); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("Record fired %d times, want 1", calls)
	}
}

// TestValidatePacketLenBound pins the packet-length ceiling: a flit
// numbers its position in 16 bits, so noc.MaxPacketLen (65 535) flits
// validate and one more is a gen.packet_len error.
func TestValidatePacketLenBound(t *testing.T) {
	s := quickSpec()
	s.Gen.PacketLen = 65535
	if err := s.Validate(); err != nil {
		t.Fatalf("65535-flit packets rejected: %v", err)
	}
	s.Gen.PacketLen = 65536
	errs, ok := s.Validate().(SpecErrors)
	if !ok || len(errs) != 1 || errs[0].Field != "gen.packet_len" {
		t.Fatalf("65536-flit packets: got %v, want one gen.packet_len error", s.Validate())
	}
}

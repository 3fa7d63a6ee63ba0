package sim

import (
	"fmt"

	"nbtinoc/internal/nbti"
	"nbtinoc/internal/pv"
)

// Scenario is the hand-authored run vocabulary: the nbtisim and compare
// flags and the base of a sweep grid speak it, with defaults filled in
// by Validate. It is only a way to build a Spec; Scenario.Spec compiles
// it, and every run path executes the compiled spec.
type Scenario struct {
	// Name labels the scenario in reports.
	Name string `json:"name"`
	// Cores is the tile count of the square mesh.
	Cores int `json:"cores"`
	// Width and Height, when both set, give the mesh geometry
	// explicitly (rectangular allowed); Cores then defaults to
	// Width*Height and, if given too, must agree. The CLIs' -mesh WxH
	// flag fills them.
	Width  int `json:"width,omitempty"`
	Height int `json:"height,omitempty"`
	// VCs is the VC count per vnet per input port.
	VCs int `json:"vcs"`
	// VNets is the virtual-network count (default 1).
	VNets int `json:"vnets,omitempty"`
	// Policy is the recovery policy name (default "baseline").
	Policy string `json:"policy"`
	// TechNode selects the technology corner: 45 (default) or 32 nm,
	// setting the paper's Vth0 of 0.180 V or 0.160 V respectively.
	TechNode int `json:"tech_nm,omitempty"`
	// Workload is a synthetic pattern name, "app" (random benchmark
	// mix), or "req-resp" (closed-loop coherence-like traffic).
	Workload string `json:"workload"`
	// Rate is the injection rate for synthetic/req-resp workloads.
	Rate float64 `json:"rate,omitempty"`
	// PacketLen is the synthetic packet length in flits (default 4).
	PacketLen int `json:"packet_len,omitempty"`
	// Phits is the link serialization factor (default 1).
	Phits int `json:"phits,omitempty"`
	// WakeupLatency is the sleep-transistor ramp in cycles (default 0).
	WakeupLatency int `json:"wakeup_latency,omitempty"`
	// Warmup and Measure are the window lengths in cycles.
	Warmup  uint64 `json:"warmup"`
	Measure uint64 `json:"measure"`
	// Seed drives the workload; PVSeed the silicon.
	Seed   uint64 `json:"seed"`
	PVSeed uint64 `json:"pv_seed"`
}

// Validate fills defaults and makes the checks a Spec cannot: the tech
// node, and a cores count that agrees with the geometry. Everything
// else is Spec.Validate's job once Spec compiles the scenario.
func (s *Scenario) Validate() error {
	if (s.Width != 0) != (s.Height != 0) {
		return fmt.Errorf("sim: scenario %q needs both width and height (or neither)", s.Name)
	}
	if s.Width != 0 {
		m := Mesh{Width: s.Width, Height: s.Height}
		if s.Cores == 0 {
			s.Cores = m.Cores()
		} else if s.Cores != m.Cores() {
			return fmt.Errorf("sim: scenario %q: cores %d disagrees with %s mesh",
				s.Name, s.Cores, m)
		}
	}
	if s.VNets == 0 {
		s.VNets = 1
	}
	if s.Policy == "" {
		s.Policy = "baseline"
	}
	if s.TechNode == 0 {
		s.TechNode = 45
	}
	if s.TechNode != 45 && s.TechNode != 32 {
		return fmt.Errorf("sim: scenario %q: tech node %d nm not modelled (45 or 32)",
			s.Name, s.TechNode)
	}
	if s.PacketLen == 0 {
		s.PacketLen = 4
	}
	if s.Phits == 0 {
		s.Phits = 1
	}
	if s.Workload == "" {
		s.Workload = "uniform"
	}
	return nil
}

// Spec compiles the scenario into the declarative, cacheable simulation
// request every run path executes, observed at the given probes. The
// compiled spec is validated, so a bad scenario reports the same
// field-tagged SpecErrors a nbtisimd submission of it would.
func (s *Scenario) Spec(probes []PortProbe) (Spec, error) {
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	m := Mesh{Width: s.Width, Height: s.Height}
	if s.Width == 0 {
		var err error
		if m, err = SquareMesh(s.Cores); err != nil {
			return Spec{}, err
		}
	}
	cfg := m.config(s.VCs)
	cfg.VNets = s.VNets
	cfg.PVSeed = s.PVSeed
	cfg.PhitsPerFlit = s.Phits
	cfg.WakeupLatency = s.WakeupLatency
	if s.TechNode == 32 {
		cfg.NBTI = nbti.Default32nm()
		cfg.PV = pv.Default32nm()
	}
	gen := GenSpec{Kind: s.Workload, Width: m.Width, Height: m.Height, Seed: s.Seed}
	switch s.Workload {
	case "app": // the benchmark mix sets its own injection
	case "req-resp":
		gen.Rate = s.Rate
	default:
		gen.Kind, gen.Pattern = "synthetic", s.Workload
		gen.Rate, gen.PacketLen = s.Rate, s.PacketLen
		if s.Workload == "hotspot" {
			gen.HotspotFraction = 0.3
		}
	}
	spec := Spec{
		Net:     cfg,
		Policy:  PolicySpec{Name: s.Policy},
		Gen:     gen,
		Warmup:  s.Warmup,
		Measure: s.Measure,
		Probes:  probes,
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

package sim

import (
	"fmt"
	"strings"

	"nbtinoc/internal/core"
	"nbtinoc/internal/floats"
	"nbtinoc/internal/noc"
	"nbtinoc/internal/traffic"
)

// SpecError describes one structural problem with a Spec, tagged with
// the JSON field it concerns so HTTP clients (the nbtisimd submission
// endpoint) can surface it next to the offending input instead of as an
// opaque string.
type SpecError struct {
	Field string `json:"field"`
	Msg   string `json:"msg"`
}

// Error renders the problem as "field: message".
func (e SpecError) Error() string { return e.Field + ": " + e.Msg }

// SpecErrors is a full validation report: every problem found, not just
// the first, so a client can fix a spec in one round trip.
type SpecErrors []SpecError

// Error joins the individual problems with "; ".
func (e SpecErrors) Error() string {
	parts := make([]string, len(e))
	for i, p := range e {
		parts[i] = p.Error()
	}
	return "sim: invalid spec: " + strings.Join(parts, "; ")
}

// Validate reports every structural problem that would make the spec
// unrunnable (or silently meaningless), as a SpecErrors value. Specs
// arrive fully explicit — over the wire, from -config files, compiled
// from nbtisim's flags, or as grid points — and are rejected rather
// than patched.
func (s Spec) Validate() error {
	var errs SpecErrors
	add := func(field, format string, args ...any) {
		errs = append(errs, SpecError{Field: field, Msg: fmt.Sprintf(format, args...)})
	}
	if s.Measure == 0 {
		add("measure", "measurement window must be at least 1 cycle")
	}
	switch {
	case s.Policy.RRPeriod > 0:
		if s.Policy.Name != "" {
			// RRPeriod overrides the name: a spec carrying both would be
			// a second content address for the run without the name.
			add("policy.name", "must be empty when rr_period is set (got %q)", s.Policy.Name)
		}
		if s.Policy.RRPeriod == core.DefaultRotatePeriod {
			// The default period builds the rr-no-sensor network, which
			// that name already addresses: one run, one content address.
			add("policy.rr_period", `%d is the default period; name the policy "rr-no-sensor" instead`, s.Policy.RRPeriod)
		}
	case s.Policy.Name == "":
		// Run treats an empty name as the always-on network, which
		// "baseline" already names: one run, one content address.
		add("policy.name", `must name the policy; the always-on network is "baseline"`)
	default:
		if _, err := core.Lookup(s.Policy.Name); err != nil {
			add("policy.name", "unknown policy %q (known: %s)",
				s.Policy.Name, strings.Join(core.Names(), ", "))
		}
	}
	switch s.Gen.Kind {
	case "app":
		if s.Gen.VNet < 0 || s.Gen.VNet >= s.Net.VNets {
			add("gen.vnet", "vnet %d outside the %d virtual networks", s.Gen.VNet, s.Net.VNets)
		}
	case "req-resp":
		if s.Net.VNets < 2 {
			add("gen.kind", "req-resp traffic needs at least 2 vnets, mesh has %d", s.Net.VNets)
		}
		if s.Gen.Rate < 0 {
			add("gen.rate", "injection rate must be non-negative, got %v", s.Gen.Rate)
		}
	case "synthetic":
		if _, err := traffic.ParsePattern(s.Gen.Pattern); err != nil {
			add("gen.pattern", "%v", err)
		}
		if s.Gen.Rate < 0 {
			add("gen.rate", "injection rate must be non-negative, got %v", s.Gen.Rate)
		}
		if s.Gen.PacketLen < 1 || s.Gen.PacketLen > noc.MaxPacketLen {
			add("gen.packet_len", "packet length must be 1 to %d flits, got %d",
				noc.MaxPacketLen, s.Gen.PacketLen)
		}
		if s.Gen.VNet < 0 || s.Gen.VNet >= s.Net.VNets {
			add("gen.vnet", "vnet %d outside the %d virtual networks", s.Gen.VNet, s.Net.VNets)
		}
	default:
		add("gen.kind", "unknown generator kind %q (want synthetic, app or req-resp)", s.Gen.Kind)
	}
	// The hotspot knobs mean nothing to any other generator; a spec
	// carrying them would be a second content address for the same run.
	if s.Gen.Kind != "synthetic" || s.Gen.Pattern != "hotspot" {
		if s.Gen.HotspotNode != 0 {
			add("gen.hotspot_node", "only the hotspot pattern takes a hotspot node (got %d)", s.Gen.HotspotNode)
		}
		if !floats.ExactZero(s.Gen.HotspotFraction) {
			add("gen.hotspot_fraction", "only the hotspot pattern takes a hotspot fraction (got %v)", s.Gen.HotspotFraction)
		}
	}
	if s.Gen.Width != s.Net.Width || s.Gen.Height != s.Net.Height {
		add("gen", "generator geometry %dx%d disagrees with the %dx%d mesh",
			s.Gen.Width, s.Gen.Height, s.Net.Width, s.Net.Height)
	}
	for i, p := range s.Probes {
		if err := validateProbe(s.Net, p); err != nil {
			add(fmt.Sprintf("probes[%d]", i), "%v", err)
		}
	}
	// The engine's own structural checks last: field-specific problems
	// above give better messages, this catches everything else (buffer
	// depths, NBTI/PV/sensor parameter ranges, the 64-VC mask bound).
	if err := s.Net.Validate(); err != nil {
		add("net", "%v", err)
	} else if s.Net.TotalVCs() > 64 {
		add("net", "%d VCs per port exceeds the 64-bit power mask", s.Net.TotalVCs())
	}
	if len(errs) == 0 {
		return nil
	}
	return errs
}

// validateProbe checks that the probe names an input port the mesh
// actually instantiates: edge routers have no port facing off-mesh, so
// a probe there would silently read a zero-valued arena slot.
func validateProbe(cfg noc.Config, p PortProbe) error {
	nodes := cfg.Width * cfg.Height
	if p.Node < 0 || int(p.Node) >= nodes {
		return fmt.Errorf("node %d outside the %dx%d mesh", p.Node, cfg.Width, cfg.Height)
	}
	if p.Port < 0 || p.Port >= noc.NumPorts {
		return fmt.Errorf("port %d is not a router port", p.Port)
	}
	if p.VNet < 0 || p.VNet >= cfg.VNets {
		return fmt.Errorf("vnet %d outside the %d virtual networks", p.VNet, cfg.VNets)
	}
	x, y := int(p.Node)%cfg.Width, int(p.Node)/cfg.Width
	missing := false
	switch p.Port {
	case noc.North:
		missing = y == 0
	case noc.East:
		missing = x == cfg.Width-1
	case noc.South:
		missing = y == cfg.Height-1
	case noc.West:
		missing = x == 0
	}
	if missing {
		return fmt.Errorf("node %d has no %v input port (mesh edge)", p.Node, p.Port)
	}
	return nil
}

package core

import (
	"math/bits"

	"nbtinoc/internal/noc"
)

// SensorWiseLD is an extension of Algorithm 2 (discussed as future work
// in the paper's trade-off framing): instead of keeping *some* idle VC
// powered while gating the most degraded one first, it designates the
// **least** degraded idle VC as the keep target, so new packets always
// land on the healthiest buffer and every other idle VC recovers.
//
// The hardware cost over the paper's scheme is a second VC identifier
// on the Down_Up link (the comparator already computes a full ranking
// internally; exporting the argmin adds log2(V) wires), charged in the
// area model notes. The policy reads that identifier as
// PolicyInput.LeastDegraded when it names an idle VC and falls back to
// Algorithm 2's survivor otherwise.
type SensorWiseLD struct {
	// AssumeTraffic forces boolTraffic to 1 (non-cooperative variant).
	AssumeTraffic bool
}

// Name implements noc.Policy.
func (p *SensorWiseLD) Name() string {
	if p.AssumeTraffic {
		return "sensor-wise-ld-no-traffic"
	}
	return "sensor-wise-ld"
}

// UsesSensors implements noc.UsesSensors.
func (p *SensorWiseLD) UsesSensors() bool { return true }

// DesiredPower implements noc.Policy: gate every idle VC except — when
// traffic waits — the least degraded idle one.
func (p *SensorWiseLD) DesiredPower(in noc.PolicyInput) uint64 {
	if !in.NewTraffic && !p.AssumeTraffic {
		return 0 // all idle VCs recover
	}
	if ld := in.LeastDegraded; ld >= 0 && in.Idle>>uint(ld)&1 != 0 {
		return 1 << uint(ld)
	}
	// Fall back: the highest idle VC that is not the most degraded
	// (Algorithm 2's survivor), else the highest idle VC.
	keep := in.Idle
	if md := in.MostDegraded; md >= 0 {
		keep &^= 1 << uint(md)
	}
	if keep == 0 {
		keep = in.Idle
	}
	if keep == 0 {
		return 0
	}
	return 1 << uint(63-bits.LeadingZeros64(keep))
}

// SteadyWhenIdle implements noc.SteadyPolicy: the keep decision is a
// pure function of the sensor feedback and idle states.
func (p *SensorWiseLD) SteadyWhenIdle() bool { return true }

// CycleFree implements noc.CycleFreePolicy: the decision never reads
// the cycle for any NewTraffic value and keeps no per-call state.
func (p *SensorWiseLD) CycleFree() bool { return true }

// NewSensorWiseLD is the factory for the least-degraded-keep extension.
func NewSensorWiseLD() noc.Policy { return &SensorWiseLD{} }

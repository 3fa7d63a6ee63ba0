// Package core implements the paper's contribution: the pre-VA NBTI
// recovery policies that decide, every cycle and for every upstream
// output port, which idle downstream virtual-channel buffers stay
// powered and which are gated into NBTI recovery.
//
// Four policies are provided:
//
//   - RRNoSensor (Algorithm 1, "rr-no-sensor"): the best sensor-less
//     strategy — a round-robin rotating candidate designates the single
//     idle VC left powered when new traffic is waiting; with no new
//     traffic every idle VC is gated. This is the paper's reference
//     model.
//   - SensorWise (Algorithm 2, "sensor-wise"): the proposal — the most
//     degraded VC (from the Down_Up sensor feedback) is gated first
//     whenever it is idle; at most one other idle VC remains powered,
//     and only while new traffic is waiting.
//   - SensorWiseNoTraffic ("sensor-wise-no-traffic"): Algorithm 2 with
//     boolTraffic forced to 1 — the non-cooperative variant that keeps
//     one idle VC powered at all times, used by the paper to isolate the
//     value of the cooperative traffic information.
//   - RRNoSensorNoTraffic ("rr-no-sensor-no-traffic"): the analogous
//     non-cooperative round-robin, completing the cooperation ablation.
//
// The always-on baseline (no gating) is noc.BaselinePolicy.
package core

import (
	"math/bits"

	"nbtinoc/internal/noc"
)

// DefaultRotatePeriod is the number of cycles between advances of the
// round-robin active candidate ("changed cyclically on a time basis",
// Section III-B). Rotating every cycle spreads both allocations and
// powered-idle time evenly across VCs, which is what makes rr-no-sensor
// the strongest sensor-less reference.
const DefaultRotatePeriod = 1

// RRNoSensor is Algorithm 1: the round-robin sensor-less pre-VA stage.
type RRNoSensor struct {
	// RotatePeriod is the candidate rotation period in cycles (>= 1).
	RotatePeriod uint64
	// AssumeTraffic forces boolTraffic to 1, yielding the
	// non-cooperative variant.
	AssumeTraffic bool
}

// Name implements noc.Policy.
func (p *RRNoSensor) Name() string {
	if p.AssumeTraffic {
		return "rr-no-sensor-no-traffic"
	}
	return "rr-no-sensor"
}

// DesiredPower implements noc.Policy (Algorithm 1). With new traffic the
// first idle VC at or after the rotating candidate, wrapping, is left
// powered (enable=1, active_vc); otherwise every idle VC is gated.
func (p *RRNoSensor) DesiredPower(in noc.PolicyInput) uint64 {
	if !in.NewTraffic && !p.AssumeTraffic || in.Idle == 0 {
		// enable <- 0: the downstream may recover all idle VCs (or all
		// VCs are busy and there is nothing to keep idle).
		return 0
	}
	period := p.RotatePeriod
	if period == 0 {
		period = DefaultRotatePeriod
	}
	slot := in.Cycle
	if period > 1 { // the default period of 1 needs no divide
		slot /= period
	}
	candidate := uint(slot % uint64(in.NumVCs))
	// set_idle(offset_vc); enable <- 1; active_vc <- offset_vc.
	if hi := in.Idle >> candidate; hi != 0 {
		return 1 << (candidate + uint(bits.TrailingZeros64(hi)))
	}
	return in.Idle & -in.Idle
}

// SteadyWhenIdle implements noc.SteadyPolicy: the cooperative variant
// returns all-gated without reading the cycle when no traffic waits;
// the non-cooperative variant rotates its candidate on a time basis
// every cycle and must keep running.
func (p *RRNoSensor) SteadyWhenIdle() bool { return !p.AssumeTraffic }

// Stateless implements noc.StatelessPolicy: Algorithm 1 derives its
// rotating candidate from the cycle alone, so one instance serves every
// output unit.
func (p *RRNoSensor) Stateless() bool { return true }

// NewRRNoSensor is the noc.PolicyFactory for the cooperative Algorithm 1.
func NewRRNoSensor() noc.Policy {
	return &RRNoSensor{RotatePeriod: DefaultRotatePeriod}
}

// NewRRNoSensorNoTraffic is the factory for the non-cooperative
// round-robin variant (one idle VC always kept powered).
func NewRRNoSensorNoTraffic() noc.Policy {
	return &RRNoSensor{RotatePeriod: DefaultRotatePeriod, AssumeTraffic: true}
}

// SensorWise is Algorithm 2: the sensor-wise pre-VA stage.
type SensorWise struct {
	// AssumeTraffic forces boolTraffic to 1 ("sensor-wise-no-traffic").
	AssumeTraffic bool
}

// Name implements noc.Policy.
func (p *SensorWise) Name() string {
	if p.AssumeTraffic {
		return "sensor-wise-no-traffic"
	}
	return "sensor-wise"
}

// UsesSensors implements noc.UsesSensors: both variants consume the
// Down_Up most-degraded feedback.
func (p *SensorWise) UsesSensors() bool { return true }

// DesiredPower implements noc.Policy (Algorithm 2).
//
// Following the paper's pseudo-code: all recovered VCs are first
// restored to idle (lines 5-8), the most degraded VC is gated first if
// it is idle and enough idle VCs remain (lines 9-11), and the sweep of
// lines 12-16 gates further idle VCs while count_idle > boolTraffic, so
// that exactly one idle VC survives powered when traffic is waiting and
// none survives otherwise (lines 17-18).
func (p *SensorWise) DesiredPower(in noc.PolicyInput) uint64 {
	need := 0
	if in.NewTraffic || p.AssumeTraffic {
		need = 1
	}
	out := in.Idle // set_idle: wake every idle/recovering VC
	count := bits.OnesCount64(out)
	if md := in.MostDegraded; md >= 0 && out>>uint(md)&1 != 0 && count > need {
		out &^= 1 << uint(md) // set_recovery(most_degraded_vc)
		count--
	}
	for ; count > need; count-- {
		out &= out - 1 // set_recovery(iter_vc), lowest first
	}
	return out
}

// SteadyWhenIdle implements noc.SteadyPolicy: Algorithm 2 ranks by the
// Down_Up feedback and never reads the cycle, in either variant.
func (p *SensorWise) SteadyWhenIdle() bool { return true }

// CycleFree implements noc.CycleFreePolicy: Algorithm 2's decision is a
// pure function of the sensor feedback, idle states and the traffic
// bit — it never reads the cycle for any NewTraffic value.
func (p *SensorWise) CycleFree() bool { return true }

// NewSensorWise is the factory for the cooperative Algorithm 2 — the
// paper's proposed policy.
func NewSensorWise() noc.Policy { return &SensorWise{} }

// NewSensorWiseNoTraffic is the factory for the non-cooperative variant.
func NewSensorWiseNoTraffic() noc.Policy {
	return &SensorWise{AssumeTraffic: true}
}

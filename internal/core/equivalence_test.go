package core

import (
	"fmt"
	"testing"

	"nbtinoc/internal/noc"
)

// refInput is the per-VC flag form of noc.PolicyInput that the policies
// decided on before they took VC masks. The ref* functions below are
// those bool-slice decisions, kept unchanged as the reference the mask
// decisions are checked against.
type refInput struct {
	NumVCs                      int
	Idle, Powered               []bool
	MostDegraded, LeastDegraded int
	NewTraffic                  bool
	Cycle                       uint64
}

// refBaseline keeps every VC powered.
func refBaseline(in *refInput, out []bool) {
	for i := 0; i < in.NumVCs; i++ {
		out[i] = true
	}
}

// refRRNoSensor is Algorithm 1 over flag slices.
func refRRNoSensor(period uint64, assumeTraffic bool, in *refInput, out []bool) {
	if period == 0 {
		period = DefaultRotatePeriod
	}
	if !in.NewTraffic && !assumeTraffic {
		return
	}
	candidate := int(in.Cycle/period) % in.NumVCs
	for i := 0; i < in.NumVCs; i++ {
		vc := (candidate + i) % in.NumVCs
		if in.Idle[vc] {
			out[vc] = true
			return
		}
	}
}

// refSensorWise is Algorithm 2 over flag slices.
func refSensorWise(assumeTraffic bool, in *refInput, out []bool) {
	need := 0
	if in.NewTraffic || assumeTraffic {
		need = 1
	}
	countIdle := 0
	for vc := 0; vc < in.NumVCs; vc++ {
		if in.Idle[vc] {
			out[vc] = true
			countIdle++
		}
	}
	md := in.MostDegraded
	if md >= 0 && md < in.NumVCs && in.Idle[md] && countIdle > need {
		out[md] = false
		countIdle--
	}
	for vc := 0; vc < in.NumVCs && countIdle > need; vc++ {
		if in.Idle[vc] && out[vc] {
			out[vc] = false
			countIdle--
		}
	}
}

// refSensorWiseLD is the least-degraded-keep extension over flag slices.
func refSensorWiseLD(assumeTraffic bool, in *refInput, out []bool) {
	if !in.NewTraffic && !assumeTraffic {
		return
	}
	keep := -1
	if in.LeastDegraded >= 0 && in.LeastDegraded < in.NumVCs && in.Idle[in.LeastDegraded] {
		keep = in.LeastDegraded
	} else {
		for vc := in.NumVCs - 1; vc >= 0; vc-- {
			if in.Idle[vc] && vc != in.MostDegraded {
				keep = vc
				break
			}
		}
		if keep == -1 {
			for vc := in.NumVCs - 1; vc >= 0; vc-- {
				if in.Idle[vc] {
					keep = vc
					break
				}
			}
		}
	}
	if keep >= 0 {
		out[keep] = true
	}
}

// shippedPolicy pairs a shipped policy with its bool-slice reference.
type shippedPolicy struct {
	name string
	p    noc.Policy
	ref  func(in *refInput, out []bool)
	// period is the rotation period of a round-robin policy, 0 for a
	// policy that never reads the cycle.
	period uint64
}

// shippedPolicies returns every shipped policy variant, the round-robin
// ones at rotation periods 1, 4 and 1024.
func shippedPolicies() []shippedPolicy {
	ps := []shippedPolicy{{name: "baseline", p: noc.NewBaseline(), ref: refBaseline}}
	for _, assume := range []bool{false, true} {
		for _, period := range []uint64{1, 4, 1024} {
			ps = append(ps, shippedPolicy{
				name: fmt.Sprintf("rr-no-sensor(period=%d,assume=%v)", period, assume),
				p:    &RRNoSensor{RotatePeriod: period, AssumeTraffic: assume},
				ref: func(in *refInput, out []bool) {
					refRRNoSensor(period, assume, in, out)
				},
				period: period,
			})
		}
		ps = append(ps,
			shippedPolicy{
				name: fmt.Sprintf("sensor-wise(assume=%v)", assume),
				p:    &SensorWise{AssumeTraffic: assume},
				ref:  func(in *refInput, out []bool) { refSensorWise(assume, in, out) },
			},
			shippedPolicy{
				name: fmt.Sprintf("sensor-wise-ld(assume=%v)", assume),
				p:    &SensorWiseLD{AssumeTraffic: assume},
				ref:  func(in *refInput, out []bool) { refSensorWiseLD(assume, in, out) },
			})
	}
	return ps
}

// cyclesOf returns the cycles a policy is checked at: for a rotating
// one, a cycle in every rotation phase (candidate 0..n-1, then the wrap
// back to 0) at a varying offset inside its period; otherwise two
// arbitrary cycles.
func (sp *shippedPolicy) cyclesOf(n int) []uint64 {
	if sp.period == 0 {
		return []uint64{0, 1023}
	}
	cycles := make([]uint64, 0, n+1)
	for k := uint64(0); k <= uint64(n); k++ {
		cycles = append(cycles, k*sp.period+k*7%sp.period)
	}
	return cycles
}

// TestMaskDecisionsMatchBoolReference checks every shipped policy's mask
// decision against its bool-slice reference, exhaustively over 1 to 8
// VCs: every idle mask, every powered mask up to 4 VCs (four
// representative ones above), MD and LD in -1..NumVCs-1, both traffic
// values and every rotation phase.
func TestMaskDecisionsMatchBoolReference(t *testing.T) {
	policies := shippedPolicies()
	idleB, powB, out := make([]bool, 8), make([]bool, 8), make([]bool, 8)
	checked := 0
	cycles := make([][]uint64, len(policies))
	for n := 1; n <= 8; n++ {
		all := uint64(1)<<uint(n) - 1
		for i := range policies {
			cycles[i] = policies[i].cyclesOf(n)
		}
		for idle := uint64(0); idle <= all; idle++ {
			powers := []uint64{0, all, idle, all &^ idle}
			if n <= 4 {
				powers = powers[:0]
				for pow := uint64(0); pow <= all; pow++ {
					powers = append(powers, pow)
				}
			}
			for _, pow := range powers {
				for v := 0; v < n; v++ {
					idleB[v] = idle>>uint(v)&1 != 0
					powB[v] = pow>>uint(v)&1 != 0
				}
				for md := -1; md < n; md++ {
					for ld := -1; ld < n; ld++ {
						for _, nt := range []bool{false, true} {
							for i := range policies {
								sp := &policies[i]
								for _, cyc := range cycles[i] {
									in := noc.PolicyInput{
										NumVCs: n, Idle: idle, Powered: pow,
										MostDegraded: md, LeastDegraded: ld,
										NewTraffic: nt, Cycle: cyc,
									}
									ref := refInput{
										NumVCs: n, Idle: idleB[:n], Powered: powB[:n],
										MostDegraded: md, LeastDegraded: ld,
										NewTraffic: nt, Cycle: cyc,
									}
									clear(out)
									sp.ref(&ref, out[:n])
									want := maskOf(out[:n])
									if got := sp.p.DesiredPower(in) & all; got != want {
										t.Fatalf("%s: %+v: mask decision %0*b, reference %0*b",
											sp.name, in, n, got, n, want)
									}
									checked++
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d decisions checked", checked)
}

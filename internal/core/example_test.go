package core_test

import (
	"fmt"

	"nbtinoc/internal/core"
	"nbtinoc/internal/noc"
)

// Algorithm 2's pre-VA decision over a 4-VC port: VC 2 (the most
// degraded, per the Down_Up sensor feedback) is gated into recovery,
// one other idle VC stays powered for the waiting packet, and the rest
// recover too.
func ExampleSensorWise() {
	policy := core.NewSensorWise()
	in := noc.PolicyInput{
		NumVCs:       4,
		Idle:         0b1111, // bit v = VC v
		Powered:      0b1111,
		MostDegraded: 2,
		NewTraffic:   true, // is_new_traffic_outport_x() == 1
	}
	out := policy.DesiredPower(in)
	for vc := 0; vc < in.NumVCs; vc++ {
		state := "recover"
		if out>>uint(vc)&1 != 0 {
			state = "keep idle"
		}
		if vc == in.MostDegraded {
			state += " (most degraded)"
		}
		fmt.Printf("VC%d: %s\n", vc, state)
	}
	// Output:
	// VC0: recover
	// VC1: recover
	// VC2: recover (most degraded)
	// VC3: keep idle
}

// Algorithm 1 without traffic: every idle VC recovers, because the
// upstream router knows no new packet is waiting.
func ExampleRRNoSensor() {
	policy := core.NewRRNoSensor()
	in := noc.PolicyInput{
		NumVCs:       2,
		Idle:         0b11,
		Powered:      0b11,
		MostDegraded: -1, // sensor-less
		NewTraffic:   false,
	}
	fmt.Printf("powered idle VCs: %02b\n", policy.DesiredPower(in))
	// Output:
	// powered idle VCs: 00
}

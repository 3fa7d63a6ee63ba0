package noc_test

import (
	"fmt"

	"nbtinoc/internal/core"
	"nbtinoc/internal/noc"
)

// A minimal end-to-end run: build a 2x2 mesh with the sensor-wise
// recovery policy, inject one packet, step until delivery, and inspect
// the NBTI accounting.
func Example() {
	cfg := noc.DefaultConfig()
	cfg.Width, cfg.Height = 2, 2
	cfg.VCsPerVNet = 2
	cfg.Policy = core.NewSensorWise

	n, err := noc.New(cfg)
	if err != nil {
		panic(err)
	}
	if err := n.Inject(0, 3, 0, 4); err != nil { // 4-flit packet, node 0 -> 3
		panic(err)
	}
	for n.TotalEjectedPackets() == 0 {
		n.Step()
	}
	fmt.Printf("delivered after %d cycles\n", n.Cycle())

	// Every VC of router 0's east input port has been either stressed
	// (powered) or recovering (gated) on every cycle.
	for vc := 0; vc < 2; vc++ {
		dev := n.Device(0, noc.East, vc)
		total := dev.Tracker.TotalCycles()
		fmt.Printf("VC%d: %d cycles accounted, duty %.0f%%\n",
			vc, total, dev.Tracker.DutyCycle())
		if total != n.Cycle() {
			panic("accounting hole")
		}
	}
	// Output:
	// delivered after 16 cycles
	// VC0: 16 cycles accounted, duty 6%
	// VC1: 16 cycles accounted, duty 6%
}

//go:build nbtidebug

package noc

import (
	"fmt"
	"strings"
	"testing"
)

// The nbtidebug build recomputes every elided sweep: a Vth0 rewritten
// behind RestoreAging's back leaves the held comparator outputs stale,
// and the next modelled sample cycle must catch it.
func TestDebugCatchesStaleHeldSensors(t *testing.T) {
	n := settleTestNet(t)
	// Make whichever VC of an East input port is not the most degraded
	// one the clear winner.
	md := n.MostDegradedVC(0, East, 0)
	n.Device(0, East, 1-md).Vth0 = 1
	defer func() {
		if r := recover(); !strings.Contains(fmt.Sprint(r), "elided sweep") {
			t.Errorf("stale held sensor outputs went unnoticed (recovered %v)", r)
		}
	}()
	n.RunUntil(n.Cycle() + 2*n.Config().Sensor.SamplePeriod)
}

// The nbtidebug build asserts the link capacity the config bounds: a
// second send into one cycle's position of a one-value ring panics.
func TestDebugCatchesPipelineOverCapacity(t *testing.T) {
	lens := make([]int32, 2)
	r := newPipeRing[int](1, 2, 1, &lens)
	var p pipeline
	r.send(&p, 0, 1)
	defer func() {
		if r := recover(); !strings.Contains(fmt.Sprint(r), "over capacity") {
			t.Errorf("over-capacity send went unnoticed (recovered %v)", r)
		}
	}()
	r.send(&p, 0, 2)
}

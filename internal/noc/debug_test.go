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
	iu := n.Router(0).Input(East)
	md, _ := iu.banks[0].Held()
	iu.Device(1 - md).Vth0 = 1
	defer func() {
		if r := recover(); !strings.Contains(fmt.Sprint(r), "elided sweep") {
			t.Errorf("stale held sensor outputs went unnoticed (recovered %v)", r)
		}
	}()
	n.RunUntil(n.Cycle() + 2*n.Config().Sensor.SamplePeriod)
}

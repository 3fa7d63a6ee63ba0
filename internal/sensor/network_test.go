package sensor_test

import (
	"testing"

	"nbtinoc/internal/nbti"
	"nbtinoc/internal/noc"
	"nbtinoc/internal/sensor"
)

// downUp is one Down_Up link of a 2x2 mesh: the comparator output of
// node 1's West input port, sent to node 0's East output.
const (
	downUpNode = noc.NodeID(1)
	downUpPort = noc.West
)

func newMesh(t *testing.T, vcs int, cfg sensor.Config) *noc.Network {
	t.Helper()
	nc := noc.DefaultConfig()
	nc.Width, nc.Height, nc.VCsPerVNet = 2, 2, vcs
	nc.Sensor = cfg
	n, err := noc.New(nc)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// sampleCycle reports whether the Step that brought n to its current
// cycle ran a sensor sweep under the given sample period.
func sampleCycle(n *noc.Network, period uint64) bool {
	return (n.Cycle()-1)%period == 0
}

// TestSamplePeriodHoldsValue checks that a noisy sensor's comparator
// output holds between sample periods and is measured afresh at them:
// the network's sampling clock is the sensors' only one.
func TestSamplePeriodHoldsValue(t *testing.T) {
	const period = 100
	n := newMesh(t, 4, sensor.Config{SamplePeriod: period, NoiseSigma: 20e-3})
	n.Step()
	held := n.MostDegradedVC(downUpNode, downUpPort, 0)
	changes := 0
	for c := 0; c < 40*period; c++ {
		n.Step()
		md := n.MostDegradedVC(downUpNode, downUpPort, 0)
		if md == held {
			continue
		}
		if !sampleCycle(n, period) {
			t.Fatalf("held output changed at cycle %d, between sample periods: %d != %d", n.Cycle(), md, held)
		}
		held = md
		changes++
	}
	if changes == 0 {
		t.Fatal("noisy sensors took no fresh measurement at any sample period")
	}
}

// TestBankCachesBetweenPeriods checks that a ranking change in the
// devices reaches the Down_Up link only at the next sample period.
func TestBankCachesBetweenPeriods(t *testing.T) {
	const (
		period = 1000
		vcs    = 4
	)
	n := newMesh(t, vcs, sensor.Config{SamplePeriod: period, Horizon: 3 * nbti.SecondsPerYear})
	n.Step()
	before := n.MostDegradedVC(downUpNode, downUpPort, 0)
	target := (before + 1) % vcs
	// Pile stress onto target and let every other VC recover, so target's
	// projected Vth overtakes the rest.
	for vc := 0; vc < vcs; vc++ {
		tr := &n.Device(downUpNode, downUpPort, vc).Tracker
		if vc == target {
			tr.Stress(1000000, 0)
		} else {
			tr.Recover(1000000)
		}
	}
	// Within the sampling period the held answer must stand.
	for !sampleCycle(n, period) || n.Cycle() == 1 {
		if got := n.MostDegradedVC(downUpNode, downUpPort, 0); got != before {
			t.Fatalf("cycle %d: held MD = %d, want %d", n.Cycle(), got, before)
		}
		n.Step()
	}
	// After the period, the comparator sees the new ranking.
	if got := n.MostDegradedVC(downUpNode, downUpPort, 0); got != target {
		t.Fatalf("cycle %d: refreshed MD = %d, want %d", n.Cycle(), got, target)
	}
}

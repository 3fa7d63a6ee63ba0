package noc_test

import (
	"testing"

	"nbtinoc/internal/core"
	"nbtinoc/internal/noc"
)

// TestNewAllocations pins construction's heap allocations: every
// per-unit slice is carved from a network-wide arena, so a 32×32
// sensor-wise mesh allocates a few dozen objects, and a 4×4 mesh no
// more than a 32×32 one.
func TestNewAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 32×32 mesh several times")
	}
	allocs := func(side int) float64 {
		cfg := noc.DefaultConfig()
		cfg.Width, cfg.Height = side, side
		cfg.Policy = core.NewSensorWise
		return testing.AllocsPerRun(3, func() {
			if _, err := noc.New(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	big, small := allocs(32), allocs(4)
	t.Logf("noc.New allocations: 32×32 %.0f, 4×4 %.0f", big, small)
	if big > 1000 {
		t.Errorf("32×32 sensor-wise noc.New made %.0f allocations, want at most 1000", big)
	}
	if small > big {
		t.Errorf("4×4 noc.New made %.0f allocations, more than the 32×32 mesh's %.0f", small, big)
	}
}

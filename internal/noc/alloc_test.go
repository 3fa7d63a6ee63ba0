package noc_test

import (
	"runtime"
	"testing"

	"nbtinoc/internal/core"
	"nbtinoc/internal/noc"
	"nbtinoc/internal/traffic"
)

// maxNewBytes bounds the heap bytes of a 32×32 sensor-wise noc.New:
// the 4.80 MB measured with pointer-free unit, router and NI records
// that find their per-VC state, link rings, neighbours and source queues
// by index and no sensor-bank arena, plus 10%.
const maxNewBytes = 5_276_000

// maxNewAllocs bounds the allocations of a 32×32 noc.New. A normal
// build makes 41, and under -race the count reads a few more; one
// allocation per node or per unit would add at least a thousand.
const maxNewAllocs = 64

// TestNewAllocations pins construction's heap allocations: every
// per-unit record and window lives in a network-wide arena and each
// gating domain builds its policy once, so a 32×32 mesh makes at most
// maxNewAllocs allocations under sensor-wise and rr-no-sensor alike, and
// a 4×4 mesh no more than a 32×32 one. The 32×32 mesh's bytes stay
// within maxNewBytes.
func TestNewAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 32×32 mesh several times")
	}
	build := func(side int, policy noc.PolicyFactory) func() {
		cfg := noc.DefaultConfig()
		cfg.Width, cfg.Height = side, side
		cfg.Policy = policy
		return func() {
			if _, err := noc.New(cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	allocs := func(side int, policy noc.PolicyFactory) float64 {
		return testing.AllocsPerRun(3, build(side, policy))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	build(32, core.NewSensorWise)()
	runtime.ReadMemStats(&after)
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes > maxNewBytes {
		t.Errorf("32×32 sensor-wise noc.New allocated %d bytes, want at most %d", bytes, maxNewBytes)
	} else {
		t.Logf("32×32 sensor-wise noc.New: %d bytes", bytes)
	}
	big, small := allocs(32, core.NewSensorWise), allocs(4, core.NewSensorWise)
	rr := allocs(32, core.NewRRNoSensor)
	t.Logf("noc.New allocations: 32×32 %.0f, 4×4 %.0f, 32×32 rr-no-sensor %.0f", big, small, rr)
	if big > maxNewAllocs {
		t.Errorf("32×32 sensor-wise noc.New made %.0f allocations, want at most %d", big, maxNewAllocs)
	}
	if rr > maxNewAllocs {
		t.Errorf("32×32 rr-no-sensor noc.New made %.0f allocations, want at most %d", rr, maxNewAllocs)
	}
	if small > big {
		t.Errorf("4×4 noc.New made %.0f allocations, more than the 32×32 mesh's %.0f", small, big)
	}
}

// TestBusyCycleAllocations pins the busy path at zero allocations: once
// a 4×4 sensor-wise mesh under uniform traffic at rate 0.1 is warm, a
// cycle of traffic generation, injection and Step allocates nothing.
func TestBusyCycleAllocations(t *testing.T) {
	cfg := noc.DefaultConfig()
	cfg.Policy = core.NewSensorWise
	n, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := traffic.NewSynthetic(traffic.SyntheticConfig{
		Pattern: traffic.Uniform, Width: cfg.Width, Height: cfg.Height,
		Rate: 0.1, PacketLen: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	emit := func(src, dst noc.NodeID, vnet, l int) {
		if err := n.Inject(src, dst, vnet, l); err != nil {
			t.Fatal(err)
		}
	}
	// The mesh injects ~0.4 packets per cycle, and AllocsPerRun floors
	// its mean, so each run is a block of cycles: one allocation per
	// packet then shows as ~40 per run.
	const block = 100
	cycles := func() {
		for i := 0; i < block; i++ {
			gen.Tick(n.Cycle(), emit)
			n.Step()
		}
	}
	for i := 0; i < 200; i++ {
		cycles()
	}
	if got := testing.AllocsPerRun(20, cycles); got != 0 {
		t.Errorf("a block of %d busy cycles made %.0f allocations, want 0", block, got)
	}
}

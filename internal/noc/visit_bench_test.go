package noc_test

import (
	"testing"
	"time"

	"nbtinoc/internal/core"
	"nbtinoc/internal/metrics"
	"nbtinoc/internal/noc"
	"nbtinoc/internal/traffic"
)

// BenchmarkRouterVisit measures what one router visit of Network.Step
// costs in the lifetime regime — the mesh32-lowrate shape: sensor-wise
// policy, uniform 4-flit packets, a mesh idle most of the time and
// fast-forwarded through — on 8×8, 16×16 and 32×32 meshes. The rate is
// scaled so every mesh carries the same packets per cycle. Only the
// stepped cycles are timed, one Step at a time; ns/visit divides that
// time by the router visits those Steps made. The 8x8-evict case writes
// a buffer larger than one core's L2 through the cache every 12 stepped
// cycles (untimed): the closer an 8×8 visit then costs to a 32×32 one,
// the more of the bigger meshes' cost is memory traffic rather than
// work.
//
//	go test ./internal/noc -run '^$' -bench RouterVisit -count 5 -cpu 1
func BenchmarkRouterVisit(b *testing.B) {
	for _, c := range []struct {
		name  string
		side  int
		evict bool
	}{
		{"8x8", 8, false},
		{"16x16", 16, false},
		{"32x32", 32, false},
		{"8x8-evict", 8, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			var stepped time.Duration
			var steps, visits uint64
			for i := 0; i < b.N; i++ {
				d, s, v := lowRateVisits(b, c.side, c.evict)
				stepped += d
				steps += s
				visits += v
			}
			b.ReportMetric(float64(stepped.Nanoseconds())/float64(visits), "ns/visit")
			b.ReportMetric(float64(visits)/float64(steps), "visits/step")
		})
	}
}

// lowRateVisits runs a side×side mesh for 2 M cycles the way sim.Run
// drives one, fast-forwarding idle spans, and returns the host time of
// the stepped cycles, their number and the router visits they made.
func lowRateVisits(b *testing.B, side int, evict bool) (time.Duration, uint64, uint64) {
	b.Helper()
	const cycles = 2_000_000
	cfg := noc.DefaultConfig()
	cfg.Width, cfg.Height = side, side
	cfg.Policy = core.NewSensorWise
	reg := metrics.New()
	metrics.SetDefault(reg)
	n, err := noc.New(cfg)
	metrics.SetDefault(nil)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := traffic.NewSynthetic(traffic.SyntheticConfig{
		Pattern: traffic.Uniform, Width: side, Height: side,
		Rate: 2e-6 * 1024 / float64(side*side), PacketLen: 4, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	emit := func(src, dst noc.NodeID, vnet, l int) {
		if err := n.Inject(src, dst, vnet, l); err != nil {
			b.Fatal(err)
		}
	}
	var flood []byte
	if evict {
		flood = make([]byte, 4<<20)
	}
	var stepped time.Duration
	var steps uint64
	for c := uint64(0); c < cycles; c++ {
		if next := gen.NextEventCycle(c); next > c && n.Idle() {
			if limit := min(next, cycles-1); limit > c {
				n.RunUntil(limit)
				c = limit
			}
		}
		gen.Tick(c, emit)
		if evict && steps%12 == 0 {
			for j := 0; j < len(flood); j += 64 {
				flood[j]++
			}
		}
		t := time.Now()
		n.Step()
		stepped += time.Since(t)
		steps++
	}
	visits := reg.CounterVec(noc.MetricUnitSteps, "", "unit", "state").With("router", "active")
	return stepped, steps, visits.Value()
}

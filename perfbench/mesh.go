package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"nbtinoc/internal/noc"
	"nbtinoc/internal/sim"
)

// meshMeasure sizes the mesh32-lowrate window so one pass takes a few
// seconds of host time.
const meshMeasure = 2_000_000

// meshSetupReps is how many set-up timings a mesh32-lowrate run takes
// after each pass.
const meshSetupReps = 3

// mesh32Spec is the lifetime-campaign regime: a 32×32 sensor-wise mesh
// under uniform traffic at 2e-6 flits/cycle/node, idle most of the time.
func mesh32Spec(seed uint64) sim.Spec {
	cfg := noc.DefaultConfig()
	cfg.Width, cfg.Height = 32, 32
	cfg.PVSeed = seed
	return sim.Spec{
		Net:    cfg,
		Policy: sim.PolicySpec{Name: "sensor-wise"},
		Gen: sim.GenSpec{
			Kind: "synthetic", Pattern: "uniform", Width: 32, Height: 32,
			Rate: 2e-6, PacketLen: 4, Seed: seed,
		},
		Warmup:  2_000,
		Measure: meshMeasure,
		Probes:  []sim.PortProbe{{Node: 0, Port: noc.East}},
	}
}

func runMesh32(opt options, traced bool) (*outcome, error) {
	spec := mesh32Spec(opt.seed)
	out := &outcome{metrics: metricSet{}}
	var (
		want          []byte
		passMS, rates []float64
		tracedRates   []float64
		tr            engineTrace
		walls         time.Duration
		passes        float64
	)
	// check compares a pass's summary with the first pass's.
	check := func(sum *sim.RunSummary) error {
		data, err := json.Marshal(sum)
		if err != nil {
			return err
		}
		if want == nil {
			want = data
		} else if !bytes.Equal(data, want) {
			return fmt.Errorf("summary differs from the first pass")
		}
		return nil
	}
	// checkedRun runs the spec through the benchmark's own loop, which
	// also checks packet conservation, and returns the host time of the
	// run without that check.
	checkedRun := func(tr *engineTrace) (time.Duration, error) {
		start := time.Now()
		sum, err := tracedRun(spec, tr, false)
		wall := time.Since(start) - time.Duration(tr.check.ns)
		if err == nil {
			err = check(sum)
		}
		if err == nil && tr.conservationFails > 0 {
			err = fmt.Errorf("packets not conserved")
		}
		return wall, err
	}
	routerCycles := float64(spec.Net.Width*spec.Net.Height) * float64(spec.Warmup+spec.Measure)
	setupSpec := spec
	setupSpec.Warmup, setupSpec.Measure = 0, 1
	setup := &setupTimer{specs: []sim.Spec{setupSpec}}

	err := timed(opt.seconds, 2, func(i int) error {
		// The untraced pass is Spec.Compute, what a sim.Runner without
		// a store runs for the spec.
		out.attempted++
		start := time.Now()
		sum, err := spec.Compute()
		wall := time.Since(start)
		if err == nil {
			err = check(sum)
		}
		if err != nil {
			out.fail("mesh32-lowrate pass %d: %v", i, err)
			return nil
		}
		passMS = append(passMS, float64(wall)/1e6)
		fmt.Fprintf(os.Stderr, "perfbench: pass %d: %.3f s\n", i, wall.Seconds())
		rates = append(rates, routerCycles/wall.Seconds())
		if !traced {
			return setup.sample(meshSetupReps)
		}
		out.attempted++
		var ptr engineTrace
		wall, err = checkedRun(&ptr)
		if err != nil {
			out.fail("mesh32-lowrate traced pass %d: %v", i, err)
			return nil
		}
		tr.merge(&ptr)
		walls += wall
		tracedRates = append(tracedRates, routerCycles/wall.Seconds())
		passes++
		return nil
	})
	if err != nil {
		return nil, err
	}
	m := out.metrics
	if !traced {
		peak := peakRSSMB()
		// Spec.Compute keeps the network to itself, so packet
		// conservation is checked on one further, untimed pass through
		// the benchmark's own loop, whose summary must match the rest.
		out.attempted++
		if _, err := checkedRun(&engineTrace{}); err != nil {
			out.fail("mesh32-lowrate conservation pass: %v", err)
		}
		m.sec("setup_s", setup.seconds())
		m.set("router_cycles_per_s", median(rates), "1/s")
		m.set("peak_rss_mb", peak, "MB")
		passJobs(m, passMS)
		return out, nil
	}
	if passes == 0 {
		return out, nil
	}
	var visits engineTrace
	if _, err := tracedRun(spec, &visits, true); err != nil {
		return nil, err
	}
	tr.routersActive, tr.routersSkipped = visits.routersActive, visits.routersSkipped
	tr.layerMetrics(m, passes)
	m.ratio("noc.sample_step.share", tr.sample.seconds()/walls.Seconds())
	traceTotals(m, walls.Seconds(), float64(tr.busyNS())/1e9, passes, median(rates), median(tracedRates))
	return out, nil
}

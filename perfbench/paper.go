package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"nbtinoc/internal/area"
	"nbtinoc/internal/cache"
	"nbtinoc/internal/sim"
)

// goldenPath is the pinned output of cmd/tables -table all -quick at
// seed 1; every table a paper-quick pass renders must appear in it.
const goldenPath = "cmd/tables/testdata/golden_all_quick.txt"

// The -quick windows of cmd/tables.
const (
	quickWarmup  = 2_000
	quickMeasure = 20_000
	quickIters   = 3
)

// paperSetupReps is how many set-up timings a paper-quick run takes
// after each pass.
const paperSetupReps = 10

// paperTable is one simulated table of cmd/tables -table all, called
// with the same arguments as the CLI.
type paperTable struct {
	id  string
	run func(opt sim.TableOptions, ropt sim.RealOptions) (interface{ Render() string }, error)
}

// wrap adapts a driver's typed result to paperTable.run.
func wrap[T interface{ Render() string }](t T, err error) (interface{ Render() string }, error) {
	if err != nil {
		return nil, err
	}
	return t, nil
}

var paperTables = []paperTable{
	{"2", func(o sim.TableOptions, _ sim.RealOptions) (interface{ Render() string }, error) {
		return wrap(sim.RunSyntheticTable(4, o))
	}},
	{"3", func(o sim.TableOptions, _ sim.RealOptions) (interface{ Render() string }, error) {
		return wrap(sim.RunSyntheticTable(2, o))
	}},
	{"4", func(_ sim.TableOptions, r sim.RealOptions) (interface{ Render() string }, error) {
		return wrap(sim.RunRealTable(r))
	}},
	{"vth", func(o sim.TableOptions, _ sim.RealOptions) (interface{ Render() string }, error) {
		return wrap(sim.RunVthSaving(2, 3, o))
	}},
	{"coop", func(o sim.TableOptions, _ sim.RealOptions) (interface{ Render() string }, error) {
		return wrap(sim.RunCooperation(2, o))
	}},
	{"perf", func(o sim.TableOptions, _ sim.RealOptions) (interface{ Render() string }, error) {
		return wrap(sim.RunPerfImpact(16, 4, 0, []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3}, o))
	}},
	{"power", func(o sim.TableOptions, _ sim.RealOptions) (interface{ Render() string }, error) {
		return wrap(sim.RunEnergy(16, 2, 0.1, o))
	}},
	{"sensors", func(o sim.TableOptions, _ sim.RealOptions) (interface{ Render() string }, error) {
		return wrap(sim.RunSensorStudy(16, 4, 0.1, o))
	}},
	{"corners", func(o sim.TableOptions, _ sim.RealOptions) (interface{ Render() string }, error) {
		return wrap(sim.RunCorners(16, 2, 0.1, 0.050, []float64{300, 325, 350, 375, 400}, []float64{1.0, 1.1, 1.2}, o))
	}},
	{"dse", func(o sim.TableOptions, _ sim.RealOptions) (interface{ Render() string }, error) {
		return wrap(sim.RunDSE(16, 0.1, []int{2, 4, 8}, []int{2, 4, 8}, o))
	}},
	{"rr", func(o sim.TableOptions, _ sim.RealOptions) (interface{ Render() string }, error) {
		return wrap(sim.RunRRPeriodStudy(16, 4, 0.1, []uint64{1, 4, 16, 64, 256, 1024}, o))
	}},
}

// jobRecord is one Runner job a pass executed, in execution order.
type jobRecord struct {
	spec   sim.Spec
	key    string
	cached bool
}

// paperPass is the outcome of running every paper table once.
type paperPass struct {
	tables       map[string]string
	area         string
	records      []jobRecord
	routerCycles uint64
	wall         time.Duration
	render       span
	stats        cache.Stats
}

// runPaperTables runs every simulated table plus the area estimate
// through the public drivers, sequentially, with the given windows.
func runPaperTables(store *cache.Store, warmup, measure uint64) (*paperPass, error) {
	p := &paperPass{tables: make(map[string]string)}
	record := func(spec sim.Spec, key string, cached bool) {
		p.records = append(p.records, jobRecord{spec, key, cached})
		if !cached {
			p.routerCycles += uint64(spec.Net.Width*spec.Net.Height) * (spec.Warmup + spec.Measure)
		}
	}
	opt := sim.DefaultTableOptions()
	opt.Warmup, opt.Measure, opt.SeedBase = warmup, measure, 1
	opt.Phits, opt.Parallelism = 2, 1
	opt.Cache, opt.Record = store, record
	ropt := sim.DefaultRealOptions()
	ropt.Iterations = quickIters
	ropt.Warmup, ropt.Measure, ropt.SeedBase = warmup, measure, 1
	ropt.Phits, ropt.Parallelism = 2, 1
	ropt.Cache, ropt.Record = store, record

	start := time.Now()
	for _, t := range paperTables {
		tbl, err := t.run(opt, ropt)
		if err != nil {
			return nil, fmt.Errorf("table %s: %w", t.id, err)
		}
		r := time.Now()
		p.tables[t.id] = tbl.Render()
		p.render.lap(r)
	}
	rep, err := area.Estimate(area.Default45nm(), area.PaperSpec())
	if err != nil {
		return nil, fmt.Errorf("area: %w", err)
	}
	p.area = fmt.Sprintf("  router total      %8.0f um^2\n", rep.RouterUm2) +
		fmt.Sprintf("  total overhead    %.2f%% of baseline tile (paper: < 4%%)\n", rep.TotalPctOfBaseline)
	p.wall = time.Since(start)
	p.stats = store.Stats()
	return p, nil
}

// check compares every rendered table with the golden output.
func (p *paperPass) check(golden string) error {
	var bad []string
	for _, t := range paperTables {
		if !strings.Contains(golden, p.tables[t.id]+"\n") {
			bad = append(bad, t.id)
		}
	}
	for _, line := range strings.SplitAfter(p.area, "\n") {
		if !strings.Contains(golden, line) {
			bad = append(bad, "area")
			break
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("tables differ from %s: %s", goldenPath, strings.Join(bad, ", "))
	}
	return nil
}

// setupSpecs returns the distinct specs of a pass's jobs with a
// one-cycle window (Warmup 0, Measure 1).
func setupSpecs(records []jobRecord) ([]sim.Spec, error) {
	seen := make(map[string]bool)
	var specs []sim.Spec
	for _, r := range records {
		spec := r.spec
		spec.Warmup, spec.Measure = 0, 1
		key, err := sim.SpecKey(spec)
		if err != nil {
			return nil, err
		}
		if !seen[key] {
			seen[key] = true
			specs = append(specs, spec)
		}
	}
	return specs, nil
}

// setupTimer times computing the set-up specs a few times after every
// pass, so the set-up figure samples the machine across the whole run
// rather than at one moment of it.
type setupTimer struct {
	specs []sim.Spec
	times []float64
}

// sample takes reps timings, after one unmeasured one. A timing is the
// sum of each spec's Compute, each started from a collected heap as a
// pass is, so the set-up's garbage neither slows the next spec nor
// raises the run's peak RSS above a pass's.
func (s *setupTimer) sample(reps int) error {
	for i := -1; i < reps; i++ {
		var total time.Duration
		for _, spec := range s.specs {
			runtime.GC()
			start := time.Now()
			if _, err := spec.Compute(); err != nil {
				return fmt.Errorf("setup: %w", err)
			}
			total += time.Since(start)
		}
		if i >= 0 {
			s.times = append(s.times, total.Seconds())
		}
	}
	// Hand the set-up's pages back, so the next pass grows its heap
	// from the same resident set as the run's first pass.
	debug.FreeOSMemory()
	return nil
}

// seconds is the median of every timing taken.
func (s *setupTimer) seconds() float64 { return median(s.times) }

func runPaperQuick(opt options, traced bool) (*outcome, error) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, err
	}
	golden := string(raw)
	out := &outcome{metrics: metricSet{}}
	if traced {
		return out, tracePaperQuick(opt, golden, out)
	}

	var setup setupTimer
	var rates, passMS []float64
	err = timed(opt.seconds, 2, func(i int) error {
		dir := filepath.Join(opt.dir, fmt.Sprintf("pass-%d", i))
		defer os.RemoveAll(dir)
		out.attempted++
		p, err := runPaperTables(openStore(dir), quickWarmup, quickMeasure)
		if err == nil {
			err = p.check(golden)
		}
		if err != nil {
			out.fail("paper-quick pass %d: %v", i, err)
			return nil
		}
		rates = append(rates, float64(p.routerCycles)/p.wall.Seconds())
		passMS = append(passMS, float64(p.wall)/1e6)
		fmt.Fprintf(os.Stderr, "perfbench: pass %d: %.3f s\n", i, p.wall.Seconds())
		if setup.specs == nil {
			if setup.specs, err = setupSpecs(p.records); err != nil {
				return err
			}
		}
		return setup.sample(paperSetupReps)
	})
	if err != nil {
		return nil, err
	}
	m := out.metrics
	if len(setup.times) > 0 {
		m.sec("setup_s", setup.seconds())
	}
	m.set("router_cycles_per_s", median(rates), "1/s")
	m.set("peak_rss_mb", peakRSSMB(), "MB")
	passJobs(m, passMS)
	return out, nil
}

// tracePaperQuick alternates an untraced pass with a traced one. The
// traced pass computes each distinct spec of the untraced pass through
// the benchmark's own engine loop, writes it to a fresh store through
// the cache's miss path, then runs the drivers over that store, where
// every job is a hit. A replay of the drivers' lookups times SpecKey
// and the hit path, so the drivers' own self time is their span minus
// that replay.
func tracePaperQuick(opt options, golden string, out *outcome) error {
	var (
		tr, visits                engineTrace
		miss, drivers, key, hit   span
		render                    span
		walls                     time.Duration
		untracedRates, tracedRate []float64
		refStats                  cache.Stats
		passes                    float64
	)
	err := timed(opt.seconds, 1, func(i int) error {
		refDir := filepath.Join(opt.dir, fmt.Sprintf("ref-%d", i))
		dir := filepath.Join(opt.dir, fmt.Sprintf("traced-%d", i))
		defer os.RemoveAll(refDir)
		defer os.RemoveAll(dir)
		out.attempted++
		ref, err := runPaperTables(openStore(refDir), quickWarmup, quickMeasure)
		if err == nil {
			err = ref.check(golden)
		}
		if err != nil {
			out.fail("paper-quick untraced pass %d: %v", i, err)
			return nil
		}
		untracedRates = append(untracedRates, float64(ref.routerCycles)/ref.wall.Seconds())

		out.attempted++
		var ptr engineTrace
		var pmiss span
		store := openStore(dir)
		var computed [][]byte
		var keys []string
		start := time.Now()
		for _, r := range ref.records {
			if r.cached {
				continue
			}
			// The traced run is the compute of the store's miss path, as
			// Spec.Compute is in Runner.Run, so the miss's own cost is
			// the Do call minus the compute.
			var data []byte
			var compute time.Duration
			t := time.Now()
			_, err := store.Do(r.key, func([]byte) error { return nil }, func() ([]byte, error) {
				t := time.Now()
				defer func() { compute = time.Since(t) }()
				sum, err := tracedRun(r.spec, &ptr, false)
				if err != nil {
					return nil, err
				}
				data, err = json.Marshal(sum)
				return data, err
			})
			if err != nil {
				out.fail("paper-quick traced pass %d: %v", i, err)
				return nil
			}
			pmiss.add(time.Since(t) - compute)
			computed, keys = append(computed, data), append(keys, r.key)
		}
		before := store.Stats()
		t := time.Now()
		p, err := runPaperTables(store, quickWarmup, quickMeasure)
		pdrivers := time.Since(t)
		wall := time.Since(start) - time.Duration(ptr.check.ns)
		if err == nil {
			err = p.check(golden)
		}
		if missed := p.stats.Sub(before).Misses; err == nil && missed != 0 {
			err = fmt.Errorf("%d driver lookups missed the traced store", missed)
		}
		if err == nil && ptr.conservationFails > 0 {
			err = fmt.Errorf("%d runs did not conserve packets", ptr.conservationFails)
		}
		if err == nil {
			err = sameAsReference(cache.Open(refDir, cache.ReadOnly), keys, computed)
		}
		if err != nil {
			out.fail("paper-quick traced pass %d: %v", i, err)
			return nil
		}
		// Replay the drivers' lookups: SpecKey, then a hit decoded the
		// way Runner.Run decodes it.
		for _, r := range p.records {
			t := time.Now()
			k, err := sim.SpecKey(r.spec)
			key.add(time.Since(t))
			if err != nil {
				return err
			}
			t = time.Now()
			var sum sim.RunSummary
			if _, err := store.Do(k, func(b []byte) error { return json.Unmarshal(b, &sum) },
				func() ([]byte, error) { return nil, errors.New("replay lookup missed") }); err != nil {
				return err
			}
			hit.add(time.Since(t))
		}
		if i == 0 {
			for _, r := range ref.records {
				if r.cached {
					continue
				}
				if _, err := tracedRun(r.spec, &visits, true); err != nil {
					return err
				}
			}
		}
		tr.merge(&ptr)
		miss.merge(pmiss)
		drivers.add(pdrivers)
		render.merge(p.render)
		walls += wall
		refStats = refStats.Add(ref.stats)
		tracedRate = append(tracedRate, float64(ptr.routerCycles)/wall.Seconds())
		passes++
		return nil
	})
	if err != nil || passes == 0 {
		return err
	}
	m := out.metrics
	tr.routersActive, tr.routersSkipped = visits.routersActive, visits.routersSkipped
	tr.layerMetrics(m, passes)
	driversSelf := drivers.seconds() - key.seconds() - hit.seconds() - render.seconds()
	busy := float64(tr.busyNS())/1e9 + miss.seconds() + drivers.seconds()
	m.sec("sim.drivers.self_s", driversSelf/passes)
	m.count("sim.spec_key.calls", float64(key.calls)/passes)
	m.sec("sim.spec_key.self_s", key.seconds()/passes)
	m.sec("sim.render.self_s", render.seconds()/passes)
	cacheMetrics(m, refStats, passes)
	m.sec("cache.hit.self_s", hit.seconds()/passes)
	m.sec("cache.miss.self_s", miss.seconds()/passes)
	m.ratio("noc.sample_step.share", tr.sample.seconds()/walls.Seconds())
	traceTotals(m, walls.Seconds(), busy, passes, median(untracedRates), median(tracedRate))
	return nil
}

// sameAsReference checks each traced summary against the bytes the
// untraced pass stored under the same key, which sim.Run computed.
func sameAsReference(ref *cache.Store, keys []string, computed [][]byte) error {
	for i, k := range keys {
		var want []byte
		if _, err := ref.Do(k, func(b []byte) error { want = b; return nil },
			func() ([]byte, error) { return nil, errors.New("reference entry missing") }); err != nil {
			return err
		}
		if !bytes.Equal(want, computed[i]) {
			return fmt.Errorf("traced summary for %s differs from sim.Run's", k[:12])
		}
	}
	return nil
}

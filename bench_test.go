// Package nbtinoc's top-level benchmarks regenerate each table and
// derived figure of the paper at benchmark scale, reporting the headline
// metric of every experiment via b.ReportMetric, plus engine
// micro-benchmarks. Run with:
//
//	go test -bench=. -benchmem
//
// Full-length regeneration (longer windows, paper-formatted output) is
// provided by cmd/tables.
package nbtinoc

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"nbtinoc/internal/area"
	"nbtinoc/internal/cache"
	"nbtinoc/internal/core"
	"nbtinoc/internal/noc"
	"nbtinoc/internal/service"
	"nbtinoc/internal/sim"
	"nbtinoc/internal/sweep"
	"nbtinoc/internal/traffic"
)

// benchTableOptions keeps per-iteration cost low so -bench=. terminates
// quickly while still producing meaningful duty-cycles. Parallelism 1 is
// the sequential reference; BenchmarkTableII_Parallel measures the
// worker-pool speedup against it.
func benchTableOptions() sim.TableOptions {
	opt := sim.DefaultTableOptions()
	opt.Warmup = 2_000
	opt.Measure = 20_000
	opt.Parallelism = 1
	return opt
}

// BenchmarkTableII regenerates Table II (synthetic traffic, 4 VCs) and
// reports the mean rr-vs-sensor-wise gap on the most degraded VC.
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := sim.RunSyntheticTable(4, benchTableOptions())
		if err != nil {
			b.Fatal(err)
		}
		var gap float64
		for _, row := range tbl.Rows {
			gap += row.Gap
		}
		b.ReportMetric(gap/float64(len(tbl.Rows)), "gap_pts")
	}
}

// BenchmarkTableII_Parallel is BenchmarkTableII with the scenario grid
// fanned out across one worker per core (Parallelism 0); the ratio to
// BenchmarkTableII is the wall-clock speedup of the pool on this
// machine, bounded by GOMAXPROCS. The output is identical by
// construction (TestParallelMatchesSequential pins that).
func BenchmarkTableII_Parallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opt := benchTableOptions()
		opt.Parallelism = 0
		tbl, err := sim.RunSyntheticTable(4, opt)
		if err != nil {
			b.Fatal(err)
		}
		var gap float64
		for _, row := range tbl.Rows {
			gap += row.Gap
		}
		b.ReportMetric(gap/float64(len(tbl.Rows)), "gap_pts")
	}
}

// BenchmarkTableII_CacheCold is BenchmarkTableII through the result
// cache with an empty store every iteration: all misses, so it measures
// the overhead of key derivation plus entry persistence on top of the
// simulation itself. BenchmarkTableII_CacheWarm is the same grid served
// entirely from a pre-filled store; the ratio between the pair is the
// speedup memoization buys a repeated table run.
func BenchmarkTableII_CacheCold(b *testing.B) {
	root := b.TempDir()
	for i := 0; i < b.N; i++ {
		opt := benchTableOptions()
		opt.Cache = cache.Open(filepath.Join(root, strconv.Itoa(i)), cache.ReadWrite)
		tbl, err := sim.RunSyntheticTable(4, opt)
		if err != nil {
			b.Fatal(err)
		}
		var gap float64
		for _, row := range tbl.Rows {
			gap += row.Gap
		}
		b.ReportMetric(gap/float64(len(tbl.Rows)), "gap_pts")
		if st := opt.Cache.Stats(); st.Hits != 0 {
			b.Fatalf("cold store served hits: %+v", st)
		}
	}
}

// BenchmarkTableII_CacheWarm: see BenchmarkTableII_CacheCold.
func BenchmarkTableII_CacheWarm(b *testing.B) {
	dir := b.TempDir()
	fill := benchTableOptions()
	fill.Cache = cache.Open(dir, cache.ReadWrite)
	if _, err := sim.RunSyntheticTable(4, fill); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := benchTableOptions()
		opt.Cache = cache.Open(dir, cache.ReadOnly)
		tbl, err := sim.RunSyntheticTable(4, opt)
		if err != nil {
			b.Fatal(err)
		}
		var gap float64
		for _, row := range tbl.Rows {
			gap += row.Gap
		}
		b.ReportMetric(gap/float64(len(tbl.Rows)), "gap_pts")
		if st := opt.Cache.Stats(); st.Misses != 0 {
			b.Fatalf("warm store recomputed: %+v", st)
		}
	}
}

// benchSweepGrid is the campaign the sweep benchmarks run: the Table II
// policy/rate cross at benchmark scale, expanded through the sharded
// sweep layer instead of the table driver.
func benchSweepGrid() *sweep.Grid {
	return &sweep.Grid{
		Name: "bench",
		Base: sim.Scenario{
			Name: "bench", Cores: 4, VCs: 2, Policy: "baseline",
			Workload: "uniform", Rate: 0.1,
			Warmup: 2_000, Measure: 20_000, Seed: 1, PVSeed: 1,
		},
		Axes: sweep.Axes{
			Policies: []string{"baseline", "sensor-wise"},
			Rates:    []float64{0.1, 0.2, 0.3},
		},
		Probes: []string{"0:E"},
	}
}

// benchSweepRun drives one full coordinator round (expand, execute,
// merge) against dir and fails the benchmark on any unit error.
func benchSweepRun(b *testing.B, dir string) *sweep.Result {
	b.Helper()
	manifest, units, err := sweep.NewManifest(benchSweepGrid())
	if err != nil {
		b.Fatal(err)
	}
	c := &sweep.Coordinator{
		Manifest: manifest, Units: units,
		CacheDir: dir, Procs: 1, Workers: 1,
	}
	res, err := c.Run(io.Discard)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkSweepCold runs the sweep campaign against an empty cache
// every iteration: all misses, so it measures grid expansion, unit
// execution, entry persistence and the sequential merge end to end.
// BenchmarkSweepWarm replays the identical campaign against the filled
// cache — the resume/no-op path, whose cost is keying plus decode —
// and the ratio between the pair is what the cache-as-coordination
// layer buys a repeated or resumed campaign.
func BenchmarkSweepCold(b *testing.B) {
	root := b.TempDir()
	for i := 0; i < b.N; i++ {
		res := benchSweepRun(b, filepath.Join(root, strconv.Itoa(i)))
		// Every unit misses once; the merge pass then reads them back as
		// hits, so only the miss count distinguishes cold from warm.
		if res.Stats.Misses != int64(res.Done) {
			b.Fatalf("cold sweep: %d misses for %d units: %+v", res.Stats.Misses, res.Done, res.Stats)
		}
	}
}

// BenchmarkSweepWarm: see BenchmarkSweepCold.
func BenchmarkSweepWarm(b *testing.B) {
	dir := b.TempDir()
	benchSweepRun(b, dir)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := benchSweepRun(b, dir)
		if res.Stats.Misses != 0 {
			b.Fatalf("warm sweep recomputed: %+v", res.Stats)
		}
	}
}

// BenchmarkTableII_Inj010 is the Table II grid restricted to the
// 0.10 flits/cycle/node injection rate — the low-activity regime the
// activity-gated engine targets. BenchmarkTableII_Inj030 is the same
// grid at 0.30, where most units stay busy and the engine falls back
// to full-mesh work; together they bound the speedup across load.
func BenchmarkTableII_Inj010(b *testing.B) { benchTableIIAtRate(b, 0.1) }

// BenchmarkTableII_Inj030 is the high-load single-rate companion of
// BenchmarkTableII_Inj010.
func BenchmarkTableII_Inj030(b *testing.B) { benchTableIIAtRate(b, 0.3) }

func benchTableIIAtRate(b *testing.B, rate float64) {
	for i := 0; i < b.N; i++ {
		opt := benchTableOptions()
		opt.Rates = []float64{rate}
		tbl, err := sim.RunSyntheticTable(4, opt)
		if err != nil {
			b.Fatal(err)
		}
		var gap float64
		for _, row := range tbl.Rows {
			gap += row.Gap
		}
		b.ReportMetric(gap/float64(len(tbl.Rows)), "gap_pts")
	}
}

// BenchmarkTableIII regenerates Table III (synthetic traffic, 2 VCs).
func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := sim.RunSyntheticTable(2, benchTableOptions())
		if err != nil {
			b.Fatal(err)
		}
		var gap float64
		for _, row := range tbl.Rows {
			gap += row.Gap
		}
		b.ReportMetric(gap/float64(len(tbl.Rows)), "gap_pts")
	}
}

// BenchmarkTableIV regenerates Table IV (benchmark mixes, avg/std over
// iterations) and reports the mean gap across its rows.
func BenchmarkTableIV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opt := sim.RealOptions{
			Iterations: 3, VCs: 2, Warmup: 1_000, Measure: 12_000, SeedBase: 1,
			Parallelism: 1,
		}
		tbl, err := sim.RunRealTable(opt)
		if err != nil {
			b.Fatal(err)
		}
		var gap float64
		for _, row := range tbl.Rows {
			gap += row.Gap
		}
		b.ReportMetric(gap/float64(len(tbl.Rows)), "gap_pts")
	}
}

// BenchmarkAreaReport regenerates the Section III-D overhead analysis
// and reports the total overhead percentage (paper: < 4%).
func BenchmarkAreaReport(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		rep, err := area.Estimate(area.Default45nm(), area.PaperSpec())
		if err != nil {
			b.Fatal(err)
		}
		total = rep.TotalPctOfBaseline
	}
	b.ReportMetric(total, "overhead_pct")
}

// BenchmarkVthSaving regenerates the ΔVth saving analysis behind the
// paper's 54.2% conclusion and reports the maximum saving observed.
func BenchmarkVthSaving(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := sim.RunVthSaving(2, 3, benchTableOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tbl.MaxSavingPct, "max_saving_pct")
	}
}

// BenchmarkCooperation regenerates the cooperation ablation behind the
// paper's "up to 23%" claim and reports the maximum reduction.
func BenchmarkCooperation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := sim.RunCooperation(2, benchTableOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tbl.MaxReductionPts, "max_reduction_pts")
	}
}

// BenchmarkPerfImpact regenerates the NBTI/performance trade-off sweep
// (extension E1) and reports the sensor-wise latency penalty versus the
// baseline at the highest swept load.
func BenchmarkPerfImpact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := sim.RunPerfImpact(4, 2, 0, []float64{0.1, 0.3}, benchTableOptions())
		if err != nil {
			b.Fatal(err)
		}
		var base, sw float64
		for _, r := range tbl.Rows {
			if r.Rate != 0.3 {
				continue
			}
			switch r.Policy {
			case "baseline":
				base = r.AvgLatency
			case "sensor-wise":
				sw = r.AvgLatency
			}
		}
		b.ReportMetric(sw-base, "latency_penalty_cy")
	}
}

// BenchmarkEnergy regenerates the leakage/energy extension (E2) and
// reports the sensor-wise leakage saving.
func BenchmarkEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := sim.RunEnergy(4, 2, 0.1, benchTableOptions())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range tbl.Rows {
			if r.Policy == "sensor-wise" {
				b.ReportMetric(r.Report.LeakSavedPct, "leak_saved_pct")
			}
		}
	}
}

// benchNetwork builds a loaded 16-core network for engine benchmarks.
func benchNetwork(b *testing.B, policy noc.PolicyFactory) (*noc.Network, traffic.Generator) {
	b.Helper()
	cfg := noc.DefaultConfig()
	cfg.Policy = policy
	n, err := noc.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := traffic.NewSynthetic(traffic.SyntheticConfig{
		Pattern: traffic.Uniform, Width: 4, Height: 4,
		Rate: 0.2, PacketLen: 4, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return n, gen
}

// BenchmarkFigure1Baseline measures the per-cycle cost of the baseline
// microarchitecture of Fig. 1A (16-core mesh under load).
func BenchmarkFigure1Baseline(b *testing.B) {
	n, gen := benchNetwork(b, nil)
	emit := func(src, dst noc.NodeID, vnet, l int) {
		_ = n.Inject(src, dst, vnet, l)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Tick(uint64(i), emit)
		n.Step()
	}
}

// BenchmarkFigure1SensorWise measures the per-cycle cost of the
// NBTI-aware microarchitecture of Fig. 1B (sensors, Down_Up/Up_Down
// links, pre-VA policy) under the same load.
func BenchmarkFigure1SensorWise(b *testing.B) {
	n, gen := benchNetwork(b, core.NewSensorWise)
	emit := func(src, dst noc.NodeID, vnet, l int) {
		_ = n.Inject(src, dst, vnet, l)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Tick(uint64(i), emit)
		n.Step()
	}
}

// BenchmarkEngineIdle measures the per-cycle cost of a quiescent
// 16-core mesh: no traffic after construction, so once every policy
// settles, the active set is empty and a cycle costs only the
// active-set bookkeeping. This is the headline number of the
// activity-gated engine — before it, an idle cycle cost the same
// fifteen full-mesh sweeps as a loaded one.
func BenchmarkEngineIdle(b *testing.B) {
	cfg := noc.DefaultConfig()
	cfg.Policy = core.NewSensorWise
	n, err := noc.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// Let the initial policy transitions drain so steady state is
	// reached before timing starts.
	n.Run(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/cycle")
}

// BenchmarkEngineLowLoad measures the per-cycle cost at inj 0.02 —
// the sparse-activity regime the active set targets: most units idle
// most cycles, a few carrying traffic.
func BenchmarkEngineLowLoad(b *testing.B) {
	cfg := noc.DefaultConfig()
	cfg.Policy = core.NewSensorWise
	n, err := noc.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := traffic.NewSynthetic(traffic.SyntheticConfig{
		Pattern: traffic.Uniform, Width: 4, Height: 4,
		Rate: 0.02, PacketLen: 4, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	emit := func(src, dst noc.NodeID, vnet, l int) {
		_ = n.Inject(src, dst, vnet, l)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Tick(uint64(i), emit)
		n.Step()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/cycle")
}

// benchMeshCycles measures the per-cycle cost of a loaded side×side
// sensor-wise mesh — the big-mesh scaling points of the flat-arena
// engine. The injection rate matches BenchmarkTableII's low-load row
// so the active set stays sparse and the cost is dominated by the
// routers actually carrying traffic, not the mesh size.
func benchMeshCycles(b *testing.B, side int) {
	cfg := noc.DefaultConfig()
	cfg.Width, cfg.Height = side, side
	cfg.Policy = core.NewSensorWise
	n, err := noc.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := traffic.NewSynthetic(traffic.SyntheticConfig{
		Pattern: traffic.Uniform, Width: side, Height: side,
		Rate: 0.1, PacketLen: 4, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	emit := func(src, dst noc.NodeID, vnet, l int) {
		_ = n.Inject(src, dst, vnet, l)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Tick(uint64(i), emit)
		n.Step()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/cycle")
}

// BenchmarkMesh16 runs a 16×16 mesh (256 routers) under load.
func BenchmarkMesh16(b *testing.B) { benchMeshCycles(b, 16) }

// BenchmarkMesh32 runs a 32×32 mesh (1024 routers) under load.
func BenchmarkMesh32(b *testing.B) { benchMeshCycles(b, 32) }

// BenchmarkMesh32_LowRate is the Monte Carlo lifetime-campaign regime:
// a 32×32 mesh over a long window at an injection rate so low the
// network is idle for most of it. This is where the event-horizon
// engine's O(events) cost shows — geometric skip-sampling makes the
// generator free on quiet cycles and RunUntil bulk-jumps the idle
// spans — and the ff_ratio metric reports the fraction of simulated
// cycles covered by fast-forward.
func BenchmarkMesh32_LowRate(b *testing.B) { benchMeshLowRate(b, 500_000) }

// BenchmarkMesh32_LowRateLong is BenchmarkMesh32_LowRate over a
// 2 000 000-cycle window (the perfbench mesh32-lowrate spec's), long
// enough that one iteration clears benchjson's sec/op floor and the
// idle-mesh stepping cost is gated, not just its allocations.
func BenchmarkMesh32_LowRateLong(b *testing.B) { benchMeshLowRate(b, 2_000_000) }

// benchMeshLowRate runs the low-rate 32×32 sensor-wise campaign over a
// measure-cycle window.
func benchMeshLowRate(b *testing.B, measure uint64) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := noc.DefaultConfig()
		cfg.Width, cfg.Height = 32, 32
		gen, err := traffic.NewSynthetic(traffic.SyntheticConfig{
			Pattern: traffic.Uniform, Width: 32, Height: 32,
			Rate: 2e-6, PacketLen: 4, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run(sim.RunConfig{
			Net: cfg, PolicyName: "sensor-wise",
			Warmup: 2_000, Measure: measure, Gen: gen,
		}, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(
			float64(res.Net.FastForwardedCycles())/float64(res.Net.Cycle()), "ff_ratio")
	}
}

// BenchmarkPolicyDecide measures one pre-VA decision of every
// registered policy over a 4-VC slice with VC 1 busy and traffic
// waiting: the per-decision "policy" layer of the engine.
func BenchmarkPolicyDecide(b *testing.B) {
	for _, name := range core.Names() {
		b.Run(name, func(b *testing.B) {
			factory, err := core.Lookup(name)
			if err != nil {
				b.Fatal(err)
			}
			p := factory()
			in := noc.PolicyInput{
				NumVCs:        4,
				Idle:          0b1101,
				Powered:       0b1111,
				MostDegraded:  2,
				LeastDegraded: 3,
				NewTraffic:    true,
			}
			var sink uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				in.Cycle = uint64(i)
				sink ^= p.DesiredPower(in)
			}
			policySink = sink
		})
	}
}

// policySink keeps BenchmarkPolicyDecide's decisions observable.
var policySink uint64

// BenchmarkSyntheticTick measures workload generation throughput.
func BenchmarkSyntheticTick(b *testing.B) {
	gen, err := traffic.NewSynthetic(traffic.SyntheticConfig{
		Pattern: traffic.Uniform, Width: 8, Height: 8,
		Rate: 0.3, PacketLen: 4, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	sink := 0
	emit := func(src, dst noc.NodeID, vnet, l int) { sink++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Tick(uint64(i), emit)
	}
	_ = sink
}

// BenchmarkAppMixTick measures application-model generation throughput.
func BenchmarkAppMixTick(b *testing.B) {
	gen, err := traffic.NewRandomAppMix(4, 4, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	sink := 0
	emit := func(src, dst noc.NodeID, vnet, l int) { sink++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Tick(uint64(i), emit)
	}
	_ = sink
}

// BenchmarkSensorStudy regenerates the sensor-robustness extension and
// reports the reference sensor's gap over rr-no-sensor.
func BenchmarkSensorStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := sim.RunSensorStudy(4, 4, 0.1, benchTableOptions())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range tbl.Rows {
			if r.Variant == "reference" {
				b.ReportMetric(r.GapVsRR, "gap_pts")
			}
		}
	}
}

// BenchmarkCorners regenerates the operating-corner lifetime extension
// sweep and reports the lifetime-extension factor at the hottest corner.
func BenchmarkCorners(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := sim.RunCorners(4, 2, 0.1, 0.050,
			[]float64{350, 400}, []float64{1.2}, benchTableOptions())
		if err != nil {
			b.Fatal(err)
		}
		last := tbl.Rows[len(tbl.Rows)-1]
		b.ReportMetric(last.ExtensionX, "lifetime_extension_x")
	}
}

// BenchmarkDSE regenerates the design-space exploration and reports the
// MD-VC duty at the paper's 4-VC/4-flit point.
func BenchmarkDSE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := sim.RunDSE(4, 0.1, []int{2, 4}, []int{4}, benchTableOptions())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range tbl.Rows {
			if r.VCs == 4 && r.Depth == 4 {
				b.ReportMetric(r.DutyMD, "duty_md_pct")
			}
		}
	}
}

// BenchmarkServiceWarmSubmit measures the nbtisimd request path once
// the result is known: an HTTP spec submission deduping against the
// finished job plus a result fetch. The job is driven to completion
// before the timer starts, so every measured iteration is the
// deterministic warm path (no polling variance).
func BenchmarkServiceWarmSubmit(b *testing.B) {
	srv, err := service.New(service.Config{
		Store:   cache.Open(b.TempDir(), cache.ReadWrite),
		Workers: 1,
		Clock:   func() int64 { return 0 },
	})
	if err != nil {
		b.Fatal(err)
	}
	srv.Start()
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cfg := noc.DefaultConfig()
	cfg.Width, cfg.Height = 2, 2
	cfg.VCsPerVNet = 2
	spec := sim.Spec{
		Net:     cfg,
		Policy:  sim.PolicySpec{Name: "sensor-wise"},
		Gen:     sim.GenSpec{Kind: "synthetic", Pattern: "uniform", Width: 2, Height: 2, Rate: 0.1, PacketLen: 4, Seed: 1},
		Warmup:  200,
		Measure: 2_000,
		Probes:  []sim.PortProbe{{Node: 0, Port: noc.East}},
	}
	body, err := json.Marshal(spec)
	if err != nil {
		b.Fatal(err)
	}
	id, err := sim.SpecKey(spec)
	if err != nil {
		b.Fatal(err)
	}
	post := func() int {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	post()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			b.Fatal(err)
		}
		var view service.JobView
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if view.State == service.StateDone {
			break
		}
		if view.State == service.StateFailed || time.Now().After(deadline) {
			b.Fatalf("warmup job state %s: %s", view.State, view.Error)
		}
		time.Sleep(time.Millisecond)
	}

	// One unmeasured round of the exact loop body, so first-use costs
	// (dedup branch, result render, response buffers) don't distort a
	// -benchtime=1x smoke run.
	round := func() {
		if code := post(); code != http.StatusOK {
			b.Fatalf("warm submit: status %d, want 200 (dedup)", code)
		}
		resp, err := http.Get(ts.URL + "/jobs/" + id + "/result?format=json")
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("result: status %d", resp.StatusCode)
		}
	}
	round()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

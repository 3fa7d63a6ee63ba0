// Command tables regenerates every table and derived figure of the
// paper's evaluation:
//
//	-table 1     Table I   — experimental setup as realised by this model
//	-table 2     Table II  — synthetic traffic, 4 VCs
//	-table 3     Table III — synthetic traffic, 2 VCs
//	-table 4     Table IV  — SPLASH2/WCET benchmark mixes, 2 VCs
//	-table area  Section III-D area overheads
//	-table vth   conclusion claim: net ΔVth saving vs baseline
//	-table coop  conclusion claim: cooperation ablation
//	-table perf    extension: NBTI/performance trade-off sweep
//	-table power   extension: leakage/energy impact of the gating
//	-table sensors extension: sensor non-ideality robustness study
//	-table corners extension: lifetime across temperature/Vdd corners
//	-table dse     extension: VC/buffer-depth design-space exploration
//	-table rr      extension: rr-no-sensor rotation-period study
//	-table all   everything above
//
// The -quick flag shortens the simulation windows for smoke runs; -full
// uses the paper's 30e6-cycle windows (slow). -mesh WxH swaps the
// paper's 4-/16-core sweep of the synthetic tables for one explicit
// mesh geometry, for big-mesh scaling runs (e.g. -mesh 32x32).
//
// Independent scenarios within a table run concurrently on a bounded
// worker pool; -j caps the workers (0 = one per core, 1 = sequential).
// The output is identical for every -j value. With -table all, each
// table additionally reports its wall-clock time.
//
// Results are memoized in a content-addressed on-disk cache (-cache,
// -cache-dir): rerunning an already-computed table serves it from disk
// byte-identically. -cache=off disables it, -cache=ro reuses entries
// without writing new ones; -v prints hit/miss statistics to stderr.
//
// -cpuprofile, -memprofile and -trace write the standard Go runtime
// profiles for the whole run, for digging into simulator hot spots.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"nbtinoc/cmd/internal/cli"
	"nbtinoc/internal/area"
	"nbtinoc/internal/metrics"
	"nbtinoc/internal/sim"
	"nbtinoc/internal/sweep"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("tables", flag.ContinueOnError)
	cf := cli.Flags{Prog: "tables"}
	cf.RegisterProfile(fs, "trace")
	cf.RegisterMetrics(fs)
	cf.RegisterCache(fs)
	var (
		table   = fs.String("table", "all", "table to regenerate: 1, 2, 3, 4, area, vth, coop, perf, power, sensors, corners, dse, rr, all")
		warmup  = fs.Uint64("warmup", 20_000, "warm-up cycles")
		measure = fs.Uint64("measure", 200_000, "measured cycles")
		iters   = fs.Int("iters", 10, "benchmark-mix iterations for Table IV")
		seed    = fs.Uint64("seed", 1, "base seed for PV and traffic")
		years   = fs.Float64("years", 3, "ΔVth projection horizon in years")
		wakeup  = fs.Int("wakeup", 0, "sleep-transistor wake-up latency for -table perf")
		mesh    = fs.String("mesh", "", "run the synthetic tables (2, 3) on one mesh geometry WxH, e.g. 16x16 (default: the paper's 4- and 16-core sweep)")
		quick   = fs.Bool("quick", false, "short windows for a fast smoke run")
		full    = fs.Bool("full", false, "paper-length 30e6-cycle windows (slow)")
		phits   = fs.Int("phits", 2, "link serialization (64-bit flits over 32-bit links = 2)")
		csvDir  = fs.String("csv", "", "also write machine-readable CSV files into this directory")
		jobs    = fs.Int("j", 0, "parallel scenario workers: 0 = one per core, 1 = sequential (output is identical either way)")

		sweepOut  = fs.String("sweep-manifest", "", "record every cached scenario into a sweep manifest at this path (replayable with nbtisweep)")
		verbose   = fs.Bool("v", false, "print result-cache statistics to stderr")
		engineVer = fs.Bool("engine-version", false, "print the engine fingerprint baked into cache keys, then exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *engineVer {
		fmt.Fprintln(out, sim.EngineVersion)
		return nil
	}
	// -v forces a registry so the progress line has counters to read.
	sess, err := cf.Start(*verbose)
	if err != nil {
		return err
	}
	defer sess.Finish(&err)
	// phase names the table currently regenerating, for the -v progress
	// line served alongside cycles/sec and job completion.
	var phase atomic.Value
	phase.Store("")
	if *verbose {
		sess.Progress(&metrics.Progress{
			JobsDone:  sim.MetricJobsDone,
			JobsTotal: sim.MetricJobsTotal,
			Phase:     func() string { s, _ := phase.Load().(string); return s },
		})
	}
	if *quick {
		*warmup, *measure, *iters = 2_000, 20_000, 3
	}
	if *full {
		*warmup, *measure = 9_000_000, 21_000_000
	}
	store, err := sess.OpenCache()
	if err != nil {
		return err
	}
	// -sweep-manifest records every cache-keyed scenario this run
	// executes, so a table regeneration doubles as a sweep campaign
	// definition nbtisweep can shard and resume.
	var recorder *sweep.Recorder
	if *sweepOut != "" {
		recorder = sweep.NewRecorder("tables-" + *table)
	}
	opt := sim.DefaultTableOptions()
	opt.Warmup, opt.Measure, opt.SeedBase = *warmup, *measure, *seed
	opt.Phits = *phits
	opt.Parallelism = *jobs
	opt.Cache = store
	if recorder != nil {
		opt.Record = recorder.Record
	}
	if *mesh != "" {
		m, err := sim.ParseMesh(*mesh)
		if err != nil {
			return err
		}
		opt.Meshes = []sim.Mesh{m}
	}

	// Each section regenerates one table; csv names the file -csv
	// writes its CSV form to, empty for tables without one.
	type section struct {
		id, title, csv string
		run            func() (renderer, error)
	}
	sections := []section{
		{"1", "=== Table I: experimental setup (as realised by this model) ===", "",
			func() (renderer, error) { return setupTable(*phits), nil }},
		{"2", "=== Table II: synthetic traffic, 4 VCs ===", "table2.csv",
			func() (renderer, error) { return sim.RunSyntheticTable(4, opt) }},
		{"3", "=== Table III: synthetic traffic, 2 VCs ===", "table3.csv",
			func() (renderer, error) { return sim.RunSyntheticTable(2, opt) }},
		{"4", "=== Table IV: SPLASH2/WCET benchmark mixes, 2 VCs ===", "table4.csv",
			func() (renderer, error) {
				ropt := sim.DefaultRealOptions()
				ropt.Iterations = *iters
				ropt.Warmup, ropt.Measure, ropt.SeedBase = *warmup, *measure, *seed
				ropt.Phits = *phits
				ropt.Parallelism = *jobs
				ropt.Cache = store
				if recorder != nil {
					ropt.Record = recorder.Record
				}
				return sim.RunRealTable(ropt)
			}},
		{"area", "=== Section III-D: area overhead (45 nm, ORION-style model) ===", "",
			areaTable},
		{"vth", "=== Conclusion: net NBTI ΔVth saving vs non-gated baseline ===", "vth.csv",
			func() (renderer, error) { return sim.RunVthSaving(2, *years, opt) }},
		{"coop", "=== Conclusion: cooperation (traffic information) ablation ===", "coop.csv",
			func() (renderer, error) { return sim.RunCooperation(2, opt) }},
		{"perf", "=== Extension: NBTI/performance trade-off (16 cores, 4 VCs) ===", "perf.csv",
			func() (renderer, error) {
				return sim.RunPerfImpact(16, 4, *wakeup,
					[]float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3}, opt)
			}},
		{"power", "=== Extension: router energy and leakage saving (16 cores, 2 VCs) ===", "",
			func() (renderer, error) { return sim.RunEnergy(16, 2, 0.1, opt) }},
		{"sensors", "=== Extension: sensor non-ideality robustness (16 cores, 4 VCs) ===", "",
			func() (renderer, error) { return sim.RunSensorStudy(16, 4, 0.1, opt) }},
		{"corners", "=== Extension: lifetime across operating corners (16 cores, 2 VCs) ===", "",
			func() (renderer, error) {
				return sim.RunCorners(16, 2, 0.1, 0.050,
					[]float64{300, 325, 350, 375, 400}, []float64{1.0, 1.1, 1.2}, opt)
			}},
		{"dse", "=== Extension: design-space exploration (16 cores) ===", "dse.csv",
			func() (renderer, error) {
				return sim.RunDSE(16, 0.1, []int{2, 4, 8}, []int{2, 4, 8}, opt)
			}},
		{"rr", "=== Extension: rr-no-sensor rotation-period study (16 cores, 4 VCs) ===", "",
			func() (renderer, error) {
				return sim.RunRRPeriodStudy(16, 4, 0.1,
					[]uint64{1, 4, 16, 64, 256, 1024}, opt)
			}},
	}

	all := *table == "all"
	ran := false
	for _, s := range sections {
		if !all && *table != s.id {
			continue
		}
		ran = true
		phase.Store("table " + s.id)
		fmt.Fprintln(out, s.title)
		before := store.Stats()
		start := cli.Now()
		tbl, err := s.run()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, tbl.Render())
		if s.csv != "" && *csvDir != "" {
			if err := writeCSV(*csvDir, s.csv, tbl.(csvRenderer).CSV()); err != nil {
				return err
			}
		}
		if all {
			line := fmt.Sprintf("[table %s: %.2fs", s.id, time.Duration(cli.Now()-start).Seconds())
			if store != nil {
				line += ", cache " + store.Stats().Sub(before).String()
			}
			fmt.Fprintf(out, "%s]\n\n", line)
		}
	}
	if !ran {
		return fmt.Errorf("unknown table %q", *table)
	}
	if recorder != nil {
		m := recorder.Manifest()
		if err := m.Save(*sweepOut); err != nil {
			return err
		}
		if *verbose {
			sess.Logf("recorded %d units into %s", len(m.Units), *sweepOut)
		}
	}
	if *verbose && store != nil {
		sess.Logf("cache: %s", store.Stats())
	}
	return nil
}

// renderer is one regenerated section; sections with a CSV file name
// also implement csvRenderer.
type renderer interface{ Render() string }

type csvRenderer interface {
	renderer
	CSV() string
}

// text is a section rendered up front.
type text string

func (t text) Render() string { return string(t) }

// setupTable renders the realised counterpart of the paper's Table I.
func setupTable(phits int) renderer {
	out := new(strings.Builder)
	cfg, _ := sim.BaseConfig(16, 4)
	cfg.PhitsPerFlit = phits
	fmt.Fprintf(out, "%-18s %s\n", "Cores", "4/16 tiles, square 2D mesh (Tilera iMesh-style)")
	fmt.Fprintf(out, "%-18s %s\n", "Workloads", "uniform synthetic (0.1/0.2/0.3 flits/cycle/node);")
	fmt.Fprintf(out, "%-18s %s\n", "", "SPLASH2/WCET phase-model mixes (paper: GEM5 full-system)")
	fmt.Fprintf(out, "%-18s %d-stage wormhole VC router (BW/RC, VA/SA, ST)\n", "Router", 3)
	fmt.Fprintf(out, "%-18s %d/%d VCs per vnet, %d-flit buffers\n",
		"Virtual channels", 2, 4, cfg.BufferDepth)
	fmt.Fprintf(out, "%-18s %d-bit flits over %d-bit links (%d phits/flit), %d-cycle hops\n",
		"Links", cfg.FlitWidthBits, cfg.FlitWidthBits/phits, phits, cfg.LinkLatency)
	fmt.Fprintf(out, "%-18s XY dimension-order (YX, west-first available)\n", "Routing")
	fmt.Fprintf(out, "%-18s Vth0 = %.3f V @45 nm (%.3f V @32 nm), Vdd = %.1f V, %g GHz\n",
		"Technology", cfg.NBTI.Vth0, 0.160, cfg.NBTI.Vdd, 1e-9/cfg.NBTI.Tclk)
	fmt.Fprintf(out, "%-18s within-die N(%.3f, %.3f) per VC buffer\n",
		"Process variation", cfg.PV.MeanVth, cfg.PV.Sigma)
	return text(out.String())
}

// areaTable renders the Section III-D area overheads.
func areaTable() (renderer, error) {
	rep, err := area.Estimate(area.Default45nm(), area.PaperSpec())
	if err != nil {
		return nil, err
	}
	out := new(strings.Builder)
	fmt.Fprintf(out, "router components (4 ports, 4 VCs, 4-flit buffers, 64-bit flits):\n")
	fmt.Fprintf(out, "  input buffers     %8.0f um^2\n", rep.BufferUm2)
	fmt.Fprintf(out, "  crossbar          %8.0f um^2\n", rep.CrossbarUm2)
	fmt.Fprintf(out, "  allocators        %8.0f um^2\n", rep.AllocatorUm2)
	fmt.Fprintf(out, "  outVCstate        %8.0f um^2\n", rep.OutVCStateUm2)
	fmt.Fprintf(out, "  router total      %8.0f um^2\n", rep.RouterUm2)
	fmt.Fprintf(out, "  data link (64b)   %8.0f um^2\n", rep.DataLinkUm2)
	fmt.Fprintf(out, "NBTI additions:\n")
	fmt.Fprintf(out, "  %d sensors        %8.0f um^2  -> %.2f%% of router (paper: 3.25%%)\n",
		rep.SensorCount, rep.SensorsUm2, rep.SensorPctOfRouter)
	fmt.Fprintf(out, "  Up_Down+Down_Up   %8.0f um^2  -> %.2f%% of a data link (paper: 3.8%%)\n",
		rep.CtrlLinkUm2, rep.CtrlPctOfDataLink)
	fmt.Fprintf(out, "  policy logic      %8.0f um^2  (paper: negligible)\n", rep.PolicyLogicUm2)
	fmt.Fprintf(out, "  total overhead    %.2f%% of baseline tile (paper: < 4%%)\n",
		rep.TotalPctOfBaseline)
	return text(out.String()), nil
}

// writeCSV writes one table's CSV form into dir.
func writeCSV(dir, name, content string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644)
}

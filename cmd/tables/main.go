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
// -sweep-manifest PATH writes the selected tables' runs, one pending
// unit per distinct spec, as a campaign nbtisweep can shard and resume,
// and exits without simulating; the same command against the campaign's
// cache then regenerates the tables from cache hits alone.
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
	"sync/atomic"
	"time"

	"nbtinoc/cmd/internal/cli"
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

		sweepOut  = fs.String("sweep-manifest", "", "write the selected tables' runs as a pending sweep manifest at this path (run it with nbtisweep) and exit without simulating")
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
	opt := sim.DefaultTableOptions()
	opt.Warmup, opt.Measure, opt.SeedBase = *warmup, *measure, *seed
	opt.Phits = *phits
	if *mesh != "" {
		m, err := sim.ParseMesh(*mesh)
		if err != nil {
			return err
		}
		opt.Meshes = []sim.Mesh{m}
	}
	tables, err := sim.PaperTables(opt, *iters, *years, *wakeup)
	if err != nil {
		return err
	}
	var selected []sim.PaperTable
	for _, t := range tables {
		if *table == "all" || *table == t.ID {
			selected = append(selected, t)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown table %q", *table)
	}
	// -sweep-manifest writes the selected tables' run set as a campaign
	// nbtisweep can shard and resume, and simulates nothing: a later
	// run of the same tables against the campaign's cache is all hits.
	if *sweepOut != "" {
		var specs []sim.Spec
		for _, t := range selected {
			specs = append(specs, t.Specs...)
		}
		m, err := sweep.NewSpecManifest("tables-"+*table, specs)
		if err != nil {
			return err
		}
		return m.Save(*sweepOut)
	}

	store, err := sess.OpenCache()
	if err != nil {
		return err
	}
	all := *table == "all"
	for _, t := range selected {
		phase.Store("table " + t.ID)
		fmt.Fprintln(out, t.Title)
		before := store.Stats()
		start := cli.Now()
		sums, err := sim.Runner{Store: store}.RunAll(t.Specs, *jobs)
		if err != nil {
			return err
		}
		text, csv, err := t.Reduce(sums)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, text)
		if t.CSV != "" && *csvDir != "" {
			if err := writeCSV(*csvDir, t.CSV, csv); err != nil {
				return err
			}
		}
		if all {
			line := fmt.Sprintf("[table %s: %.2fs", t.ID, time.Duration(cli.Now()-start).Seconds())
			if store != nil {
				line += ", cache " + store.Stats().Sub(before).String()
			}
			fmt.Fprintf(out, "%s]\n\n", line)
		}
	}
	if *verbose && store != nil {
		sess.Logf("cache: %s", store.Stats())
	}
	return nil
}

// writeCSV writes one table's CSV form into dir.
func writeCSV(dir, name, content string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644)
}

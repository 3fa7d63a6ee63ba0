// Command nbtisim runs one NoC simulation scenario and reports the
// per-VC NBTI-duty-cycles of a probed input port together with network
// performance statistics.
//
// Examples:
//
//	nbtisim -cores 16 -vcs 4 -policy sensor-wise -rate 0.2
//	nbtisim -cores 4 -vcs 2 -policy rr-no-sensor -workload app -seed 3
//	nbtisim -mesh 32x32 -vcs 4 -policy sensor-wise -cycles 5000
//	nbtisim -trace my.trace -policy sensor-wise -format json
//	nbtisim -config a.json,b.json,c.json -j 0
//
// -config accepts a comma-separated list of scenario files; the
// scenarios run concurrently on a bounded worker pool (-j caps the
// workers, 1 forces sequential) and are reported in input order, so the
// output never depends on the worker count. The aging-snapshot and
// flit-trace flags write per-run files and therefore require a single
// scenario.
//
// Plain scenario runs are memoized in the content-addressed result
// cache (-cache, -cache-dir; -cache=off disables). Modes that need the
// live network — -all-ports, -heatmap, -trace, -aging-in/-aging-out,
// -flit-trace — always simulate.
//
// -cpuprofile, -memprofile and -exectrace write the standard Go runtime
// profiles for the whole run (-trace is taken by flit trace replay).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"nbtinoc/cmd/internal/cli"
	"nbtinoc/internal/core"
	"nbtinoc/internal/metrics"
	"nbtinoc/internal/noc"
	"nbtinoc/internal/sim"
	"nbtinoc/internal/sweep"
	"nbtinoc/internal/traffic"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nbtisim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("nbtisim", flag.ContinueOnError)
	cf := cli.Flags{Prog: "nbtisim"}
	// -trace already means flit-trace replay here, so the runtime
	// execution trace is exposed as -exectrace.
	cf.RegisterProfile(fs, "exectrace")
	cf.RegisterMetrics(fs)
	cf.RegisterCache(fs)
	var (
		cores    = fs.Int("cores", 16, "number of cores (square mesh)")
		mesh     = fs.String("mesh", "", "mesh geometry WxH, e.g. 16x16 or 8x4 (overrides -cores; rectangular allowed)")
		vcs      = fs.Int("vcs", 4, "virtual channels per vnet per input port")
		vnets    = fs.Int("vnets", 1, "virtual networks")
		policy   = fs.String("policy", "sensor-wise", "recovery policy: "+strings.Join(core.Names(), ", "))
		workload = fs.String("workload", "uniform", "workload: uniform, transpose, bit-complement, bit-reverse, shuffle, tornado, neighbor, hotspot, app")
		rate     = fs.Float64("rate", 0.2, "injection rate (flits/cycle/node) for synthetic workloads")
		pktLen   = fs.Int("pktlen", 4, "packet length in flits for synthetic workloads")
		warmup   = fs.Uint64("warmup", 20_000, "warm-up cycles (statistics reset afterwards)")
		measure  = fs.Uint64("cycles", 200_000, "measured cycles")
		seed     = fs.Uint64("seed", 1, "traffic seed")
		pvSeed   = fs.Uint64("pv-seed", 1, "process-variation seed")
		probeStr = fs.String("probe", "0:E", "probed input port as node:port (port in L,N,E,S,W)")
		traceIn  = fs.String("trace", "", "replay a trace file instead of a synthetic workload")
		format   = fs.String("format", "text", "output format: text, csv, json")
		routing  = fs.String("routing", "xy", "routing algorithm: xy, yx, west-first")
		phits    = fs.Int("phits", 1, "link serialization factor (phits per flit)")
		wakeup   = fs.Int("wakeup", 0, "sleep-transistor wake-up latency in cycles")
		tech     = fs.Int("tech", 45, "technology node: 45 or 32 nm")
		cfgPath  = fs.String("config", "", "JSON scenario file(s), comma-separated (overrides the scenario flags)")
		allPorts = fs.Bool("all-ports", false, "dump every router input port as CSV instead of one probe")
		heatmap  = fs.Bool("heatmap", false, "print an ASCII mesh heatmap of per-router worst duty-cycles")
		agingIn  = fs.String("aging-in", "", "restore a JSON aging snapshot before the run (multi-epoch campaigns)")
		agingOut = fs.String("aging-out", "", "write a JSON aging snapshot after the run")
		flitLog  = fs.String("flit-trace", "", "write a flit-level pipeline event trace to this file (large!)")
		jobs     = fs.Int("j", 0, "parallel workers for multi-scenario -config runs: 0 = one per core, 1 = sequential")

		sweepOut = fs.String("sweep-manifest", "", "record every cached scenario into a sweep manifest at this path (replayable with nbtisweep)")
		emitSpec = fs.Bool("emit-spec", false, "print the declarative spec JSON for each scenario and exit without simulating (submittable to nbtisimd)")
		verbose  = fs.Bool("v", false, "print result-cache statistics to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// -v forces a registry so the progress line has counters to read.
	sess, err := cf.Start(*verbose)
	if err != nil {
		return err
	}
	defer sess.Finish(&err)
	if *verbose {
		sess.Progress(&metrics.Progress{JobsDone: sim.MetricJobsDone, JobsTotal: sim.MetricJobsTotal})
	}

	var scens []*sim.Scenario
	if *cfgPath != "" {
		for _, path := range strings.Split(*cfgPath, ",") {
			path = strings.TrimSpace(path)
			if path == "" {
				continue
			}
			scen, err := sim.LoadScenarioFile(path)
			if err != nil {
				return err
			}
			scens = append(scens, scen)
		}
		if len(scens) == 0 {
			return fmt.Errorf("-config %q names no scenario files", *cfgPath)
		}
	} else {
		scen := &sim.Scenario{
			Name:          "cli",
			Cores:         *cores,
			VCs:           *vcs,
			VNets:         *vnets,
			Policy:        *policy,
			TechNode:      *tech,
			Workload:      *workload,
			Rate:          *rate,
			PacketLen:     *pktLen,
			Phits:         *phits,
			WakeupLatency: *wakeup,
			Warmup:        *warmup,
			Measure:       *measure,
			Seed:          *seed,
			PVSeed:        *pvSeed,
		}
		if *mesh != "" {
			m, err := sim.ParseMesh(*mesh)
			if err != nil {
				return err
			}
			scen.Width, scen.Height, scen.Cores = m.Width, m.Height, m.Cores()
		}
		scens = []*sim.Scenario{scen}
	}
	multi := len(scens) > 1
	if multi && (*agingIn != "" || *agingOut != "" || *flitLog != "") {
		return fmt.Errorf("-aging-in, -aging-out and -flit-trace write per-run files and require a single -config scenario")
	}
	probe, err := sim.ParsePortProbe(*probeStr)
	if err != nil {
		return err
	}

	// Modes that inspect the live network (or replay a non-declarative
	// trace generator) cannot be served from the result cache.
	live := *allPorts || *heatmap || *traceIn != "" ||
		*agingIn != "" || *agingOut != "" || *flitLog != ""
	// -emit-spec turns the CLI into a spec authoring tool: the same
	// flag vocabulary, but the output is the declarative request body
	// the nbtisimd daemon accepts instead of a simulation result.
	if *emitSpec && live {
		return fmt.Errorf("-emit-spec serialises declarative specs and cannot combine with live modes (-all-ports, -heatmap, -trace, -aging-in/-out, -flit-trace)")
	}
	// Every scenario compiles to a spec, the one run description: the
	// cached path runs the specs through the Runner, live modes run
	// each spec's RunConfig with their overrides.
	specs := make([]sim.Spec, len(scens))
	for i, scen := range scens {
		if specs[i], err = scen.Spec([]sim.PortProbe{probe}); err != nil {
			return err
		}
		if specs[i].Net.Routing, err = noc.ParseRouting(*routing); err != nil {
			return err
		}
	}
	if *emitSpec {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		for _, spec := range specs {
			if err := enc.Encode(spec); err != nil {
				return err
			}
		}
		return nil
	}
	store, err := sess.OpenCache()
	if err != nil {
		return err
	}
	runner := sim.Runner{Store: store}
	// -sweep-manifest records every cache-keyed scenario this run
	// executes, so a -config batch doubles as a sweep campaign
	// definition nbtisweep can shard and resume.
	var recorder *sweep.Recorder
	if *sweepOut != "" {
		if live {
			return fmt.Errorf("-sweep-manifest records cached scenarios and cannot combine with live modes (-all-ports, -heatmap, -trace, -aging-in/-out, -flit-trace)")
		}
		recorder = sweep.NewRecorder("nbtisim")
		runner.Record = recorder.Record
	}

	runLive := func(spec sim.Spec) (*sim.RunResult, error) {
		rc, err := spec.RunConfig()
		if err != nil {
			return nil, err
		}
		if *traceIn != "" {
			if rc.Gen, err = loadTrace(*traceIn); err != nil {
				return nil, err
			}
		}
		if *agingIn != "" {
			snap, err := loadAging(*agingIn)
			if err != nil {
				return nil, err
			}
			rc.RestoreAging = &snap
		}
		if *flitLog != "" {
			f, err := os.Create(*flitLog)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			bw := bufio.NewWriter(f)
			defer bw.Flush()
			rc.Tracer = &noc.WriterTracer{W: bw}
		}
		res, err := sim.Run(rc, spec.Probes)
		if err != nil {
			return nil, err
		}
		if *agingOut != "" {
			if err := saveAging(*agingOut, res.Net.AgingSnapshot()); err != nil {
				return nil, err
			}
		}
		return res, nil
	}

	// Scenarios execute through the same bounded pool as the table
	// drivers and are rendered sequentially in input order afterwards.
	// The cached path carries only the serialisable summaries; live
	// modes additionally keep the networks for their renderers.
	var sums []*sim.RunSummary
	results := make([]*sim.RunResult, len(specs))
	if live {
		sums = make([]*sim.RunSummary, len(specs))
		err = sim.Pool{Workers: *jobs}.Run(len(specs), func(i int) error {
			res, err := runLive(specs[i])
			if err == nil {
				results[i], sums[i] = res, res.Summary()
			}
			return err
		})
	} else {
		sums, err = runner.RunAll(specs, *jobs)
	}
	if err != nil {
		return err
	}

	for i, sum := range sums {
		if multi {
			fmt.Fprintf(out, "=== scenario %s ===\n", scens[i].Name)
		}
		var err error
		switch {
		case *allPorts:
			err = renderAllPorts(out, results[i])
		case *heatmap:
			err = renderHeatmap(out, results[i])
		default:
			err = render(out, *format, sum)
		}
		if err != nil {
			return err
		}
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

// renderHeatmap prints the mesh as a grid; each tile shows the worst
// (maximum) NBTI-duty-cycle across its router's input VC buffers and a
// coarse shade, making spatial stress hot-spots visible at a glance.
func renderHeatmap(out io.Writer, res *sim.RunResult) error {
	net := res.Net
	cfg := net.Config()
	fmt.Fprintf(out, "worst per-router NBTI-duty-cycle (%%), policy %s, %s\n",
		res.Policy, res.Workload)
	shades := []struct {
		limit float64
		mark  string
	}{{10, "."}, {25, "-"}, {50, "+"}, {75, "#"}, {101, "@"}}
	for y := 0; y < cfg.Height; y++ {
		for x := 0; x < cfg.Width; x++ {
			node := noc.Coord{X: x, Y: y}.NodeOf(cfg.Width)
			worst := 0.0
			r := net.Router(node)
			for p := noc.Port(0); p < noc.NumPorts; p++ {
				if r.Input(p) == nil {
					continue
				}
				for vc := 0; vc < cfg.TotalVCs(); vc++ {
					if d := net.DutyCycle(node, p, vc); d > worst {
						worst = d
					}
				}
			}
			mark := "@"
			for _, sh := range shades {
				if worst < sh.limit {
					mark = sh.mark
					break
				}
			}
			fmt.Fprintf(out, " %s%5.1f", mark, worst)
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintln(out, "shade: . <10%  - <25%  + <50%  # <75%  @ >=75%")
	return nil
}

// loadAging reads a JSON aging snapshot.
func loadAging(path string) (noc.AgingState, error) {
	var st noc.AgingState
	data, err := os.ReadFile(path)
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return st, fmt.Errorf("parsing aging snapshot %s: %w", path, err)
	}
	return st, nil
}

// saveAging writes a JSON aging snapshot.
func saveAging(path string, st noc.AgingState) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(st)
}

// loadTrace builds a replayer from a trace file.
func loadTrace(path string) (traffic.Generator, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	events, err := traffic.ReadTrace(f)
	if err != nil {
		return nil, err
	}
	return traffic.NewReplayer(events), nil
}

// renderAllPorts dumps the duty-cycle of every VC of every router input
// port as CSV — the raw data behind a network-wide aging heatmap.
func renderAllPorts(out io.Writer, res *sim.RunResult) error {
	fmt.Fprintln(out, "node,port,vc,duty_pct,vth0,most_degraded,powered_now")
	net := res.Net
	cfg := net.Config()
	for node := noc.NodeID(0); int(node) < net.Nodes(); node++ {
		r := net.Router(node)
		for p := noc.Port(0); p < noc.NumPorts; p++ {
			iu := r.Input(p)
			if iu == nil {
				continue
			}
			md := net.MostDegradedVC(node, p, 0)
			for vc := 0; vc < cfg.TotalVCs(); vc++ {
				isMD := 0
				if vc == md {
					isMD = 1
				}
				pow := 0
				if iu.Powered(vc) {
					pow = 1
				}
				fmt.Fprintf(out, "%d,%v,%d,%.4f,%.6f,%d,%d\n",
					node, p, vc, net.DutyCycle(node, p, vc),
					net.Vth0(node, p, vc), isMD, pow)
			}
		}
	}
	return nil
}

// render forwards to the shared summary renderer (internal/sim), the
// same code path the nbtisimd result endpoint serves — which is what
// makes the daemon-vs-CLI byte comparison in CI exact.
func render(out io.Writer, format string, res *sim.RunSummary) error {
	return res.Render(out, format)
}

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
// -config accepts a comma-separated list of spec files, as -emit-spec
// writes them (nbtisim -emit-spec ... > s.json; nbtisim -config s.json
// reproduces the flag run byte for byte). The specs run concurrently on
// a bounded worker pool (-j caps the workers, 1 forces sequential) and
// are reported in input order under a "=== spec <path> ===" header, so
// the output never depends on the worker count. The aging-snapshot and
// flit-trace flags write per-run files and therefore require a single
// spec.
//
// -sweep-manifest writes the run set as a pending nbtisweep campaign
// and exits without simulating, as -emit-spec does.
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
		cfgPath  = fs.String("config", "", "JSON spec file(s) as -emit-spec writes them, comma-separated (overrides the scenario, -probe and -routing flags)")
		allPorts = fs.Bool("all-ports", false, "dump every router input port as CSV instead of one probe")
		heatmap  = fs.Bool("heatmap", false, "print an ASCII mesh heatmap of per-router worst duty-cycles")
		agingIn  = fs.String("aging-in", "", "restore a JSON aging snapshot before the run (multi-epoch campaigns)")
		agingOut = fs.String("aging-out", "", "write a JSON aging snapshot after the run")
		flitLog  = fs.String("flit-trace", "", "write a flit-level pipeline event trace to this file (large!)")
		jobs     = fs.Int("j", 0, "parallel workers for multi-spec -config runs: 0 = one per core, 1 = sequential")

		sweepOut = fs.String("sweep-manifest", "", "write the specs as a pending sweep manifest at this path (run it with nbtisweep) and exit without simulating")
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

	// Every run is a spec, the one run description: read from -config
	// files as -emit-spec writes them, or compiled from the scenario
	// flags. The cached path runs the specs through the Runner, live
	// modes run each spec's RunConfig with their overrides.
	var specs []sim.Spec
	var paths []string
	if *cfgPath != "" {
		for _, path := range strings.Split(*cfgPath, ",") {
			path = strings.TrimSpace(path)
			if path == "" {
				continue
			}
			spec, err := loadSpec(path)
			if err != nil {
				return err
			}
			specs = append(specs, spec)
			paths = append(paths, path)
		}
		if len(specs) == 0 {
			return fmt.Errorf("-config %q names no spec files", *cfgPath)
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
		probe, err := sim.ParsePortProbe(*probeStr)
		if err != nil {
			return err
		}
		spec, err := scen.Spec([]sim.PortProbe{probe})
		if err != nil {
			return err
		}
		if spec.Net.Routing, err = noc.ParseRouting(*routing); err != nil {
			return err
		}
		specs = []sim.Spec{spec}
	}
	multi := len(specs) > 1
	if multi && (*agingIn != "" || *agingOut != "" || *flitLog != "") {
		return fmt.Errorf("-aging-in, -aging-out and -flit-trace write per-run files and require a single -config spec")
	}

	// Modes that inspect the live network (or replay a non-declarative
	// trace generator) cannot be served from the result cache.
	live := *allPorts || *heatmap || *traceIn != "" ||
		*agingIn != "" || *agingOut != "" || *flitLog != ""
	// -emit-spec turns the CLI into a spec authoring tool: the same
	// flag vocabulary, but the output is the declarative request body
	// the nbtisimd daemon accepts instead of a simulation result.
	// -sweep-manifest writes the specs as a pending campaign nbtisweep
	// can shard and resume. Neither simulates anything.
	if live && (*emitSpec || *sweepOut != "") {
		return fmt.Errorf("-emit-spec and -sweep-manifest write declarative specs and cannot combine with live modes (-all-ports, -heatmap, -trace, -aging-in/-out, -flit-trace)")
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
	if *sweepOut != "" {
		m, err := sweep.NewSpecManifest("nbtisim", specs)
		if err != nil {
			return err
		}
		return m.Save(*sweepOut)
	}
	store, err := sess.OpenCache()
	if err != nil {
		return err
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

	// Specs execute through the same bounded pool as the table
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
		sums, err = sim.Runner{Store: store}.RunAll(specs, *jobs)
	}
	if err != nil {
		return err
	}

	for i, sum := range sums {
		if multi {
			fmt.Fprintf(out, "=== spec %s ===\n", paths[i])
		}
		var err error
		switch {
		case *allPorts:
			err = renderAllPorts(out, results[i])
		case *heatmap:
			err = renderHeatmap(out, results[i])
		default:
			// The nbtisimd result endpoint serves the same renderer,
			// which makes the daemon-vs-CLI byte comparison exact.
			err = sum.Render(out, *format)
		}
		if err != nil {
			return err
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

// loadSpec reads one spec file, as -emit-spec writes it: strictly
// decoded and validated like a nbtisimd submission body.
func loadSpec(path string) (sim.Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return sim.Spec{}, err
	}
	defer f.Close()
	var spec sim.Spec
	if err = sim.DecodeStrict(f, &spec); err == nil {
		err = spec.Validate()
	}
	if err != nil {
		return sim.Spec{}, fmt.Errorf("spec %s: %w", path, err)
	}
	return spec, nil
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

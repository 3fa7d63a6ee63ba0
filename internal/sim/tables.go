package sim

import (
	"fmt"
	"strings"

	"nbtinoc/internal/cache"
	"nbtinoc/internal/noc"
)

// SyntheticPolicies returns the three policy columns of Tables II and
// III. It returns a fresh slice per call so no caller can mutate a
// shared package-level value.
func SyntheticPolicies() []string {
	return []string{"rr-no-sensor", "sensor-wise-no-traffic", "sensor-wise"}
}

// TableOptions parameterises the synthetic-traffic tables.
type TableOptions struct {
	// Cores lists the evaluated architectures (paper: 4 and 16).
	Cores []int
	// Meshes, when non-empty, overrides Cores with explicit mesh
	// geometries for the synthetic tables (rectangular allowed). The
	// CLIs' -mesh WxH flag sets it; drivers that need the paper's
	// hardwired probe sets (Table IV, the ΔVth analysis) ignore it.
	Meshes []Mesh
	// Rates lists the injection rates in flits/cycle/node
	// (paper: 0.1, 0.2, 0.3).
	Rates []float64
	// PacketLen is the synthetic packet length in flits.
	PacketLen int
	// Warmup and Measure are the window lengths in cycles. The paper
	// runs 30e6 cycles; duty-cycles converge orders of magnitude
	// earlier, so defaults are shorter and both are adjustable.
	Warmup, Measure uint64
	// SeedBase derives the per-scenario PV and traffic seeds.
	SeedBase uint64
	// Phits is the link serialization factor (PhitsPerFlit). The paper's
	// Table I pairs 64-bit flits with 32-bit links, i.e. 2 phits.
	Phits int
	// Parallelism caps the number of scenario simulations executed
	// concurrently: 0 runs one worker per core, 1 runs one worker (one
	// scenario at a time). The produced tables are identical for every
	// setting — each scenario derives its seeds deterministically and
	// owns its network, so no state is shared across workers.
	Parallelism int
	// Cache, when non-nil, memoizes scenario results by content
	// address. Determinism makes the memoization exact, so tables are
	// byte-identical with and without it.
	Cache *cache.Store
	// Record, when non-nil, observes every executed spec (see
	// Runner.Record); perfbench uses it to trace a pass's jobs. Called
	// from worker goroutines, so it must be safe for concurrent use.
	Record func(spec Spec, key string, cached bool)
}

// DefaultTableOptions mirrors the paper's sweep at a laptop-scale
// simulation length: 64-bit flits over 32-bit links (2 phits), uniform
// traffic at 0.1/0.2/0.3 flits/cycle/node on 4- and 16-core meshes.
func DefaultTableOptions() TableOptions {
	return TableOptions{
		Cores:     []int{4, 16},
		Rates:     []float64{0.1, 0.2, 0.3},
		PacketLen: 4,
		Warmup:    20_000,
		Measure:   200_000,
		SeedBase:  1,
		Phits:     2,
	}
}

// meshes returns the evaluated geometries: the explicit Meshes
// override when present, otherwise the square meshes of the Cores list.
func (o TableOptions) meshes() ([]Mesh, error) {
	if len(o.Meshes) > 0 {
		for _, m := range o.Meshes {
			if err := m.Validate(); err != nil {
				return nil, err
			}
		}
		return o.Meshes, nil
	}
	ms := make([]Mesh, 0, len(o.Cores))
	for _, cores := range o.Cores {
		m, err := SquareMesh(cores)
		if err != nil {
			return nil, err
		}
		ms = append(ms, m)
	}
	return ms, nil
}

// A driver is one table's run set, enumerated before anything
// simulates, plus the reduction of the runs' summaries (in spec order)
// into the table, or the error that kept the runs from being
// enumerated. Every Run* function is enumerate → Runner.RunAll →
// reduce, and PaperTables lists the same drivers, so a table's manifest
// and its regeneration can never name different runs.
type driver[T any] struct {
	specs  []Spec
	reduce func(sums []*RunSummary) (T, error)
	err    error
}

// run executes the driver's specs through the runner opt's Cache and
// Record knobs configure, Parallelism wide, and reduces their summaries.
func (d driver[T]) run(opt TableOptions) (T, error) {
	var zero T
	if d.err != nil {
		return zero, d.err
	}
	sums, err := Runner{Store: opt.Cache, Record: opt.Record}.RunAll(d.specs, opt.Parallelism)
	if err != nil {
		return zero, err
	}
	return d.reduce(sums)
}

// syntheticSpec builds the common synthetic scenario shape shared by the
// table and sweep drivers: uniform traffic on a valid mesh, observed at
// the east input port of router 0, with the PV and traffic seeds
// derived deterministically from (SeedBase, tile count, rate) so every
// policy evaluated on a scenario sees the same silicon and the same
// offered load. Drivers edit the returned spec for their extra knobs
// (sensor seeds, buffer depth, wake-up latency, ...).
func (o TableOptions) syntheticSpec(m Mesh, vcs int, rate float64, policy string) Spec {
	cfg := o.netConfig(m, vcs)
	cfg.PVSeed = scenarioSeed(o.SeedBase, m.Cores(), rate, 11)
	return Spec{
		Net:    cfg,
		Policy: PolicySpec{Name: policy},
		Gen: GenSpec{
			Kind:      "synthetic",
			Pattern:   "uniform",
			Width:     m.Width,
			Height:    m.Height,
			Rate:      rate,
			PacketLen: o.PacketLen,
			Seed:      scenarioSeed(o.SeedBase, m.Cores(), rate, 13),
		},
		Warmup:  o.Warmup,
		Measure: o.Measure,
		Probes:  []PortProbe{{Node: 0, Port: noc.East}},
	}
}

// appSpec builds iteration it of the application-mix scenario on a
// cores-tile square mesh, probed at the Table IV ports. Every iteration
// shares one PV seed, so the most degraded VC stays put.
func (o TableOptions) appSpec(cores, vcs, it int, policy string) (Spec, error) {
	probes, err := realProbes(cores)
	if err != nil {
		return Spec{}, err
	}
	m, err := SquareMesh(cores)
	if err != nil {
		return Spec{}, err
	}
	cfg := o.netConfig(m, vcs)
	cfg.PVSeed = scenarioSeed(o.SeedBase, cores, 0.99, 17)
	return Spec{
		Net:    cfg,
		Policy: PolicySpec{Name: policy},
		Gen: GenSpec{Kind: "app", Width: m.Width, Height: m.Height,
			Seed: scenarioSeed(o.SeedBase, cores, float64(it), 23)},
		Warmup:  o.Warmup,
		Measure: o.Measure,
		Probes:  probes,
	}, nil
}

// netConfig is the paper's configuration on a valid mesh, with the
// options' link serialization applied.
func (o TableOptions) netConfig(m Mesh, vcs int) noc.Config {
	cfg := m.config(vcs)
	if o.Phits > 0 {
		cfg.PhitsPerFlit = o.Phits
	}
	return cfg
}

// SyntheticRow is one scenario row of Table II/III.
type SyntheticRow struct {
	Scenario string
	Cores    int
	Rate     float64
	MDVC     int
	// Duty maps policy name to per-VC duty-cycles (percent).
	Duty map[string][]float64
	// Gap is duty(rr-no-sensor, MD VC) − duty(sensor-wise, MD VC): the
	// paper's last column; positive means sensor-wise wins.
	Gap float64
}

// SyntheticTable is a reproduction of Table II (4 VCs) or III (2 VCs).
type SyntheticTable struct {
	VCs      int
	Policies []string
	Rows     []SyntheticRow
}

// scenarioSeed derives a deterministic seed per scenario so that every
// policy sees the same silicon and the same offered traffic.
func scenarioSeed(base uint64, cores int, rate float64, salt uint64) uint64 {
	return base*1_000_003 + uint64(cores)*7919 + uint64(rate*1000)*104729 + salt
}

// RunSyntheticTable reproduces Table II (vcs=4) / Table III (vcs=2):
// uniform traffic on 4- and 16-core meshes at three injection rates,
// observed at the east input port of the upper-left router. Setting
// opt.Meshes swaps the paper's core sweep for explicit geometries
// (e.g. 16x16 or 32x32 scaling studies).
func RunSyntheticTable(vcs int, opt TableOptions) (*SyntheticTable, error) {
	return syntheticDriver(vcs, opt).run(opt)
}

// syntheticDriver enumerates Table II/III: every policy on every
// (mesh, rate) scenario.
func syntheticDriver(vcs int, opt TableOptions) driver[*SyntheticTable] {
	meshes, err := opt.meshes()
	if err != nil {
		return driver[*SyntheticTable]{err: err}
	}
	policies := SyntheticPolicies()
	var specs []Spec
	for _, m := range meshes {
		for _, rate := range opt.Rates {
			for _, policy := range policies {
				specs = append(specs, opt.syntheticSpec(m, vcs, rate, policy))
			}
		}
	}
	return driver[*SyntheticTable]{specs: specs, reduce: func(sums []*RunSummary) (*SyntheticTable, error) {
		tbl := &SyntheticTable{VCs: vcs, Policies: policies}
		next := 0
		for _, m := range meshes {
			for _, rate := range opt.Rates {
				row := SyntheticRow{
					Scenario: fmt.Sprintf("%s-inj%.2f", m.Label(), rate),
					Cores:    m.Cores(),
					Rate:     rate,
					Duty:     make(map[string][]float64, len(policies)),
					MDVC:     -1,
				}
				for _, policy := range policies {
					reading := sums[next].Ports[0]
					next++
					row.Duty[policy] = reading.Duty
					if row.MDVC == -1 {
						row.MDVC = reading.MostDegraded
					} else if row.MDVC != reading.MostDegraded {
						return nil, fmt.Errorf("sim: MD VC differs across policies in %s", row.Scenario)
					}
				}
				row.Gap = row.Duty["rr-no-sensor"][row.MDVC] - row.Duty["sensor-wise"][row.MDVC]
				tbl.Rows = append(tbl.Rows, row)
			}
		}
		return tbl, nil
	}}
}

// Render formats the table in the paper's layout.
func (t *SyntheticTable) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "NBTI-duty-cycle (%%) per VC — %d VCs per input port, uniform traffic\n", t.VCs)
	fmt.Fprintf(&b, "%-16s %-3s", "Scenario", "MD")
	for _, p := range t.Policies {
		fmt.Fprintf(&b, " | %-*s", 8*t.VCs-2, p)
	}
	fmt.Fprintf(&b, " | %s\n", "Gap(rr-sw @MD)")
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "%-16s %-3d", row.Scenario, row.MDVC)
		for _, p := range t.Policies {
			b.WriteString(" |")
			for _, d := range row.Duty[p] {
				fmt.Fprintf(&b, " %6.1f%%", d)
			}
		}
		fmt.Fprintf(&b, " | %6.1f%%\n", row.Gap)
	}
	return b.String()
}

// RealOptions parameterises the Table IV reproduction.
type RealOptions struct {
	// Iterations is the number of random benchmark mixes per scenario
	// (paper: 10).
	Iterations int
	// VCs is the VC count per input port (paper shows 2).
	VCs int
	// Warmup and Measure are the per-iteration window lengths.
	Warmup, Measure uint64
	// SeedBase derives per-scenario PV seeds and per-iteration traffic
	// seeds.
	SeedBase uint64
	// Phits is the link serialization factor (see TableOptions.Phits).
	Phits int
	// Parallelism caps concurrent scenario simulations (see
	// TableOptions.Parallelism): 0 = one worker per core, 1 = one
	// worker. Output is identical for every setting.
	Parallelism int
	// Cache memoizes scenario results (see TableOptions.Cache).
	Cache *cache.Store
	// Record observes every executed spec (see TableOptions.Record).
	Record func(spec Spec, key string, cached bool)
}

// DefaultRealOptions mirrors the paper's methodology at reduced length.
func DefaultRealOptions() RealOptions {
	return RealOptions{
		Iterations: 10,
		VCs:        2,
		Warmup:     10_000,
		Measure:    150_000,
		SeedBase:   1,
		Phits:      2,
	}
}

// RealRow is one router/port row of Table IV.
type RealRow struct {
	Scenario string
	Cores    int
	Probe    PortProbe
	MDVC     int
	// AvgRR/StdRR and AvgSW/StdSW hold per-VC duty-cycle statistics over
	// the iterations for rr-no-sensor and sensor-wise respectively.
	AvgRR, StdRR []float64
	AvgSW, StdSW []float64
	// Gap is avg duty(rr, MD VC) − avg duty(sensor-wise, MD VC).
	Gap float64
}

// RealTable is the Table IV reproduction.
type RealTable struct {
	Iterations int
	VCs        int
	Rows       []RealRow
}

// realProbes returns the rows the paper reports. The paper lists the
// "east input port of the main diagonal routers" for 16 cores; router 15
// sits in the bottom-right corner and has no east neighbour in a 4x4
// mesh, so its west input port is observed instead (documented in
// EXPERIMENTS.md).
func realProbes(cores int) ([]PortProbe, error) {
	switch cores {
	case 4:
		return []PortProbe{
			{Node: 0, Port: noc.East},
			{Node: 1, Port: noc.West},
			{Node: 2, Port: noc.East},
			{Node: 3, Port: noc.West},
		}, nil
	case 16:
		return []PortProbe{
			{Node: 0, Port: noc.East},
			{Node: 5, Port: noc.East},
			{Node: 10, Port: noc.East},
			{Node: 15, Port: noc.West},
		}, nil
	default:
		return nil, fmt.Errorf("sim: no Table IV probe set for %d cores", cores)
	}
}

// RunRealTable reproduces Table IV: random SPLASH2/WCET benchmark mixes,
// one benchmark per core, averaged over Iterations runs. The initial Vth
// draw is held constant across the iterations of a scenario (and across
// the two policies), so the most degraded VC is stable, as in the paper.
func RunRealTable(opt RealOptions) (*RealTable, error) {
	return realDriver(opt).run(opt.tableOptions())
}

// tableOptions carries the run knobs Table IV shares with the synthetic
// drivers.
func (o RealOptions) tableOptions() TableOptions {
	return TableOptions{Warmup: o.Warmup, Measure: o.Measure, SeedBase: o.SeedBase,
		Phits: o.Phits, Parallelism: o.Parallelism, Cache: o.Cache, Record: o.Record}
}

// realDriver enumerates Table IV: both policies on every iteration of
// each architecture's benchmark mix.
func realDriver(opt RealOptions) driver[*RealTable] {
	if opt.Iterations < 1 {
		return driver[*RealTable]{err: fmt.Errorf("sim: %d iterations", opt.Iterations)}
	}
	archs := []int{4, 16}
	policies := []string{"rr-no-sensor", "sensor-wise"}
	topt := opt.tableOptions()
	var specs []Spec
	for _, cores := range archs {
		for it := 0; it < opt.Iterations; it++ {
			for _, policy := range policies {
				spec, err := topt.appSpec(cores, opt.VCs, it, policy)
				if err != nil {
					return driver[*RealTable]{err: err}
				}
				specs = append(specs, spec)
			}
		}
	}
	// The Welford reduction runs sequentially in enumeration order, so
	// it is bit-identical at any Parallelism.
	return driver[*RealTable]{specs: specs, reduce: func(sums []*RunSummary) (*RealTable, error) {
		tbl := &RealTable{Iterations: opt.Iterations, VCs: opt.VCs}
		next := 0
		for _, cores := range archs {
			probes := specs[next].Probes
			type acc struct{ rr, sw []Welford }
			accs := make([]acc, len(probes))
			for i := range accs {
				accs[i] = acc{rr: make([]Welford, opt.VCs), sw: make([]Welford, opt.VCs)}
			}
			mds := make([]int, len(probes))
			for i := range mds {
				mds[i] = -1
			}

			for it := 0; it < opt.Iterations; it++ {
				for _, policy := range policies {
					for pi, reading := range sums[next].Ports {
						if mds[pi] == -1 {
							mds[pi] = reading.MostDegraded
						} else if mds[pi] != reading.MostDegraded {
							return nil, fmt.Errorf("sim: MD VC moved across iterations at %s",
								reading.Probe.Label())
						}
						for vc, d := range reading.Duty {
							if policy == "rr-no-sensor" {
								accs[pi].rr[vc].Add(d)
							} else {
								accs[pi].sw[vc].Add(d)
							}
						}
					}
					next++
				}
			}

			for pi, probe := range probes {
				row := RealRow{
					Scenario: fmt.Sprintf("%dc-%s", cores, probe.Label()),
					Cores:    cores,
					Probe:    probe,
					MDVC:     mds[pi],
				}
				for vc := 0; vc < opt.VCs; vc++ {
					row.AvgRR = append(row.AvgRR, accs[pi].rr[vc].Mean())
					row.StdRR = append(row.StdRR, accs[pi].rr[vc].Std())
					row.AvgSW = append(row.AvgSW, accs[pi].sw[vc].Mean())
					row.StdSW = append(row.StdSW, accs[pi].sw[vc].Std())
				}
				row.Gap = row.AvgRR[row.MDVC] - row.AvgSW[row.MDVC]
				tbl.Rows = append(tbl.Rows, row)
			}
		}
		return tbl, nil
	}}
}

// Render formats Table IV in the paper's layout.
func (t *RealTable) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "NBTI-duty-cycle (%%) avg/std over %d benchmark-mix iterations — %d VCs\n",
		t.Iterations, t.VCs)
	fmt.Fprintf(&b, "%-12s %-3s | %-*s | %-*s | %s\n",
		"Scenario", "MD", 16*t.VCs-2, "rr-no-sensor (avg std per VC)",
		16*t.VCs-2, "sensor-wise (avg std per VC)", "Gap@MD")
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "%-12s %-3d |", row.Scenario, row.MDVC)
		for vc := range row.AvgRR {
			fmt.Fprintf(&b, " %6.1f%% ±%5.1f", row.AvgRR[vc], row.StdRR[vc])
		}
		b.WriteString(" |")
		for vc := range row.AvgSW {
			fmt.Fprintf(&b, " %6.1f%% ±%5.1f", row.AvgSW[vc], row.StdSW[vc])
		}
		fmt.Fprintf(&b, " | %6.1f%%\n", row.Gap)
	}
	return b.String()
}

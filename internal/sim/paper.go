package sim

import (
	"fmt"
	"strings"

	"nbtinoc/internal/area"
)

// PaperTable is one table of the paper's evaluation, or of the
// extensions around it, as cmd/tables regenerates it: the run set,
// enumerated before anything simulates, and the reduction of the runs'
// summaries into the rendered table.
type PaperTable struct {
	// ID is the table's -table name; Title its header line.
	ID, Title string
	// CSV names the file the table's CSV form is written to; empty for
	// tables without one.
	CSV string
	// Specs are the table's runs. Static tables (Table I, area) have
	// none.
	Specs []Spec
	// Reduce renders the table, and its CSV form when CSV is set, from
	// the summaries of Specs in order.
	Reduce func(sums []*RunSummary) (text, csv string, err error)
}

// PaperTables lists every table in regeneration order. opt carries the
// windows, seeds and link serialization of every driver (Table IV takes
// them too, with iters benchmark-mix iterations); years is the ΔVth
// projection horizon and wakeup the sleep-transistor latency of the
// performance sweep. Runs several tables share, such as Table III's
// sensor-wise runs the ΔVth analysis reuses, appear in each table's
// Specs under the same content address.
func PaperTables(opt TableOptions, iters int, years float64, wakeup int) ([]PaperTable, error) {
	ropt := DefaultRealOptions()
	ropt.Iterations = iters
	ropt.Warmup, ropt.Measure, ropt.SeedBase = opt.Warmup, opt.Measure, opt.SeedBase
	ropt.Phits = opt.Phits
	var err error
	tables := []PaperTable{
		{ID: "1", Title: "=== Table I: experimental setup (as realised by this model) ===",
			Reduce: func([]*RunSummary) (string, string, error) { return setupTable(opt.Phits), "", nil }},
		paperTable(&err, "2", "=== Table II: synthetic traffic, 4 VCs ===", "table2.csv",
			syntheticDriver(4, opt)),
		paperTable(&err, "3", "=== Table III: synthetic traffic, 2 VCs ===", "table3.csv",
			syntheticDriver(2, opt)),
		paperTable(&err, "4", "=== Table IV: SPLASH2/WCET benchmark mixes, 2 VCs ===", "table4.csv",
			realDriver(ropt)),
		{ID: "area", Title: "=== Section III-D: area overhead (45 nm, ORION-style model) ===",
			Reduce: areaTable},
		paperTable(&err, "vth", "=== Conclusion: net NBTI ΔVth saving vs non-gated baseline ===", "vth.csv",
			vthDriver(2, years, opt)),
		paperTable(&err, "coop", "=== Conclusion: cooperation (traffic information) ablation ===", "coop.csv",
			coopDriver(2, opt)),
		paperTable(&err, "perf", "=== Extension: NBTI/performance trade-off (16 cores, 4 VCs) ===", "perf.csv",
			perfDriver(16, 4, wakeup, []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3}, opt)),
		paperTable(&err, "power", "=== Extension: router energy and leakage saving (16 cores, 2 VCs) ===", "",
			energyDriver(16, 2, 0.1, opt)),
		paperTable(&err, "sensors", "=== Extension: sensor non-ideality robustness (16 cores, 4 VCs) ===", "",
			sensorDriver(16, 4, 0.1, opt)),
		paperTable(&err, "corners", "=== Extension: lifetime across operating corners (16 cores, 2 VCs) ===", "",
			cornersDriver(16, 2, 0.1, 0.050, []float64{300, 325, 350, 375, 400}, []float64{1.0, 1.1, 1.2}, opt)),
		paperTable(&err, "dse", "=== Extension: design-space exploration (16 cores) ===", "dse.csv",
			dseDriver(16, 0.1, []int{2, 4, 8}, []int{2, 4, 8}, opt)),
		paperTable(&err, "rr", "=== Extension: rr-no-sensor rotation-period study (16 cores, 4 VCs) ===", "",
			rrPeriodDriver(16, 4, 0.1, []uint64{1, 4, 16, 64, 256, 1024}, opt)),
	}
	if err != nil {
		return nil, err
	}
	return tables, nil
}

// paperTable lists a driver as a PaperTable, erasing its table type:
// Reduce renders the typed table and, when it has one, its CSV form. A
// driver that could not enumerate its runs leaves its error in *err
// unless an earlier one is there.
func paperTable[T interface{ Render() string }](err *error, id, title, csvFile string, d driver[T]) PaperTable {
	if d.err != nil && *err == nil {
		*err = d.err
	}
	return PaperTable{ID: id, Title: title, CSV: csvFile, Specs: d.specs,
		Reduce: func(sums []*RunSummary) (string, string, error) {
			t, err := d.reduce(sums)
			if err != nil {
				return "", "", err
			}
			csv := ""
			if c, ok := any(t).(interface{ CSV() string }); ok {
				csv = c.CSV()
			}
			return t.Render(), csv, nil
		}}
}

// setupTable renders the realised counterpart of the paper's Table I.
func setupTable(phits int) string {
	out := new(strings.Builder)
	cfg, _ := BaseConfig(16, 4)
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
	return out.String()
}

// areaTable renders the Section III-D area overheads (a static table:
// it reads no summaries).
func areaTable([]*RunSummary) (string, string, error) {
	rep, err := area.Estimate(area.Default45nm(), area.PaperSpec())
	if err != nil {
		return "", "", err
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
	return out.String(), "", nil
}

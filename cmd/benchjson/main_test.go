package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: nbtinoc
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkTableII           	       1	4674572191 ns/op	        14.91 gap_pts	73962736 B/op	  242180 allocs/op
BenchmarkEngineIdle        	  100000	        41.87 ns/op	        41.85 ns/cycle	       0 B/op	       0 allocs/op
PASS
ok  	nbtinoc	4.679s
`

func TestParseBench(t *testing.T) {
	run, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if run.Goos != "linux" || run.Pkg != "nbtinoc" {
		t.Fatalf("header parse: %+v", run)
	}
	if len(run.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(run.Benchmarks))
	}
	b := run.Benchmarks[0]
	if b.Name != "BenchmarkTableII" || b.Iterations != 1 {
		t.Fatalf("first benchmark: %+v", b)
	}
	if b.NsPerOp != 4674572191 || b.AllocsPerOp != 242180 || b.BytesPerOp != 73962736 {
		t.Fatalf("std units: %+v", b)
	}
	if b.Metrics["gap_pts"] != 14.91 {
		t.Fatalf("custom metric: %+v", b.Metrics)
	}
	if run.Benchmarks[1].Metrics["ns/cycle"] != 41.85 {
		t.Fatalf("ns/cycle metric: %+v", run.Benchmarks[1].Metrics)
	}
}

func TestRunWritesAndAppends(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "bench.json")
	if err := run([]string{"-o", out, "-label", "before"},
		strings.NewReader(sampleBench), os.Stderr); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-o", out, "-label", "after", "-append"},
		strings.NewReader(sampleBench), os.Stderr); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var file File
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Runs) != 2 || file.Runs[0].Label != "before" || file.Runs[1].Label != "after" {
		t.Fatalf("runs after append: %+v", file.Runs)
	}
}

func TestRunReplacesSameLabelInPlace(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "bench.json")
	for _, label := range []string{"before", "abc1234", "after"} {
		if err := run([]string{"-o", out, "-label", label, "-append"},
			strings.NewReader(sampleBench), os.Stderr); err != nil {
			t.Fatal(err)
		}
	}
	// Re-benching the middle label must refresh that run where it sits,
	// not append a fourth, indistinguishable data point.
	faster := strings.ReplaceAll(sampleBench, "4674572191 ns/op", "1674572191 ns/op")
	if err := run([]string{"-o", out, "-label", "abc1234", "-append"},
		strings.NewReader(faster), os.Stderr); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var file File
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Runs) != 3 {
		t.Fatalf("got %d runs, want 3 (same-label run must replace)", len(file.Runs))
	}
	if file.Runs[1].Label != "abc1234" || file.Runs[1].Benchmarks[0].NsPerOp != 1674572191 {
		t.Fatalf("middle run not replaced in place: %+v", file.Runs[1])
	}
	if file.Runs[0].Label != "before" || file.Runs[2].Label != "after" {
		t.Fatalf("neighbouring runs disturbed: %+v", file.Runs)
	}
}

func TestBaselineRegressionFails(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "baseline.json")
	base := File{Runs: []Run{{Label: "pinned", Benchmarks: []Benchmark{
		{Name: "BenchmarkTableII", AllocsPerOp: 100},
		{Name: "BenchmarkEngineIdle", AllocsPerOp: 0},
	}}}}
	data, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(baseline, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Sample has 242180 allocs/op for TableII — far over the 100 pin.
	err = run([]string{"-o", filepath.Join(dir, "out.json"), "-baseline", baseline},
		strings.NewReader(sampleBench), os.Stderr)
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("regression not detected: %v", err)
	}
}

func TestBaselinePassesWithinTolerance(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "baseline.json")
	base := File{Runs: []Run{{Label: "pinned", Benchmarks: []Benchmark{
		{Name: "BenchmarkTableII", AllocsPerOp: 242180},
		{Name: "BenchmarkEngineIdle", AllocsPerOp: 0},
	}}}}
	data, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(baseline, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-o", filepath.Join(dir, "out.json"), "-baseline", baseline},
		strings.NewReader(sampleBench), os.Stderr); err != nil {
		t.Fatal(err)
	}
}

func TestZeroAllocBaselineIsStrict(t *testing.T) {
	base := map[string]Benchmark{"BenchmarkEngineIdle": {Name: "BenchmarkEngineIdle", AllocsPerOp: 0}}
	r := Run{Benchmarks: []Benchmark{{Name: "BenchmarkEngineIdle", AllocsPerOp: 1}}}
	if regs := checkAllocs(r, base, 10); len(regs) != 1 {
		t.Fatalf("zero-alloc baseline not strict: %v", regs)
	}
}

// writeBaseline pins one run with the given benchmarks and returns the
// file path.
func writeBaseline(t *testing.T, dir string, benchmarks ...Benchmark) string {
	t.Helper()
	path := filepath.Join(dir, "baseline.json")
	data, err := json.Marshal(File{Runs: []Run{{Label: "pinned", Benchmarks: benchmarks}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSecOpRegressionFails(t *testing.T) {
	dir := t.TempDir()
	// Sample runs TableII at ~4.67e9 ns/op; a 3e9 pin puts it ~56% over,
	// outside the default 25% band.
	baseline := writeBaseline(t, dir,
		Benchmark{Name: "BenchmarkTableII", NsPerOp: 3e9, AllocsPerOp: 242180},
		Benchmark{Name: "BenchmarkEngineIdle", NsPerOp: 41.87, AllocsPerOp: 0})
	var errBuf strings.Builder
	err := run([]string{"-o", filepath.Join(dir, "out.json"), "-baseline", baseline},
		strings.NewReader(sampleBench), &errBuf)
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("sec/op regression not detected: %v", err)
	}
	if !strings.Contains(errBuf.String(), "sec/op regression: BenchmarkTableII") {
		t.Errorf("regression not named on stderr:\n%s", errBuf.String())
	}
}

func TestSecOpWithinToleranceFlag(t *testing.T) {
	dir := t.TempDir()
	baseline := writeBaseline(t, dir,
		Benchmark{Name: "BenchmarkTableII", NsPerOp: 3e9, AllocsPerOp: 242180},
		Benchmark{Name: "BenchmarkEngineIdle", NsPerOp: 41.87, AllocsPerOp: 0})
	// The same ~56% gap passes when -sec-tol widens the band past it.
	if err := run([]string{"-o", filepath.Join(dir, "out.json"), "-baseline", baseline,
		"-sec-tol", "60"}, strings.NewReader(sampleBench), os.Stderr); err != nil {
		t.Fatal(err)
	}
}

func TestSecOpImprovementWarnsButPasses(t *testing.T) {
	dir := t.TempDir()
	// Pin TableII far slower than the sample: the run is a >25%
	// improvement, which must warn about the stale baseline, not fail.
	baseline := writeBaseline(t, dir,
		Benchmark{Name: "BenchmarkTableII", NsPerOp: 9e9, AllocsPerOp: 242180},
		Benchmark{Name: "BenchmarkEngineIdle", NsPerOp: 41.87, AllocsPerOp: 0})
	var errBuf strings.Builder
	if err := run([]string{"-o", filepath.Join(dir, "out.json"), "-baseline", baseline},
		strings.NewReader(sampleBench), &errBuf); err != nil {
		t.Fatalf("improvement treated as failure: %v", err)
	}
	if !strings.Contains(errBuf.String(), "improvement beyond band") {
		t.Errorf("stale-baseline warning missing:\n%s", errBuf.String())
	}
}

func TestSecOpSkipsUnpinnedZeroAndSubFloor(t *testing.T) {
	base := map[string]Benchmark{
		"BenchmarkZeroPin": {Name: "BenchmarkZeroPin", NsPerOp: 0},
		// 1ms pin, below the 0.1s floor: a 1000x slowdown is still
		// exempt — single-sample micro timings are noise.
		"BenchmarkMicro": {Name: "BenchmarkMicro", NsPerOp: 1e6},
	}
	r := Run{Benchmarks: []Benchmark{
		{Name: "BenchmarkZeroPin", NsPerOp: 100},
		{Name: "BenchmarkNew", NsPerOp: 100},
		{Name: "BenchmarkMicro", NsPerOp: 1e9},
	}}
	regs, imps := checkSecOp(r, base, 25, 0.1)
	if len(regs) != 0 || len(imps) != 0 {
		t.Errorf("zero/unpinned/sub-floor benchmarks flagged: %v %v", regs, imps)
	}
	// With the floor lowered the micro regression is visible again.
	if regs, _ := checkSecOp(r, base, 25, 0.0001); len(regs) != 1 {
		t.Errorf("sub-floor exemption not floor-controlled: %v", regs)
	}
}

// On a multi-core machine `go test -bench` names a benchmark
// BenchmarkX-2; it must still be gated by a BenchmarkX pin.
func TestProcsSuffixMatchesPin(t *testing.T) {
	const multiCore = `cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkX-2           	       1	 200000000 ns/op	     500 B/op	     500 allocs/op
BenchmarkY/case-1-2    	       1	 100000000 ns/op	       0 B/op	       0 allocs/op
PASS
`
	r, err := parseBench(strings.NewReader(multiCore))
	if err != nil {
		t.Fatal(err)
	}
	if r.Procs != 2 || r.Benchmarks[0].Name != "BenchmarkX" || r.Benchmarks[1].Name != "BenchmarkY/case-1" {
		t.Fatalf("suffix not stripped: procs %d, names %q, %q", r.Procs, r.Benchmarks[0].Name, r.Benchmarks[1].Name)
	}
	dir := t.TempDir()
	baseline := writeBaseline(t, dir, Benchmark{Name: "BenchmarkX", NsPerOp: 2e8, AllocsPerOp: 100})
	var errBuf strings.Builder
	err = run([]string{"-o", filepath.Join(dir, "out.json"), "-baseline", baseline},
		strings.NewReader(multiCore), &errBuf)
	if err == nil || !strings.Contains(errBuf.String(), "allocs/op regression: BenchmarkX:") {
		t.Fatalf("BenchmarkX-2 not gated by the BenchmarkX pin: %v\n%s", err, errBuf.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "out.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file File
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if got := file.Runs[0]; got.Procs != 2 || got.Cores < 1 {
		t.Errorf("run recorded procs %d, cores %d", got.Procs, got.Cores)
	}
}

// Without a common suffix (GOMAXPROCS=1) names ending in a number stay
// as they are.
func TestNoProcsSuffixKeepsNames(t *testing.T) {
	r := Run{Benchmarks: []Benchmark{{Name: "BenchmarkRate-16"}, {Name: "BenchmarkX"}}}
	stripProcs(&r)
	if r.Procs != 1 || r.Benchmarks[0].Name != "BenchmarkRate-16" {
		t.Errorf("stripped a name at GOMAXPROCS=1: procs %d, %q", r.Procs, r.Benchmarks[0].Name)
	}
}

// threeCount is `go test -count 3` output: three lines per benchmark,
// the second TableII line an outlier.
const threeCount = `goos: linux
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkTableII-2     	       1	2000000000 ns/op	        14.33 gap_pts	4000000 B/op	    5700 allocs/op
BenchmarkEngineIdle-2  	 1000000	        40.00 ns/op	       0 B/op	       0 allocs/op
BenchmarkTableII-2     	       1	9000000000 ns/op	        14.33 gap_pts	4000100 B/op	    5750 allocs/op
BenchmarkEngineIdle-2  	 1000000	        44.00 ns/op	       0 B/op	       0 allocs/op
BenchmarkTableII-2     	       1	2200000000 ns/op	        14.33 gap_pts	4000200 B/op	    5740 allocs/op
BenchmarkEngineIdle-2  	 2000000	        41.00 ns/op	       0 B/op	       0 allocs/op
PASS
`

func TestCountFoldsRepeatsIntoMedianRow(t *testing.T) {
	r, err := parseBench(strings.NewReader(threeCount))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Benchmarks) != 2 {
		t.Fatalf("folded into %d rows, want 2: %+v", len(r.Benchmarks), r.Benchmarks)
	}
	tbl, idle := r.Benchmarks[0], r.Benchmarks[1]
	if tbl.Name != "BenchmarkTableII" || idle.Name != "BenchmarkEngineIdle" {
		t.Fatalf("rows out of first-appearance order: %q, %q", tbl.Name, idle.Name)
	}
	// TableII: ns/op 2.0e9, 9.0e9, 2.2e9 -> median 2.2e9; deviations
	// 0.2e9, 6.8e9, 0 -> MAD 0.2e9.
	if tbl.Count != 3 || tbl.NsPerOp != 2.2e9 || tbl.NsPerOpMAD != 0.2e9 {
		t.Errorf("TableII fold: count %d, ns/op %g, MAD %g", tbl.Count, tbl.NsPerOp, tbl.NsPerOpMAD)
	}
	if tbl.AllocsPerOp != 5740 || tbl.BytesPerOp != 4000100 || tbl.Iterations != 3 ||
		tbl.Metrics["gap_pts"] != 14.33 {
		t.Errorf("TableII fold medians: %+v", tbl)
	}
	if idle.Count != 3 || idle.NsPerOp != 41 || idle.NsPerOpMAD != 1 || idle.Iterations != 4000000 {
		t.Errorf("EngineIdle fold: %+v", idle)
	}
}

func TestCountGatesSecOpOnMedian(t *testing.T) {
	dir := t.TempDir()
	// A 2.1e9 pin: the median (2.2e9) is within 25%, though the 9e9
	// outlier alone would be a regression.
	baseline := writeBaseline(t, dir,
		Benchmark{Name: "BenchmarkTableII", NsPerOp: 2.1e9, AllocsPerOp: 5740})
	var errBuf strings.Builder
	if err := run([]string{"-o", filepath.Join(dir, "out.json"), "-baseline", baseline},
		strings.NewReader(threeCount), &errBuf); err != nil {
		t.Fatalf("median within band failed the gate: %v\n%s", err, errBuf.String())
	}
	// A 1.5e9 pin puts the median ~47% over: one regression, not three.
	baseline = writeBaseline(t, dir,
		Benchmark{Name: "BenchmarkTableII", NsPerOp: 1.5e9, AllocsPerOp: 5740})
	errBuf.Reset()
	err := run([]string{"-o", filepath.Join(dir, "out.json"), "-baseline", baseline},
		strings.NewReader(threeCount), &errBuf)
	if err == nil || strings.Count(errBuf.String(), "sec/op regression: BenchmarkTableII") != 1 {
		t.Fatalf("median regression not reported exactly once: %v\n%s", err, errBuf.String())
	}
}

// TestBytesOpGate pins the B/op gate: TableII's 73962736 B/op in the
// sample passes a pin within -bytes-tol, fails one 20% lower at the
// default 10% and passes it again at -bytes-tol 25; a zero or missing
// B/op pin gates nothing.
func TestBytesOpGate(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.json")
	gate := func(pin float64, extra ...string) error {
		baseline := writeBaseline(t, dir,
			Benchmark{Name: "BenchmarkTableII", AllocsPerOp: 242180, BytesPerOp: pin},
			Benchmark{Name: "BenchmarkEngineIdle"})
		return run(append([]string{"-o", out, "-baseline", baseline}, extra...),
			strings.NewReader(sampleBench), os.Stderr)
	}
	if err := gate(70_000_000); err != nil {
		t.Fatalf("B/op within 10%% of the pin failed: %v", err)
	}
	if err := gate(61_000_000); err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("B/op 21%% over the pin passed: %v", err)
	}
	if err := gate(61_000_000, "-bytes-tol", "25"); err != nil {
		t.Fatalf("B/op within -bytes-tol 25 failed: %v", err)
	}
	if err := gate(0); err != nil {
		t.Fatalf("a zero B/op pin gated: %v", err)
	}
}

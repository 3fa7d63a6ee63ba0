package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nbtinoc/internal/noc"
	"nbtinoc/internal/sim"
	"nbtinoc/internal/sweep"
)

func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	// Tests default to -cache=off so they never touch the user cache
	// dir; a test passing its own -cache flag later wins.
	if err := run(append([]string{"-cache", "off"}, args...), &buf); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return buf.String()
}

func shortArgs(extra ...string) []string {
	base := []string{"-cores", "4", "-vcs", "2", "-warmup", "500", "-cycles", "5000"}
	return append(base, extra...)
}

// TestSweepManifestRecordsRun: -sweep-manifest records the flag run as
// one unit labelled "cli" and exits without simulating or
// opening the cache; -config specs are labelled with their paths.
func TestSweepManifestRecordsRun(t *testing.T) {
	dir := t.TempDir()
	manifest, cacheDir := filepath.Join(dir, "camp.json"), filepath.Join(dir, "cache")
	if out := runCLI(t, shortArgs("-policy", "sensor-wise",
		"-cache", "rw", "-cache-dir", cacheDir, "-sweep-manifest", manifest)...); out != "" {
		t.Errorf("-sweep-manifest printed a report:\n%s", out)
	}
	if _, err := os.Stat(cacheDir); !os.IsNotExist(err) {
		t.Errorf("-sweep-manifest touched the cache directory (stat: %v)", err)
	}
	m, err := sweep.LoadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	// LoadManifest re-keys every embedded spec, so a loaded unit is
	// ready to run — the nbtisweep contract.
	if len(m.Units) != 1 || m.Units[0].Label != "cli" {
		t.Fatalf("manifest units: %+v", m.Units)
	}

	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	emitSpecFile(t, a, shortArgs("-policy", "rr-no-sensor")...)
	emitSpecFile(t, b, shortArgs("-policy", "sensor-wise")...)
	runCLI(t, "-config", a+","+b, "-sweep-manifest", manifest)
	if m, err = sweep.LoadManifest(manifest); err != nil {
		t.Fatal(err)
	}
	if len(m.Units) != 2 || m.Units[0].Label != a || m.Units[1].Label != b {
		t.Fatalf("-config manifest units: %+v", m.Units)
	}
}

func TestSweepManifestRefusedWithLiveModes(t *testing.T) {
	err := run(shortArgs("-heatmap", "-sweep-manifest", "x.json"), &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "-sweep-manifest") {
		t.Fatalf("want live-mode refusal, got %v", err)
	}
}

func TestTextOutput(t *testing.T) {
	out := runCLI(t, shortArgs("-policy", "sensor-wise")...)
	for _, want := range []string{"policy      sensor-wise", "VC0", "VC1", "latency", "throughput"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
}

func TestJSONOutput(t *testing.T) {
	out := runCLI(t, shortArgs("-policy", "rr-no-sensor", "-format", "json")...)
	var parsed struct {
		Policy    string
		DutyCycle []float64
		Ejected   uint64
	}
	if err := json.Unmarshal([]byte(out), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if parsed.Policy != "rr-no-sensor" || len(parsed.DutyCycle) != 2 {
		t.Errorf("unexpected JSON payload: %+v", parsed)
	}
	if parsed.Ejected == 0 {
		t.Error("no traffic in JSON output")
	}
}

func TestCSVOutput(t *testing.T) {
	out := runCLI(t, shortArgs("-format", "csv")...)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 { // header + 2 VCs
		t.Fatalf("csv lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "policy,workload,probe,vc,duty_pct") {
		t.Errorf("bad csv header: %s", lines[0])
	}
}

func TestAllWorkloads(t *testing.T) {
	for _, w := range []string{"uniform", "transpose", "bit-complement", "bit-reverse",
		"shuffle", "tornado", "neighbor", "hotspot", "app"} {
		if out := runCLI(t, shortArgs("-workload", w)...); !strings.Contains(out, "duty") {
			t.Errorf("workload %s produced no duty output", w)
		}
	}
}

func TestBadFlagsRejected(t *testing.T) {
	cases := [][]string{
		shortArgs("-policy", "bogus"),
		shortArgs("-workload", "spiral"),
		shortArgs("-probe", "0"),
		shortArgs("-probe", "x:E"),
		shortArgs("-probe", "0:Q"),
		shortArgs("-format", "xml"),
		shortArgs("-routing", "zigzag"),
		{"-cores", "0"},
		{"-cores", "5"},
		shortArgs("-trace", "/nonexistent/file.trace"),
	}
	for _, args := range cases {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestProbeParsing(t *testing.T) {
	p, err := sim.ParsePortProbe("3:w")
	if err != nil {
		t.Fatal(err)
	}
	if p.Node != 3 || p.Port != noc.West {
		t.Errorf("ParsePortProbe = %+v", p)
	}
}

func TestTraceReplayPath(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.trace")
	content := "# trace\n10 0 3 0 4\n20 1 2 0 4\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	// Zero warm-up so the two early trace events fall inside the
	// measured window (warm-up resets the traffic statistics).
	out := runCLI(t, "-cores", "4", "-vcs", "2", "-warmup", "0", "-cycles", "5000",
		"-trace", path)
	if !strings.Contains(out, "trace-replay") {
		t.Errorf("trace workload not reported:\n%s", out)
	}
	if !strings.Contains(out, "2 injected, 2 ejected") {
		t.Errorf("trace packets not delivered:\n%s", out)
	}
}

func TestPhitsAndWakeupFlags(t *testing.T) {
	out := runCLI(t, shortArgs("-phits", "2", "-wakeup", "2", "-policy", "sensor-wise")...)
	if !strings.Contains(out, "sensor-wise") {
		t.Errorf("run with phits/wakeup failed:\n%s", out)
	}
}

func TestAllPortsCSV(t *testing.T) {
	out := runCLI(t, shortArgs("-all-ports")...)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "node,port,vc,duty_pct,vth0,most_degraded,powered_now" {
		t.Fatalf("bad header: %s", lines[0])
	}
	// 2x2 mesh: corner routers have L + 2 mesh inputs = 3 ports x 2 VCs
	// = 6 rows each, 4 routers = 24 rows + header.
	if len(lines) != 25 {
		t.Fatalf("rows = %d, want 25", len(lines))
	}
	mdCount := 0
	for _, l := range lines[1:] {
		cols := strings.Split(l, ",")
		if len(cols) != 7 {
			t.Fatalf("bad row %q", l)
		}
		if cols[5] == "1" {
			mdCount++
		}
	}
	if mdCount != 12 { // one MD VC per port
		t.Errorf("md markers = %d, want 12", mdCount)
	}
}

// emitSpec decodes the spec -emit-spec prints for the flags.
func emitSpec(t *testing.T, flags ...string) sim.Spec {
	t.Helper()
	var spec sim.Spec
	if err := sim.DecodeStrict(strings.NewReader(runCLI(t, append(flags, "-emit-spec")...)), &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestEmitSpecGolden pins the spec the flags compile to, byte for byte:
// the defaults and each flag with a compile rule of its own. The golden
// was written by the scenario compiler this one replaced, so flag runs
// keep their cache keys. Regenerate for an intentional change with the
// flag sets listed in its headers.
func TestEmitSpecGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "emit_spec.golden"))
	if err != nil {
		t.Fatal(err)
	}
	sections := strings.Split(string(data), "=== nbtisim")[1:]
	if len(sections) != 9 {
		t.Fatalf("golden holds %d flag sets, want 9", len(sections))
	}
	for _, sec := range sections {
		header, want, _ := strings.Cut(sec, " -emit-spec ===\n")
		flags := strings.Fields(header)
		name := strings.Join(flags, "_")
		if name == "" {
			name = "defaults"
		}
		t.Run(name, func(t *testing.T) {
			if got := runCLI(t, append(flags, "-emit-spec")...); got != want {
				t.Errorf("nbtisim %v -emit-spec:\n got %s\nwant %s", flags, got, want)
			}
		})
	}
}

// TestFlagSpecKeysLikeTableSpec: a uniform run keys the same whether a
// table driver or the nbtisim flags describe it, so both share one
// cache entry.
func TestFlagSpecKeysLikeTableSpec(t *testing.T) {
	opt := sim.DefaultTableOptions()
	opt.Cores, opt.Rates = []int{4}, []float64{0.1}
	opt.Warmup, opt.Measure = 500, 5000
	tables, err := sim.PaperTables(opt, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var want *sim.Spec
	for _, tbl := range tables {
		for i, spec := range tbl.Specs {
			if tbl.ID == "3" && spec.Policy.Name == "sensor-wise" {
				want = &tbl.Specs[i]
			}
		}
	}
	if want == nil {
		t.Fatal("Table III has no sensor-wise run")
	}
	got := emitSpec(t, "-cores", "4", "-vcs", "2", "-policy", "sensor-wise", "-rate", "0.1",
		"-phits", "2", "-warmup", "500", "-cycles", "5000",
		"-seed", fmt.Sprint(want.Gen.Seed), "-pv-seed", fmt.Sprint(want.Net.PVSeed))
	gk, err := sim.SpecKey(got)
	if err != nil {
		t.Fatal(err)
	}
	if wk, err := sim.SpecKey(*want); err != nil || gk != wk {
		t.Errorf("flag spec keys %s, table spec %s (%v):\n%+v\n%+v", gk[:12], wk, err, got, *want)
	}
	// Only the hotspot pattern carries the hotspot knobs.
	if hot := emitSpec(t, shortArgs("-workload", "hotspot")...); hot.Gen.HotspotFraction != 0.3 {
		t.Errorf("hotspot flag run: fraction %v", hot.Gen.HotspotFraction)
	}
}

// TestFlagSpecErrors: a bad flag run is refused with the field-tagged
// SpecErrors a nbtisimd submission of the same run gets.
func TestFlagSpecErrors(t *testing.T) {
	for field, flags := range map[string][]string{
		"net":         {"-vcs", "0"},
		"measure":     {"-cycles", "0"},
		"gen.kind":    {"-workload", "req-resp", "-vnets", "1"},
		"gen.pattern": {"-workload", "spiral"},
		"policy.name": {"-policy", "bogus"},
	} {
		err := run(append(shortArgs(flags...), "-emit-spec"), &bytes.Buffer{})
		var errs sim.SpecErrors
		if !errors.As(err, &errs) || errs[0].Field != field {
			t.Errorf("%v: error %v, want SpecErrors tagged %s", flags, err, field)
		}
	}
}

// emitSpecFile writes the spec -emit-spec prints for the flags to path.
func emitSpecFile(t *testing.T, path string, flags ...string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(runCLI(t, append(flags, "-emit-spec")...)), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestScenarioConfigFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.json")
	emitSpecFile(t, path, shortArgs("-policy", "rr-no-sensor", "-rate", "0.1")...)
	// The spec file carries the whole run: the scenario flags given
	// beside -config do not apply.
	out := runCLI(t, "-config", path, "-policy", "sensor-wise")
	if !strings.Contains(out, "rr-no-sensor") {
		t.Errorf("config file policy not used:\n%s", out)
	}
}

// TestEmitSpecConfigRoundTrip: a spec -emit-spec writes runs under
// -config to exactly the bytes of the flag run it was emitted from.
func TestEmitSpecConfigRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for i, flags := range [][]string{
		shortArgs("-policy", "sensor-wise", "-format", "json"),
		shortArgs("-workload", "hotspot", "-routing", "yx", "-probe", "1:W"),
		{"-mesh", "4x2", "-vcs", "2", "-vnets", "2", "-workload", "req-resp", "-rate", "0.02",
			"-tech", "32", "-phits", "2", "-wakeup", "1", "-warmup", "500", "-cycles", "5000", "-format", "csv"},
	} {
		path := filepath.Join(dir, fmt.Sprintf("s%d.json", i))
		emitSpecFile(t, path, flags...)
		var format []string
		if n := len(flags); flags[n-2] == "-format" {
			format = flags[n-2:]
		}
		want := runCLI(t, flags...)
		if got := runCLI(t, append([]string{"-config", path}, format...)...); got != want {
			t.Errorf("flags %v: -config run differs from the flag run:\n--- flags\n%s\n--- config\n%s",
				flags, want, got)
		}
	}
}

// rejectBadSpecs writes each bad variant of a valid emitted spec file
// and checks that -config refuses it with an error naming the file.
func rejectBadSpecs(t *testing.T, variants func(spec string) map[string]string) {
	t.Helper()
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	emitSpecFile(t, good, shortArgs()...)
	spec, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	for name, content := range variants(string(spec)) {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		err := run([]string{"-cache", "off", "-config", path}, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("%s spec file: error %v, want one naming %s", name, err, path)
		}
	}
}

// TestConfigRejectsUnknownFields: -config decodes strictly, so a
// misspelled field is refused rather than defaulted, and validates like
// a nbtisimd submission.
func TestConfigRejectsUnknownFields(t *testing.T) {
	rejectBadSpecs(t, func(spec string) map[string]string {
		return map[string]string{
			"unknown": strings.Replace(spec, `"warmup"`, `"bogus": 1, "warmup"`, 1),
			"invalid": strings.Replace(spec, `"measure": 5000`, `"measure": 0`, 1),
		}
	})
}

// TestConfigRejectsGarbage: a -config file that is not one JSON spec —
// not JSON at all, or a spec followed by a second object — is refused,
// and so is a missing file.
func TestConfigRejectsGarbage(t *testing.T) {
	rejectBadSpecs(t, func(spec string) map[string]string {
		return map[string]string{
			"garbage":  "not json",
			"trailing": spec + spec,
		}
	})
	if err := run([]string{"-cache", "off", "-config", filepath.Join(t.TempDir(), "missing.json")}, &bytes.Buffer{}); err == nil {
		t.Error("missing spec file accepted")
	}
}

func TestMultiScenarioConfig(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "first.json"), filepath.Join(dir, "second.json")
	emitSpecFile(t, a, shortArgs("-policy", "rr-no-sensor", "-rate", "0.1")...)
	emitSpecFile(t, b, shortArgs("-policy", "sensor-wise", "-rate", "0.1")...)

	out := runCLI(t, "-config", a+","+b, "-j", "2")
	// Headers name the files, in input order regardless of completion
	// order.
	iA := strings.Index(out, "=== spec "+a+" ===")
	iB := strings.Index(out, "=== spec "+b+" ===")
	if iA < 0 || iB < 0 || iA > iB {
		t.Fatalf("spec headers missing or out of order:\n%s", out)
	}
	if !strings.Contains(out, "rr-no-sensor") || !strings.Contains(out, "sensor-wise") {
		t.Errorf("per-spec policies not reported:\n%s", out)
	}

	// Output must not depend on the worker count.
	if seq := runCLI(t, "-config", a+","+b, "-j", "1"); seq != out {
		t.Errorf("-j 1 and -j 2 outputs differ:\n--- j=2\n%s\n--- j=1\n%s", out, seq)
	}

	// Per-run file flags are single-spec only.
	for _, extra := range []string{"-aging-out", "-aging-in", "-flit-trace"} {
		args := []string{"-config", a + "," + b, extra, filepath.Join(dir, "x")}
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("%s accepted with multiple specs", extra)
		}
	}
}

func TestMeshFlag(t *testing.T) {
	// A rectangular geometry runs end to end.
	out := runCLI(t, "-mesh", "4x2", "-vcs", "2", "-warmup", "500", "-cycles", "5000")
	if !strings.Contains(out, "duty") || !strings.Contains(out, "ejected") {
		t.Errorf("rectangular mesh run incomplete:\n%s", out)
	}
	// A square -mesh is exactly the -cores shorthand.
	square := runCLI(t, "-mesh", "3x3", "-vcs", "2", "-warmup", "500", "-cycles", "5000")
	cores := runCLI(t, "-cores", "9", "-vcs", "2", "-warmup", "500", "-cycles", "5000")
	if square != cores {
		t.Errorf("-mesh 3x3 and -cores 9 outputs differ:\n--- mesh\n%s\n--- cores\n%s",
			square, cores)
	}
	// The geometry reaches both the network and the generator.
	spec := emitSpec(t, "-mesh", "8x4", "-vcs", "2", "-cycles", "1000")
	if spec.Net.Width != 8 || spec.Net.Height != 4 || spec.Gen.Width != 8 || spec.Gen.Height != 4 {
		t.Errorf("-mesh 8x4: net %dx%d, gen %dx%d",
			spec.Net.Width, spec.Net.Height, spec.Gen.Width, spec.Gen.Height)
	}
	// Malformed geometries are rejected.
	for _, bad := range []string{"4", "0x4", "4x-1", "axb"} {
		if err := run([]string{"-mesh", bad, "-cycles", "100"}, &bytes.Buffer{}); err == nil {
			t.Errorf("-mesh %q accepted", bad)
		}
	}
}

// TestMesh32Golden pins a 32×32 run (1024 routers) byte-for-byte: the
// flat-arena engine's largest supported scaling point completes and
// stays deterministic. Regenerate for an intentional output change:
//
//	go run ./cmd/nbtisim -mesh 32x32 -vcs 2 -policy sensor-wise -rate 0.05 \
//	  -warmup 100 -cycles 1000 > cmd/nbtisim/testdata/golden_mesh32.txt
func TestMesh32Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 1100 cycles of a 1024-router mesh")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden_mesh32.txt"))
	if err != nil {
		t.Fatal(err)
	}
	got := runCLI(t, "-mesh", "32x32", "-vcs", "2", "-policy", "sensor-wise",
		"-rate", "0.05", "-warmup", "100", "-cycles", "1000")
	if got != string(want) {
		t.Errorf("32x32 output diverged from golden_mesh32.txt:\n--- want\n%s\n--- got\n%s",
			want, got)
	}
}

func TestTechFlag(t *testing.T) {
	out45 := runCLI(t, shortArgs("-tech", "45", "-format", "json")...)
	out32 := runCLI(t, shortArgs("-tech", "32", "-format", "json")...)
	if out45 == out32 {
		t.Error("tech node flag had no effect")
	}
	// The corner sets the paper's Vth0 in both the PV draw and the
	// aging model: 0.180 V at 45 nm, 0.160 V at 32 nm.
	for tech, vth := range map[string]float64{"45": 0.180, "32": 0.160} {
		spec := emitSpec(t, shortArgs("-tech", tech)...)
		if spec.Net.PV.MeanVth != vth || spec.Net.NBTI.Vth0 != vth {
			t.Errorf("-tech %s: PV mean Vth0 %v, model Vth0 %v, want %v",
				tech, spec.Net.PV.MeanVth, spec.Net.NBTI.Vth0, vth)
		}
	}
	if err := run(shortArgs("-tech", "28"), &bytes.Buffer{}); err == nil {
		t.Error("unsupported tech node accepted")
	}
}

func TestAgingSnapshotFlags(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "aging.json")
	// Epoch 1: heavy uniform traffic, snapshot at the end.
	runCLI(t, "-cores", "4", "-vcs", "2", "-warmup", "0", "-cycles", "5000",
		"-rate", "0.3", "-policy", "rr-no-sensor", "-aging-out", snap)
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	// Epoch 2: restore and continue under a different policy.
	out := runCLI(t, "-cores", "4", "-vcs", "2", "-warmup", "0", "-cycles", "5000",
		"-rate", "0.05", "-policy", "sensor-wise", "-aging-in", snap)
	if !strings.Contains(out, "sensor-wise") {
		t.Errorf("epoch 2 failed:\n%s", out)
	}
	// Restoring into a mismatched architecture must fail.
	if err := run([]string{"-cores", "16", "-vcs", "4", "-cycles", "100",
		"-aging-in", snap}, &bytes.Buffer{}); err == nil {
		t.Error("mismatched snapshot accepted")
	}
}

func TestHeatmap(t *testing.T) {
	out := runCLI(t, shortArgs("-heatmap", "-workload", "hotspot")...)
	if !strings.Contains(out, "worst per-router") || !strings.Contains(out, "shade:") {
		t.Errorf("heatmap output malformed:\n%s", out)
	}
	// 2x2 mesh: exactly 2 grid rows between header and legend.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("heatmap lines = %d, want 4:\n%s", len(lines), out)
	}
}

func TestFlitTraceFlag(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "flits.txt")
	runCLI(t, "-cores", "4", "-vcs", "2", "-warmup", "0", "-cycles", "2000",
		"-rate", "0.1", "-flit-trace", path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ev=INJECT", "ev=EJECT", "ev=ST"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("flit trace missing %q", want)
		}
	}
}

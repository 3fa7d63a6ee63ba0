package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nbtinoc/internal/sweep"
)

// TestMain doubles as the worker entry point: the coordinator spawns
// os.Executable() — in tests, this test binary — with "worker" argv, so
// the dispatch here mirrors main() and the e2e tests below exercise the
// real multi-process topology.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		if err := runWorker(os.Args[2:]); err != nil {
			os.Stderr.WriteString("worker: " + err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const testGridJSON = `{
  "name": "e2e",
  "base": {
    "name": "e2e",
    "cores": 4,
    "vcs": 1,
    "policy": "baseline",
    "workload": "uniform",
    "rate": 0.1,
    "warmup": 200,
    "measure": 2000,
    "seed": 1,
    "pv_seed": 1
  },
  "axes": {
    "policies": ["baseline", "sensor-wise"],
    "rates": [0.1, 0.2]
  },
  "probes": ["0:E"]
}
`

// writeGrid drops the shared test grid into dir and returns its path.
func writeGrid(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "grid.json")
	if err := os.WriteFile(path, []byte(testGridJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// sweepRun invokes the CLI's run() and returns the report bytes.
func sweepRun(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(args, &out)
	return out.String(), err
}

func TestSweepByteIdenticalAcrossTopologies(t *testing.T) {
	if testing.Short() {
		t.Skip("execs worker processes")
	}
	dir := t.TempDir()
	grid := writeGrid(t, dir)

	// Reference: single process, sequential pool.
	refCache := filepath.Join(dir, "cache-ref")
	ref, err := sweepRun(t, "-grid", grid, "-cache-dir", refCache, "-procs", "1", "-j", "1")
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if !strings.HasPrefix(ref, "# nbtinoc sweep e2e ") {
		t.Fatalf("report header missing: %q", ref[:min(len(ref), 60)])
	}

	for _, procs := range []string{"2", "3"} {
		cacheDir := filepath.Join(dir, "cache-"+procs)
		manifest := filepath.Join(dir, "camp-"+procs+".json")
		got, err := sweepRun(t, "-grid", grid, "-manifest", manifest,
			"-cache-dir", cacheDir, "-procs", procs)
		if err != nil {
			t.Fatalf("procs=%s: %v", procs, err)
		}
		if got != ref {
			t.Errorf("procs=%s: report differs from single-process reference\nref:\n%s\ngot:\n%s",
				procs, ref, got)
		}
	}
}

func TestSweepKillThenResumeMatchesUninterrupted(t *testing.T) {
	if testing.Short() {
		t.Skip("execs worker processes")
	}
	dir := t.TempDir()
	grid := writeGrid(t, dir)

	refCache := filepath.Join(dir, "cache-ref")
	ref, err := sweepRun(t, "-grid", grid, "-cache-dir", refCache, "-procs", "1", "-j", "1")
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	cacheDir := filepath.Join(dir, "cache-killed")
	manifest := filepath.Join(dir, "camp-killed.json")
	// Worker 0 dies after one unit, so the round must fail. The survivor
	// runs the rest of the pending list, taking over any claim the dead
	// worker abandoned once the short lease expires.
	out, err := sweepRun(t, "-grid", grid, "-manifest", manifest, "-cache-dir", cacheDir,
		"-procs", "2", "-lease-ttl", "1s", "-kill-worker", "0", "-kill-after", "1")
	if err == nil {
		t.Fatal("killed campaign reported success")
	}
	if out != "" {
		t.Fatalf("killed campaign emitted report bytes: %q", out)
	}
	m, err := sweep.LoadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if pending, done, failed := m.Counts(); pending != 0 || failed != 0 || done != len(m.Units) {
		t.Fatalf("after kill want the survivor to finish every unit, got %d pending %d done %d failed",
			pending, done, failed)
	}

	// Resume from the manifest alone — no -grid needed.
	got, err := sweepRun(t, "-manifest", manifest, "-cache-dir", cacheDir, "-procs", "1")
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got != ref {
		t.Errorf("resumed report differs from uninterrupted reference\nref:\n%s\ngot:\n%s", ref, got)
	}
}

// TestSweepLeavesOnlyManifestAndCache: a campaign round hands work to
// its workers over stdin/stdout, so it leaves behind only what it was
// asked to keep — the manifest and the cache — and nothing under
// TMPDIR, with or without a manifest.
func TestSweepLeavesOnlyManifestAndCache(t *testing.T) {
	if testing.Short() {
		t.Skip("execs worker processes")
	}
	dir := t.TempDir()
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	grid := writeGrid(t, dir)
	manifest := filepath.Join(dir, "camp.json")
	// Each round gets a cold cache, so both really hand out work.
	for _, args := range [][]string{
		{"-grid", grid, "-cache-dir", filepath.Join(dir, "cache-a"), "-procs", "2"},
		{"-grid", grid, "-manifest", manifest, "-cache-dir", filepath.Join(dir, "cache-b"), "-procs", "2"},
	} {
		if _, err := sweepRun(t, args...); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	// No scratch directory under TMPDIR and no <manifest>.work next to
	// the manifest: the two listings below must hold nothing else.
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Errorf("campaign left %d entries under TMPDIR, first %s", len(left), left[0].Name())
	}
	var names []string
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if got := strings.Join(names, " "); got != "cache-a cache-b camp.json grid.json" {
		t.Errorf("campaign directory holds %q, want the grid, the manifest and the cache", got)
	}
}

func TestSweepStatusAndFlagErrors(t *testing.T) {
	dir := t.TempDir()
	grid := writeGrid(t, dir)
	manifest := filepath.Join(dir, "camp.json")

	// No grid, no manifest.
	if _, err := sweepRun(t); err == nil {
		t.Error("want error without -grid or -manifest")
	}
	// Manifest path that does not exist and no grid to create it.
	if _, err := sweepRun(t, "-manifest", manifest); err == nil {
		t.Error("want error for missing manifest without -grid")
	}
	// -status needs -manifest.
	if _, err := sweepRun(t, "-status"); err == nil {
		t.Error("want error for -status without -manifest")
	}

	// A real campaign, then -status over its manifest.
	cacheDir := filepath.Join(dir, "cache")
	if _, err := sweepRun(t, "-grid", grid, "-manifest", manifest, "-cache-dir", cacheDir, "-procs", "1"); err != nil {
		t.Fatal(err)
	}
	out, err := sweepRun(t, "-manifest", manifest, "-status")
	if err != nil {
		t.Fatal(err)
	}
	want := "campaign e2e: 4 units: 4 done, 0 failed, 0 pending\n"
	if out != want {
		t.Errorf("status = %q, want %q", out, want)
	}

	// The grid's campaign is NewManifest over its expanded points.
	g, err := sweep.LoadGridFile(grid)
	if err != nil {
		t.Fatal(err)
	}
	labels, specs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := sweep.NewManifest(g.Name, labels, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fresh.Units {
		fresh.Units[i].State = sweep.UnitDone
	}
	if m, err := sweep.LoadManifest(manifest); err != nil {
		t.Fatal(err)
	} else if !reflect.DeepEqual(m, fresh) {
		t.Errorf("grid campaign manifest differs from NewManifest over the expansion:\n got %+v\nwant %+v", m, fresh)
	}

	// Resuming with a drifted grid is refused.
	drifted := strings.Replace(testGridJSON, "0.2", "0.3", 1)
	driftPath := filepath.Join(dir, "drift.json")
	if err := os.WriteFile(driftPath, []byte(drifted), 0o644); err != nil {
		t.Fatal(err)
	}
	// So is a grid that expands to the same units under another name.
	renamed := strings.Replace(testGridJSON, `"name": "e2e"`, `"name": "other"`, 1)
	renamePath := filepath.Join(dir, "renamed.json")
	if err := os.WriteFile(renamePath, []byte(renamed), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, g := range []string{driftPath, renamePath} {
		if _, err := sweepRun(t, "-grid", g, "-manifest", manifest, "-cache-dir", cacheDir); err == nil {
			t.Errorf("%s: want error resuming with a different grid", g)
		} else if !strings.Contains(err.Error(), "does not match manifest") {
			t.Errorf("%s: drift error = %v", g, err)
		}
	}
	// The grid the campaign started from resumes it.
	if _, err := sweepRun(t, "-grid", grid, "-manifest", manifest, "-cache-dir", cacheDir); err != nil {
		t.Errorf("resuming with the campaign's own grid: %v", err)
	}
}

func TestSweepEngineVersionFlag(t *testing.T) {
	out, err := sweepRun(t, "-engine-version")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "nbtinoc-engine-") {
		t.Errorf("engine version = %q", out)
	}
}

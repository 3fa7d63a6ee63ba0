package main

import (
	"bytes"
	"os"
	"path/filepath"
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

// testGridJSON is the sweep package's test grid, 2 policies x 2 rates
// on a 2x2 mesh, under the campaign name e2e.
func testGridJSON(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "internal", "sweep", "testdata", "test.grid.json"))
	if err != nil {
		t.Fatal(err)
	}
	return strings.Replace(string(data), `"name": "t"`, `"name": "e2e"`, 1)
}

// writeGrid drops the shared test grid into dir and returns its path.
func writeGrid(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "grid.json")
	if err := os.WriteFile(path, []byte(testGridJSON(t)), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// gridManifestBytes returns the bytes a campaign created from the
// shared test grid writes to its manifest: the grid's campaign, saved
// once.
func gridManifestBytes(t *testing.T, grid string) []byte {
	t.Helper()
	m, err := sweep.LoadGridFile(grid)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "want.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// checkManifestBytes fails unless the manifest at path still holds
// want: a campaign writes its manifest once and never rewrites it.
func checkManifestBytes(t *testing.T, path string, want []byte) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("manifest %s changed after creation:\n got %s\nwant %s", path, got, want)
	}
}

// status runs -status over manifest against cacheDir and checks its
// output line.
func status(t *testing.T, manifest, cacheDir, want string) {
	t.Helper()
	out, err := sweepRun(t, "-manifest", manifest, "-cache-dir", cacheDir, "-status")
	if err != nil {
		t.Fatal(err)
	}
	if out != want {
		t.Errorf("status = %q, want %q", out, want)
	}
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
	created := gridManifestBytes(t, grid)
	checkManifestBytes(t, manifest, created)
	status(t, manifest, cacheDir, "campaign e2e: 4 units: 4 done, 0 pending\n")

	// Resume from the manifest alone — no -grid needed.
	got, err := sweepRun(t, "-manifest", manifest, "-cache-dir", cacheDir, "-procs", "1")
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got != ref {
		t.Errorf("resumed report differs from uninterrupted reference\nref:\n%s\ngot:\n%s", ref, got)
	}
	checkManifestBytes(t, manifest, created)
	status(t, manifest, cacheDir, "campaign e2e: 4 units: 4 done, 0 pending\n")
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

	// A real campaign, then -status over its manifest and cache. The
	// grid's campaign is NewManifest over its expanded points, saved
	// once: running it does not change the file.
	cacheDir := filepath.Join(dir, "cache")
	if _, err := sweepRun(t, "-grid", grid, "-manifest", manifest, "-cache-dir", cacheDir, "-procs", "1"); err != nil {
		t.Fatal(err)
	}
	status(t, manifest, cacheDir, "campaign e2e: 4 units: 4 done, 0 pending\n")
	created := gridManifestBytes(t, grid)
	checkManifestBytes(t, manifest, created)

	// Resuming with a drifted grid is refused.
	drifted := strings.Replace(testGridJSON(t), "0.2\n", "0.3\n", 1)
	if drifted == testGridJSON(t) {
		t.Fatal("rate axis not edited")
	}
	driftPath := filepath.Join(dir, "drift.json")
	if err := os.WriteFile(driftPath, []byte(drifted), 0o644); err != nil {
		t.Fatal(err)
	}
	// So is a grid that expands to the same units under another name.
	renamed := strings.Replace(testGridJSON(t), `"name": "e2e"`, `"name": "other"`, 1)
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
	checkManifestBytes(t, manifest, created)

	// A manifest of an older schema, which journalled unit state, is
	// refused with the way to regenerate it.
	legacy := bytes.ReplaceAll(bytes.Replace(created, []byte(`"schema": 2`), []byte(`"schema": 1`), 1),
		[]byte(`"label":`), []byte(`"state": "done", "label":`))
	legacyPath := filepath.Join(dir, "legacy.json")
	if err := os.WriteFile(legacyPath, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-manifest", legacyPath, "-cache-dir", cacheDir, "-status"},
		{"-manifest", legacyPath, "-cache-dir", cacheDir},
	} {
		if _, err := sweepRun(t, args...); err == nil || !strings.Contains(err.Error(), "regenerate") {
			t.Errorf("%v: schema-1 manifest: err = %v, want a refusal saying how to regenerate", args, err)
		}
	}
}

// TestSweepStatusReadsCache: -status counts done and pending units from
// the cache, not from the manifest. A manifest whose units another
// campaign computed into the same cache is all done before it ever
// runs; once an entry is removed, its unit is pending again.
func TestSweepStatusReadsCache(t *testing.T) {
	dir := t.TempDir()
	grid := writeGrid(t, dir)
	cacheDir := filepath.Join(dir, "cache")
	if _, err := sweepRun(t, "-grid", grid, "-cache-dir", cacheDir, "-procs", "1"); err != nil {
		t.Fatal(err)
	}
	other, err := sweep.LoadGridFile(grid)
	if err != nil {
		t.Fatal(err)
	}
	other.Name = "other"
	manifest := filepath.Join(dir, "other.json")
	if err := other.Save(manifest); err != nil {
		t.Fatal(err)
	}
	status(t, manifest, cacheDir, "campaign other: 4 units: 4 done, 0 pending\n")
	status(t, manifest, filepath.Join(dir, "empty"), "campaign other: 4 units: 0 done, 4 pending\n")

	entries, err := filepath.Glob(filepath.Join(cacheDir, "*", other.Units[2].Key+".json"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("entry of unit 2: %q (%v), want one file", entries, err)
	}
	if err := os.Remove(entries[0]); err != nil {
		t.Fatal(err)
	}
	status(t, manifest, cacheDir, "campaign other: 4 units: 3 done, 1 pending\n")
	if _, err := os.Stat(filepath.Join(dir, "empty")); !os.IsNotExist(err) {
		t.Errorf("-status created the cache directory it read (stat: %v)", err)
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

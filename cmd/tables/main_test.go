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

func runTables(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	// Tests default to -cache=off so they never touch the user cache
	// dir; a test passing its own -cache flag later wins.
	if err := run(append([]string{"-cache", "off"}, args...), &buf); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return buf.String()
}

func TestAreaTable(t *testing.T) {
	out := runTables(t, "-table", "area")
	for _, want := range []string{"sensors", "Up_Down+Down_Up", "total overhead", "paper"} {
		if !strings.Contains(out, want) {
			t.Errorf("area output missing %q", want)
		}
	}
}

func TestQuickTable3(t *testing.T) {
	out := runTables(t, "-table", "3", "-quick")
	if !strings.Contains(out, "Table III") {
		t.Error("missing header")
	}
	if !strings.Contains(out, "4core-inj0.10") || !strings.Contains(out, "16core-inj0.30") {
		t.Errorf("missing scenario rows:\n%s", out)
	}
	if !strings.Contains(out, "rr-no-sensor") || !strings.Contains(out, "sensor-wise") {
		t.Error("missing policy columns")
	}
}

func TestQuickTable4(t *testing.T) {
	out := runTables(t, "-table", "4", "-quick")
	for _, want := range []string{"4c-r0-E", "4c-r1-W", "16c-r15-W", "±"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table IV output missing %q:\n%s", want, out)
		}
	}
}

func TestQuickVth(t *testing.T) {
	out := runTables(t, "-table", "vth", "-quick")
	if !strings.Contains(out, "max saving") || !strings.Contains(out, "54.2%") {
		t.Errorf("vth output incomplete:\n%s", out)
	}
}

func TestQuickCoop(t *testing.T) {
	out := runTables(t, "-table", "coop", "-quick")
	if !strings.Contains(out, "max cooperative reduction") {
		t.Errorf("coop output incomplete:\n%s", out)
	}
}

func TestQuickPerfAndPower(t *testing.T) {
	out := runTables(t, "-table", "perf", "-quick")
	if !strings.Contains(out, "trade-off") {
		t.Errorf("perf output incomplete:\n%s", out)
	}
	out = runTables(t, "-table", "power", "-quick")
	if !strings.Contains(out, "leak saved") {
		t.Errorf("power output incomplete:\n%s", out)
	}
}

func TestUnknownTableRejected(t *testing.T) {
	if err := run([]string{"-table", "99"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown table accepted")
	}
}

func TestTable1Setup(t *testing.T) {
	out := runTables(t, "-table", "1")
	for _, want := range []string{"2D mesh", "3-stage", "64-bit flits", "0.180 V", "N(0.180, 0.005)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I output missing %q:\n%s", want, out)
		}
	}
}

func TestCSVFlag(t *testing.T) {
	dir := t.TempDir()
	runTables(t, "-table", "3", "-quick", "-csv", dir)
	data, err := os.ReadFile(filepath.Join(dir, "table3.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "scenario,cores,rate,policy") {
		t.Errorf("CSV content wrong:\n%s", data)
	}
}

// manifestKeys writes the -sweep-manifest of one table selection and
// returns its unit keys.
func manifestKeys(t *testing.T, path string, args ...string) []string {
	t.Helper()
	runTables(t, append(args, "-quick", "-sweep-manifest", path)...)
	m, err := sweep.LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	var ks []string
	for _, u := range m.Units {
		ks = append(ks, u.Key)
	}
	return ks
}

// TestSweepManifestIgnoresCacheMode: the manifest is the tables' run
// set, enumerated before anything runs, so every cache mode writes the
// same keys.
func TestSweepManifestIgnoresCacheMode(t *testing.T) {
	dir := t.TempDir()
	keys := func(mode string) []string {
		t.Helper()
		return manifestKeys(t, filepath.Join(dir, mode+".json"), "-table", "coop",
			"-cache", mode, "-cache-dir", filepath.Join(dir, "cache"))
	}
	off, rw := keys("off"), keys("rw")
	if len(off) != 24 {
		t.Errorf("-cache=off manifest has %d units, want 24 (2 meshes x 3 rates x 4 policies)", len(off))
	}
	if !reflect.DeepEqual(off, rw) {
		t.Errorf("unit keys differ across cache modes:\noff %v\nrw  %v", off, rw)
	}
}

// TestSweepManifestDedupsSharedRuns: the ΔVth analysis reruns Table
// III's sensor-wise scenarios and one Table IV mix per architecture,
// the energy extension runs Table III's, the cooperation table's and
// the corners table's policies on one scenario, and the rotation-period
// study's default period is Table II's rr-no-sensor row, so a manifest
// of all tables holds each of those runs once, labelled <table
// id>/<index> after the first table that lists it.
func TestSweepManifestDedupsSharedRuns(t *testing.T) {
	dir := t.TempDir()
	all := map[string]bool{}
	for _, k := range manifestKeys(t, filepath.Join(dir, "all.json"), "-table", "all") {
		if all[k] {
			t.Errorf("key %s appears twice", k[:12])
		}
		all[k] = true
	}
	m, err := sweep.LoadManifest(filepath.Join(dir, "all.json"))
	if err != nil {
		t.Fatal(err)
	}
	labels := map[string]bool{}
	for _, u := range m.Units {
		if labels[u.Label] {
			t.Errorf("label %s names two units", u.Label)
		}
		labels[u.Label] = true
	}
	if len(m.Units) != 93 || len(labels) != 93 {
		t.Errorf("-table all manifest has %d units with %d distinct labels, want 93 of each", len(m.Units), len(labels))
	}
	if first := m.Units[0].Label; first != "2/0" {
		t.Errorf("first unit labelled %q, want 2/0 (Table II's first run)", first)
	}
	shared := map[string]bool{}
	for _, table := range []string{"3", "4"} {
		for _, k := range manifestKeys(t, filepath.Join(dir, table+".json"), "-table", table) {
			shared[k] = true
		}
	}
	vth := manifestKeys(t, filepath.Join(dir, "vth.json"), "-table", "vth")
	if len(vth) != 8 {
		t.Errorf("vth manifest has %d units, want 8 (6 synthetic + 2 app-mix)", len(vth))
	}
	for _, k := range vth {
		if !shared[k] || !all[k] {
			t.Errorf("vth run %s is not one of Table III/IV's runs in the all-tables manifest", k[:12])
		}
	}
}

// TestSweepManifestCampaignServesTables: a table's manifest is written
// without simulating, a sweep campaign over it fills the cache, and the
// table then regenerates from that cache alone, byte-identical to its
// golden fixture.
func TestSweepManifestCampaignServesTables(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the quick coop table once through a sweep campaign")
	}
	dir := t.TempDir()
	manifest, cacheDir := filepath.Join(dir, "m.json"), filepath.Join(dir, "c")
	manifestKeys(t, manifest, "-table", "coop", "-cache", "rw", "-cache-dir", cacheDir)
	if entries, err := os.ReadDir(cacheDir); err == nil && len(entries) > 0 {
		t.Fatalf("-sweep-manifest wrote %d cache entries; it must not simulate", len(entries))
	}

	m, err := sweep.LoadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	c := &sweep.Coordinator{Manifest: m, CacheDir: cacheDir, Procs: 1}
	res, err := c.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != 24 {
		t.Fatalf("campaign completed %d units, want 24", res.Done)
	}

	want, err := os.ReadFile(filepath.Join("testdata", "golden_coop_quick.txt"))
	if err != nil {
		t.Fatal(err)
	}
	met := filepath.Join(dir, "metrics.json")
	got := runTables(t, "-table", "coop", "-quick", "-cache", "ro", "-cache-dir", cacheDir,
		"-metrics-out", met)
	if got != string(want) {
		t.Errorf("table served from the campaign's cache diverged from the fixture:\n%s",
			firstDiff(string(want), got))
	}
	if misses, hits := metricTotal(t, met, "cache_misses_total"), metricTotal(t, met, "cache_hits_total"); misses != 0 || hits != 24 {
		t.Errorf("cache misses=%d hits=%d after the campaign, want 0 and 24", misses, hits)
	}
}

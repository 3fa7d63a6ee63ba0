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

// TestSweepManifestIgnoresCacheMode: the manifest records every unit
// the tables ran under its content address whatever the cache mode, so
// -cache=off records the same keys as a cold -cache=rw run.
func TestSweepManifestIgnoresCacheMode(t *testing.T) {
	dir := t.TempDir()
	keys := func(mode string) []string {
		t.Helper()
		path := filepath.Join(dir, mode+".json")
		runTables(t, "-table", "coop", "-quick", "-cache", mode,
			"-cache-dir", filepath.Join(dir, "cache"), "-sweep-manifest", path)
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
	off, rw := keys("off"), keys("rw")
	if len(off) != 24 {
		t.Errorf("-cache=off manifest has %d units, want 24 (2 meshes x 3 rates x 4 policies)", len(off))
	}
	if !reflect.DeepEqual(off, rw) {
		t.Errorf("unit keys differ across cache modes:\noff %v\nrw  %v", off, rw)
	}
}

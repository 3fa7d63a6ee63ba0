package main

import (
	"bytes"
	"io/fs"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestCompareBasic(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-cache", "off", "-cores", "4", "-vcs", "2", "-rate", "0.1",
		"-warmup", "500", "-cycles", "8000", "-top", "3"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"rr-no-sensor", "sensor-wise", "summary over 12 ports",
		"wins on", "latency", "throughput", "more ports omitted"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCompareShowAll(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-cache", "off", "-cores", "4", "-vcs", "2", "-rate", "0.1",
		"-warmup", "500", "-cycles", "5000", "-top", "0"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "omitted") {
		t.Error("-top 0 still omitted ports")
	}
}

func TestCompareBaselineVsSelf(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-cache", "off", "-a", "baseline", "-b", "baseline",
		"-cores", "4", "-vcs", "2", "-warmup", "500", "-cycles", "5000"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	// Identical policies give a zero mean gap.
	if !strings.Contains(buf.String(), "mean gap 0.00 points") {
		t.Errorf("self-comparison gap not zero:\n%s", buf.String())
	}
}

func TestCompareBadPolicy(t *testing.T) {
	if err := run([]string{"-cache", "off", "-a", "bogus", "-cycles", "100"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestCompareWarmCacheRun: a warm -cache rw run over the directory a
// cold run filled prints the same bytes and writes nothing new.
func TestCompareWarmCacheRun(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-cache", "rw", "-cache-dir", dir, "-cores", "4", "-vcs", "2",
		"-rate", "0.1", "-warmup", "500", "-cycles", "5000"}
	var cold, warm bytes.Buffer
	if err := run(args, &cold); err != nil {
		t.Fatal(err)
	}
	entries := cacheFiles(t, dir)
	if len(entries) != 2 {
		t.Fatalf("cold run left %d cache files, want one entry per policy: %v", len(entries), entries)
	}
	if err := run(args, &warm); err != nil {
		t.Fatal(err)
	}
	if warm.String() != cold.String() {
		t.Errorf("warm output differs from cold:\ncold:\n%s\nwarm:\n%s", cold.String(), warm.String())
	}
	if after := cacheFiles(t, dir); !reflect.DeepEqual(after, entries) {
		t.Errorf("warm run changed the cache:\nbefore %v\nafter  %v", entries, after)
	}
}

// cacheFiles maps every file under dir to its modification time.
func cacheFiles(t *testing.T, dir string) map[string]time.Time {
	t.Helper()
	files := map[string]time.Time{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		files[path] = info.ModTime()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

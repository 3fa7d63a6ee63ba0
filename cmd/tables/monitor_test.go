package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMetricsOutSnapshot drives a real table run with -metrics-out and
// checks the dumped snapshot carries the engine series the observability
// layer promises: gating transitions per policy and cache hit/miss
// counters (acceptance criteria of the monitor feature).
func TestMetricsOutSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the Table II scenarios (tiny windows)")
	}
	dir := t.TempDir()
	outFile := filepath.Join(dir, "metrics.json")
	// Windows far below -quick keep this fast even under -race; every
	// asserted series ticks within the first few hundred cycles.
	runTables(t, "-table", "2", "-warmup", "200", "-measure", "2000",
		"-cache", "rw", "-cache-dir", filepath.Join(dir, "cache"),
		"-metrics-out", outFile)

	total := func(name string) uint64 { return metricTotal(t, outFile, name) }
	for _, series := range []string{
		"noc_cycles_total",
		"noc_gating_transitions_total",
		"noc_flits_routed_total",
		"nbti_stress_spans_total",
		"sim_jobs_done_total",
	} {
		if total(series) == 0 {
			t.Errorf("snapshot series %s is zero after a table run", series)
		}
	}
	// A cold read-write cache run computes everything: misses, no hits.
	if total("cache_misses_total") == 0 {
		t.Error("cold cache run recorded no cache misses")
	}
}

// metricTotal sums the counter series name over every label set in a
// -metrics-out snapshot.
func metricTotal(t *testing.T, path, name string) uint64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Families []struct {
			Name    string `json:"name"`
			Metrics []struct {
				Counter *uint64 `json:"counter"`
			} `json:"metrics"`
		} `json:"families"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("parsing -metrics-out snapshot: %v", err)
	}
	var n uint64
	for _, f := range snap.Families {
		if f.Name != name {
			continue
		}
		for _, m := range f.Metrics {
			if m.Counter != nil {
				n += *m.Counter
			}
		}
	}
	return n
}

// TestMonitorFlagServes starts a table run with -monitor and scrapes
// /metrics while it executes, checking the Prometheus text carries the
// gating-transition and cache series.
func TestMonitorFlagServes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the Table II scenarios (tiny windows)")
	}
	// Reserve a port, free it, and hand it to -monitor. The window
	// between Close and the monitor's bind is small enough in practice.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	dir := t.TempDir()
	done := make(chan error, 1)
	go func() {
		var buf bytes.Buffer
		done <- run([]string{"-table", "2", "-warmup", "200", "-measure", "2000",
			"-cache", "rw", "-cache-dir", dir,
			"-monitor", addr}, &buf)
	}()

	var body string
	// Generous: the run takes well under a second normally, but the
	// race detector slows simulation by an order of magnitude.
	deadline := time.After(120 * time.Second)
poll:
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if body == "" {
				t.Fatal("run finished before the monitor answered a scrape")
			}
			break poll
		case <-deadline:
			t.Fatal("table run did not finish in 120s")
		default:
		}
		resp, err := http.Get("http://" + addr + "/metrics")
		if err == nil {
			b, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && len(b) > 0 {
				body = string(b)
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	for _, want := range []string{
		"# TYPE noc_gating_transitions_total counter",
		"# TYPE cache_misses_total counter",
		"# TYPE cache_hits_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

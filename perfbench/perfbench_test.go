package main

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"os"
	"testing"

	"nbtinoc/internal/sim"
)

func summaryJSON(t *testing.T, s *sim.RunSummary) []byte {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestMesh32StepByStep checks once that the mesh32-lowrate spec gives
// the same summary with fast-forward disabled.
func TestMesh32StepByStep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full mesh32-lowrate window twice")
	}
	spec := mesh32Spec(1)
	fast, err := spec.Compute()
	if err != nil {
		t.Fatal(err)
	}
	rc, err := runConfigOf(spec)
	if err != nil {
		t.Fatal(err)
	}
	rc.StepByStep = true
	res, err := sim.Run(rc, spec.Probes)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(summaryJSON(t, fast), summaryJSON(t, res.Summary())) {
		t.Fatal("mesh32-lowrate summary differs under StepByStep")
	}
}

// TestTracedRunMatchesSimRun checks that the benchmark's traced loop
// returns sim.Run's summary on busy, idle, closed-loop and custom-policy
// specs, with and without the visit-counting registry.
func TestTracedRunMatchesSimRun(t *testing.T) {
	low := mesh32Spec(7)
	low.Net.Width, low.Net.Height, low.Gen.Width, low.Gen.Height = 8, 8, 8, 8
	low.Gen.Rate, low.Measure = 2e-4, 60_000

	busy := low
	busy.Net.Width, busy.Net.Height, busy.Gen.Width, busy.Gen.Height = 4, 4, 4, 4
	busy.Gen.Rate, busy.Warmup, busy.Measure = 0.3, 500, 5_000
	busy.Policy = sim.PolicySpec{Name: "rr-no-sensor"}

	rr := busy
	rr.Policy = sim.PolicySpec{RRPeriod: 16}
	rr.Gen.Rate = 0.1

	reqresp := busy
	reqresp.Net.VNets = 2
	reqresp.Gen = sim.GenSpec{Kind: "req-resp", Width: 4, Height: 4, Rate: 0.05, Seed: 3}

	noWarmup := low
	noWarmup.Warmup = 0

	for name, spec := range map[string]sim.Spec{
		"lowrate": low, "busy": busy, "rr-period": rr, "req-resp": reqresp, "no-warmup": noWarmup,
	} {
		want, err := spec.Compute()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, visits := range []bool{false, true} {
			var tr engineTrace
			got, err := tracedRun(spec, &tr, visits)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !bytes.Equal(summaryJSON(t, want), summaryJSON(t, got)) {
				t.Errorf("%s (visits %v): traced summary differs from sim.Run's", name, visits)
			}
			if tr.conservationFails != 0 {
				t.Errorf("%s: packets not conserved", name)
			}
			if visits && tr.routersActive == 0 {
				t.Errorf("%s: no router visits counted", name)
			}
		}
	}
}

// TestCampaignPlan checks that the service-campaign mix has the same
// structure for every seed: the same count of first sightings per phase,
// repeats only of specs the plan allows, and no other spec.
func TestCampaignPlan(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		seqA, seqB := campaignPlan(rand.New(rand.NewPCG(seed, 0)))
		if len(seqA) != campaignLenA || len(seqB) != campaignLenB {
			t.Fatalf("seed %d: phase lengths %d, %d", seed, len(seqA), len(seqB))
		}
		check := func(seq []int, lo, hi int, old bool) {
			seen := make(map[int]bool)
			for _, idx := range seq {
				switch {
				case idx >= lo && idx < hi:
					seen[idx] = true
				case old && idx < lo:
				default:
					t.Fatalf("seed %d: spec %d outside the phase's pool", seed, idx)
				}
			}
			if len(seen) != hi-lo {
				t.Fatalf("seed %d: %d new specs, want %d", seed, len(seen), hi-lo)
			}
		}
		check(seqA, 0, campaignNewA, false)
		check(seqB, campaignNewA, campaignNewA+campaignNewB, true)
	}
}

// TestBenchmarkJSONNames checks BENCHMARK.json names the metrics the
// runs report.
func TestBenchmarkJSONNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark")
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d reported", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if b.EndToEnd[i].Name != m.name || b.EndToEnd[i].Unit != m.unit {
			t.Errorf("end_to_end[%d] = %+v, want %s %s", i, b.EndToEnd[i], m.name, m.unit)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d reported", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if b.PerLayer[i].Name != m.name || b.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d] = %+v, want %s %s", i, b.PerLayer[i], m.name, m.unit)
		}
	}
}

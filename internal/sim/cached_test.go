package sim

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"sync"
	"testing"

	"nbtinoc/internal/cache"
	"nbtinoc/internal/core"
	"nbtinoc/internal/metrics"
	"nbtinoc/internal/noc"
)

// quickSpec is a small, fully declarative scenario used by the cache
// tests: 2x2 mesh, short windows, a single probe.
func quickSpec() Spec {
	cfg := noc.DefaultConfig()
	cfg.Width, cfg.Height = 2, 2
	cfg.VCsPerVNet = 2
	return Spec{
		Net:     cfg,
		Policy:  PolicySpec{Name: "sensor-wise"},
		Gen:     GenSpec{Kind: "synthetic", Pattern: "uniform", Width: 2, Height: 2, Rate: 0.1, PacketLen: 4, Seed: 7},
		Warmup:  500,
		Measure: 5_000,
		Probes:  []PortProbe{{Node: 0, Port: noc.East}},
	}
}

func mustKey(t *testing.T, s Spec) string {
	t.Helper()
	k, err := SpecKey(s)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestSpecKeyStableAndComponentSensitive(t *testing.T) {
	base := mustKey(t, quickSpec())
	if again := mustKey(t, quickSpec()); again != base {
		t.Fatalf("identical specs keyed differently: %s vs %s", base, again)
	}

	// Mutating any single key component must change the content address.
	mutations := map[string]func(*Spec){
		"traffic seed":    func(s *Spec) { s.Gen.Seed++ },
		"policy name":     func(s *Spec) { s.Policy.Name = "rr-no-sensor" },
		"rr period":       func(s *Spec) { s.Policy = PolicySpec{RRPeriod: 4096} },
		"buffer depth":    func(s *Spec) { s.Net.BufferDepth++ },
		"pv seed":         func(s *Spec) { s.Net.PVSeed++ },
		"routing":         func(s *Spec) { s.Net.Routing = noc.RouteYX },
		"warmup":          func(s *Spec) { s.Warmup++ },
		"measure":         func(s *Spec) { s.Measure++ },
		"injection rate":  func(s *Spec) { s.Gen.Rate = 0.2 },
		"traffic pattern": func(s *Spec) { s.Gen.Pattern = "transpose" },
		"probe set":       func(s *Spec) { s.Probes = append(s.Probes, PortProbe{Node: 1, Port: noc.West}) },
		"probe vnet":      func(s *Spec) { s.Probes[0].VNet = 1 },
	}
	seen := map[string]string{base: "base"}
	for name, mutate := range mutations {
		s := quickSpec()
		mutate(&s)
		k := mustKey(t, s)
		if prev, dup := seen[k]; dup {
			t.Errorf("mutation %q collides with %q", name, prev)
		}
		seen[k] = name
	}

	// The engine fingerprint is a key component like any other.
	other, err := specKeyFor("some-other-engine", quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	if other == base {
		t.Error("engine fingerprint does not affect the key")
	}
	if pinned, err := specKeyFor(EngineVersion, quickSpec()); err != nil || pinned != base {
		t.Errorf("SpecKey does not use EngineVersion: %s vs %s (%v)", pinned, base, err)
	}
}

// TestRunnerExactness checks the cache serves byte-identical summaries:
// direct compute, cold-store compute, and warm-store hit must all
// serialize to the same JSON.
func TestRunnerExactness(t *testing.T) {
	spec := quickSpec()
	direct, err := spec.Compute()
	if err != nil {
		t.Fatal(err)
	}
	directJSON, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cold := Runner{Store: cache.Open(dir, cache.ReadWrite)}
	got, err := cold.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if j, _ := json.Marshal(got); !bytes.Equal(j, directJSON) {
		t.Errorf("cold cache summary differs from direct compute:\n%s\n%s", j, directJSON)
	}
	if st := cold.Store.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Errorf("cold stats = %+v", st)
	}

	// A fresh store over the same directory must hit and round-trip the
	// exact bytes.
	warm := Runner{Store: cache.Open(dir, cache.ReadOnly)}
	got, err = warm.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if j, _ := json.Marshal(got); !bytes.Equal(j, directJSON) {
		t.Errorf("warm cache summary differs from direct compute:\n%s\n%s", j, directJSON)
	}
	if st := warm.Store.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Errorf("warm stats = %+v", st)
	}
}

// TestRunnerSingleFlightUnderPool drives N pool workers at one spec:
// exactly one compute, everyone gets the same summary.
func TestRunnerSingleFlightUnderPool(t *testing.T) {
	spec := quickSpec()
	runner := Runner{Store: cache.Open(t.TempDir(), cache.ReadWrite)}

	const workers = 8
	results := make([]*RunSummary, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sum, err := runner.Run(spec)
			if err != nil {
				t.Error(err)
				return
			}
			results[w] = sum
		}(w)
	}
	wg.Wait()

	st := runner.Store.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want exactly one compute across %d workers (%+v)", st.Misses, workers, st)
	}
	if st.Hits+st.Deduped != workers-1 {
		t.Errorf("hits+deduped = %d, want %d (%+v)", st.Hits+st.Deduped, workers-1, st)
	}
	want, _ := json.Marshal(results[0])
	for w := 1; w < workers; w++ {
		if got, _ := json.Marshal(results[w]); !bytes.Equal(got, want) {
			t.Errorf("worker %d summary differs", w)
		}
	}
}

// TestRunnerRefusesUnkeyableSpecs: a spec that cannot be keyed — a raw
// policy factory on Net, or a NaN rate with no JSON encoding — is an
// error from SpecKey, Compute, Run and TryRun in every cache mode, and
// nothing is computed, cached or recorded. The store already holds the
// factory spec's declarative twin, which must not be served for it.
func TestRunnerRefusesUnkeyableSpecs(t *testing.T) {
	factory := quickSpec()
	factory.Policy = PolicySpec{}
	factory.Net.Policy = func() noc.Policy { return &core.RRNoSensor{RotatePeriod: 512} }
	twin := quickSpec()
	twin.Policy = PolicySpec{RRPeriod: 512}
	nan := quickSpec()
	nan.Gen.Rate = math.NaN()

	dir := t.TempDir()
	if _, err := (Runner{Store: cache.Open(dir, cache.ReadWrite)}).Run(twin); err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	metrics.SetDefault(reg)
	defer metrics.SetDefault(nil)

	recorded := 0
	record := func(Spec, string, bool) { recorded++ }
	for name, spec := range map[string]Spec{"factory": factory, "nan rate": nan} {
		if _, err := SpecKey(spec); err == nil {
			t.Errorf("%s: SpecKey succeeded", name)
		}
		if name == "factory" {
			if _, err := spec.Compute(); err == nil {
				t.Errorf("%s: Compute succeeded", name)
			}
		}
		for _, mode := range []cache.Mode{cache.Off, cache.ReadOnly, cache.ReadWrite} {
			store := cache.Open(dir, mode)
			r := Runner{Store: store, Record: record}
			if mode == cache.Off {
				r.Store = nil
			}
			if sum, err := r.Run(spec); err == nil || sum != nil {
				t.Errorf("%s, cache %v: Run = %v, %v; want an error", name, mode, sum, err)
			}
			if _, err := r.TryRun(spec); err == nil {
				t.Errorf("%s, cache %v: TryRun succeeded; want an error", name, mode)
			}
			if st := store.Stats(); st != (cache.Stats{}) {
				t.Errorf("%s, cache %v: store touched: %+v", name, mode, st)
			}
		}
	}
	if recorded != 0 {
		t.Errorf("Record fired %d times for unkeyable specs", recorded)
	}
	if n := reg.CounterValue(noc.MetricCycles); n != 0 {
		t.Errorf("unkeyable specs simulated %d cycles", n)
	}
	if n := reg.CounterValue(MetricRunsComputed) + reg.CounterValue(MetricRunsCached); n != 0 {
		t.Errorf("unkeyable specs completed %d runs", n)
	}
}

// TestRRPeriodSpecMatchesFactory: the declarative RRPeriod form must
// behave exactly like the hand-installed factory it replaces, run
// through sim.Run with the factory on RunConfig.Net.
func TestRRPeriodSpecMatchesFactory(t *testing.T) {
	declarative := quickSpec()
	declarative.Policy = PolicySpec{RRPeriod: 1024}
	a, err := declarative.Compute()
	if err != nil {
		t.Fatal(err)
	}

	rc, err := quickSpec().RunConfig()
	if err != nil {
		t.Fatal(err)
	}
	rc.PolicyName = ""
	rc.Net.Policy = func() noc.Policy { return &core.RRNoSensor{RotatePeriod: 1024} }
	res, err := Run(rc, quickSpec().Probes)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(res.Summary())
	if !bytes.Equal(ja, jb) {
		t.Errorf("RRPeriod spec diverges from manual factory:\n%s\n%s", ja, jb)
	}
}

// TestSyntheticTableCacheTransparent: the paper-table driver must render
// byte-identical output without a cache, with a cold cache, and with a
// warm cache.
func TestSyntheticTableCacheTransparent(t *testing.T) {
	render := func(opt TableOptions) string {
		t.Helper()
		tbl, err := RunSyntheticTable(2, opt)
		if err != nil {
			t.Fatal(err)
		}
		return tbl.Render()
	}

	plain := render(shortTableOptions())

	dir := t.TempDir()
	coldOpt := shortTableOptions()
	coldOpt.Cache = cache.Open(dir, cache.ReadWrite)
	if cold := render(coldOpt); cold != plain {
		t.Errorf("cold-cache render differs from uncached:\n--- uncached\n%s\n--- cold\n%s", plain, cold)
	}
	if st := coldOpt.Cache.Stats(); st.Misses == 0 || st.Hits != 0 {
		t.Errorf("cold run stats = %+v", st)
	}

	warmOpt := shortTableOptions()
	warmOpt.Cache = cache.Open(dir, cache.ReadWrite)
	if warm := render(warmOpt); warm != plain {
		t.Errorf("warm-cache render differs from uncached:\n--- uncached\n%s\n--- warm\n%s", plain, warm)
	}
	if st := warmOpt.Cache.Stats(); st.Misses != 0 || st.Hits == 0 {
		t.Errorf("warm run recomputed: %+v", st)
	}
}

func TestRunSummaryJSONRoundTrip(t *testing.T) {
	sum, err := quickSpec().Compute()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Nodes != 4 || sum.TotalVCs == 0 || sum.Cycles == 0 {
		t.Fatalf("summary not populated: %+v", sum)
	}
	data, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	var back RunSummary
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*sum, back) {
		t.Errorf("round trip changed the summary:\n%+v\n%+v", *sum, back)
	}
	again, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Error("re-encoding after round trip changed the bytes")
	}
}

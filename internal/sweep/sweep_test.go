package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"nbtinoc/internal/cache"
	"nbtinoc/internal/noc"
	"nbtinoc/internal/sim"
)

// testGrid is a small campaign: 2 policies x 2 rates on a 2x2 mesh,
// cheap enough to simulate many times over in one test run.
func testGrid() *Grid {
	return &Grid{
		Name: "t",
		Base: sim.Scenario{
			Name: "base", Cores: 4, VCs: 1,
			Workload: "uniform", Rate: 0.1,
			Warmup: 200, Measure: 2_000,
			Seed: 1, PVSeed: 1,
		},
		Axes: Axes{
			Policies: []string{"baseline", "sensor-wise"},
			Rates:    []float64{0.1, 0.2},
		},
		Probes: []string{"0:E"},
	}
}

// testLease is a real-time lease policy with tight timings.
func testLease() *cache.LeasePolicy {
	return &cache.LeasePolicy{
		TTLNS:       int64(5 * time.Second),
		HeartbeatNS: int64(10 * time.Millisecond),
		PollNS:      int64(time.Millisecond),
		Sleep:       func(ns int64) { time.Sleep(time.Duration(ns)) },
	}
}

func realClock() func() int64 {
	return func() int64 { return time.Now().UnixNano() }
}

func TestGridExpandDeterministic(t *testing.T) {
	g := testGrid()
	a, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two expansions of one grid differ")
	}
	if len(a) != 4 {
		t.Fatalf("expanded to %d units, want 4", len(a))
	}
	wantLabels := []string{
		"baseline/r0.1", "baseline/r0.2",
		"sensor-wise/r0.1", "sensor-wise/r0.2",
	}
	keys := map[string]bool{}
	for i, u := range a {
		if u.Index != i {
			t.Errorf("unit %d records index %d", i, u.Index)
		}
		if u.Label != wantLabels[i] {
			t.Errorf("unit %d label = %q, want %q", i, u.Label, wantLabels[i])
		}
		if keys[u.Key] {
			t.Errorf("unit %d key %s duplicates another unit", i, u.Key[:12])
		}
		keys[u.Key] = true
		if got, err := sim.SpecKey(u.Spec); err != nil || got != u.Key {
			t.Errorf("unit %d key does not match its spec: %v", i, err)
		}
	}

	// The grid key pins content: an edited axis changes it.
	k1, err := g.Key()
	if err != nil {
		t.Fatal(err)
	}
	g2 := testGrid()
	g2.Axes.Rates = append(g2.Axes.Rates, 0.3)
	k2, err := g2.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Error("edited grid kept its key")
	}
}

func TestGridLoadRejectsBadPoints(t *testing.T) {
	bad := `{"name":"x","base":{"cores":4,"vcs":1,"measure":100},"axes":{"meshes":["nonsense"]}}`
	if _, err := LoadGrid(strings.NewReader(bad)); err == nil {
		t.Error("grid with unparsable mesh accepted")
	}
	unknown := `{"name":"x","base":{"cores":4,"vcs":1,"measure":100},"axis":{}}`
	if _, err := LoadGrid(strings.NewReader(unknown)); err == nil {
		t.Error("grid with unknown field accepted")
	}
	good := `{"name":"x","base":{"cores":4,"vcs":1,"measure":100}}`
	if _, err := LoadGrid(strings.NewReader(good + "\n")); err != nil {
		t.Errorf("well-formed grid refused: %v", err)
	}
	if _, err := LoadGrid(strings.NewReader(good + `{"junk":1}`)); err == nil {
		t.Error("grid with trailing data accepted")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m, units, err := NewManifest(testGrid())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.json")
	m.Units[1].State = UnitDone
	m.Units[2].State = UnitFailed
	m.Units[2].Err = "boom"
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, back) {
		t.Errorf("round trip changed the manifest:\n got %+v\nwant %+v", back, m)
	}
	resolved, err := back.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(units, resolved) {
		t.Error("resolved units differ from the originals")
	}
	if p, d, f := back.Counts(); p != 2 || d != 1 || f != 1 {
		t.Errorf("Counts = %d/%d/%d, want 2 pending, 1 done, 1 failed", p, d, f)
	}
}

func TestManifestValidation(t *testing.T) {
	m, _, err := NewManifest(testGrid())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	save := func(name string, mutate func(*Manifest)) string {
		t.Helper()
		c := *m
		c.Units = append([]ManifestUnit{}, m.Units...)
		mutate(&c)
		p := filepath.Join(dir, name)
		data, err := json.Marshal(&c)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	for name, mutate := range map[string]func(*Manifest){
		"schema.json": func(m *Manifest) { m.Schema = 99 },
		"engine.json": func(m *Manifest) { m.Engine = "other-engine" },
		"index.json":  func(m *Manifest) { m.Units[1].Index = 7 },
		"state.json":  func(m *Manifest) { m.Units[0].State = "half-done" },
		"key.json":    func(m *Manifest) { m.Units[0].Key = "" },
	} {
		if _, err := LoadManifest(save(name, mutate)); err == nil {
			t.Errorf("%s: damaged manifest accepted", name)
		}
	}

	// A misspelled field is refused, not ignored: "unit" would
	// otherwise load as a manifest with no units at all.
	ok := save("ok.json", func(*Manifest) {})
	if _, err := LoadManifest(ok); err != nil {
		t.Fatalf("undamaged manifest refused: %v", err)
	}
	data, err := os.ReadFile(ok)
	if err != nil {
		t.Fatal(err)
	}
	misspelled := filepath.Join(dir, "misspelled.json")
	if err := os.WriteFile(misspelled, bytes.Replace(data, []byte(`"units"`), []byte(`"unit"`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(misspelled); err == nil {
		t.Error("manifest with a misspelled field accepted")
	}

	// A grid-based manifest whose grid drifted from its unit list is
	// caught at Resolve.
	drift := *m
	drift.Units = append([]ManifestUnit{}, m.Units...)
	drift.Units[0].Key = strings.Repeat("ab", 32)
	if _, err := drift.Resolve(); err == nil {
		t.Error("drifted grid manifest resolved")
	}
}

// TestSpecManifestResolves: a spec-list manifest is written before
// anything runs — every unit pending, duplicates folded in enumeration
// order — and survives a save/load round trip as executable units.
func TestSpecManifestResolves(t *testing.T) {
	units, err := testGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	var specs []sim.Spec
	for _, u := range units {
		specs = append(specs, u.Spec)
	}
	specs = append(specs, units[1].Spec, units[0].Spec)
	m, err := NewSpecManifest("listed", specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Units) != len(units) {
		t.Fatalf("manifest has %d units, want %d", len(m.Units), len(units))
	}
	for i, u := range m.Units {
		if u.Index != i || u.Key != units[i].Key || u.State != UnitPending {
			t.Errorf("unit %d: index %d key %s state %s, want index %d key %s pending",
				i, u.Index, u.Key[:12], u.State, i, units[i].Key[:12])
		}
	}
	path := filepath.Join(t.TempDir(), "listed.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	resolved, err := back.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range resolved {
		if u.Key != units[i].Key {
			t.Errorf("resolved unit %d keys %s, want %s", i, u.Key[:12], units[i].Key[:12])
		}
	}
	// A spec that cannot be keyed cannot be a unit.
	bad := units[0].Spec
	bad.Net.Policy = func() noc.Policy { return nil }
	if _, err := NewSpecManifest("bad", []sim.Spec{bad}); err == nil {
		t.Error("unkeyable spec accepted")
	}
}

func TestAssignStrategies(t *testing.T) {
	pending := []int{3, 5, 8, 9, 12, 20, 21}
	ranges := Assign(pending, 3, Range)
	if len(ranges) != 3 {
		t.Fatalf("range procs = %d", len(ranges))
	}
	var flat []int
	for _, chunk := range ranges {
		flat = append(flat, chunk...)
	}
	if !reflect.DeepEqual(flat, pending) {
		t.Errorf("range chunks reorder or drop: %v", ranges)
	}
	for _, chunk := range ranges {
		if len(chunk) < 2 || len(chunk) > 3 {
			t.Errorf("unbalanced range chunk %v", chunk)
		}
	}

	steals := Assign(pending, 3, Steal)
	for w, perm := range steals {
		if len(perm) != len(pending) {
			t.Fatalf("steal worker %d got %d units, want all %d", w, len(perm), len(pending))
		}
		sorted := append([]int{}, perm...)
		sort.Ints(sorted)
		if !reflect.DeepEqual(sorted, pending) {
			t.Errorf("steal worker %d list is not a permutation: %v", w, perm)
		}
	}
	if reflect.DeepEqual(steals[0], steals[1]) {
		t.Error("steal workers start at the same offset")
	}

	// Degenerate shapes.
	if got := Assign(nil, 2, Range); len(got) != 2 || len(got[0]) != 0 {
		t.Errorf("empty pending: %v", got)
	}
	if got := Assign([]int{1}, 4, Steal); len(got) != 4 {
		t.Errorf("more procs than units: %v", got)
	}
}

// runCampaign expands the grid fresh and runs a full coordinator round
// in the given topology, returning the merged report bytes and the
// round result.
func runCampaign(t *testing.T, dir string, procs, workers int, strategy Strategy) ([]byte, *Result) {
	t.Helper()
	m, units, err := NewManifest(testGrid())
	if err != nil {
		t.Fatal(err)
	}
	c := &Coordinator{
		Manifest:     m,
		Units:        units,
		ManifestPath: filepath.Join(dir, "manifest.json"),
		CacheDir:     filepath.Join(dir, "cache"),
		Procs:        procs,
		Workers:      workers,
		Strategy:     strategy,
		Clock:        realClock(),
		Lease:        testLease(),
	}
	var out bytes.Buffer
	res, err := c.Run(&out)
	if err != nil {
		t.Fatalf("campaign (%d procs, %d workers, %s): %v", procs, workers, strategy, err)
	}
	return out.Bytes(), res
}

// TestMergedOutputByteIdenticalAcrossTopologies is the acceptance
// pin: every (processes x workers x strategy) layout produces the
// same merged bytes, each from its own cold cache.
func TestMergedOutputByteIdenticalAcrossTopologies(t *testing.T) {
	base, _ := runCampaign(t, t.TempDir(), 1, 1, Range)
	if len(base) == 0 || !bytes.HasPrefix(base, []byte("# nbtinoc sweep t ")) {
		t.Fatalf("unexpected report header: %q", base[:min(len(base), 60)])
	}
	for _, tc := range []struct {
		procs, workers int
		strategy       Strategy
	}{
		{1, 4, Range},
		{2, 1, Range},
		{2, 2, Steal},
		{3, 1, Steal},
	} {
		got, _ := runCampaign(t, t.TempDir(), tc.procs, tc.workers, tc.strategy)
		if !bytes.Equal(got, base) {
			t.Errorf("(%d procs, %d workers, %s) diverged from 1-proc/-j1:\n got: %s\nwant: %s",
				tc.procs, tc.workers, tc.strategy, got, base)
		}
	}
}

// TestSharedCacheSingleCompute: multiple worker processes over ONE
// cache dir perform exactly one compute per unique key — the summed
// stats prove the cross-process single-flight through the full stack.
func TestSharedCacheSingleCompute(t *testing.T) {
	for _, strategy := range []Strategy{Range, Steal} {
		dir := t.TempDir()
		out, res := runCampaign(t, dir, 2, 1, strategy)
		if len(out) == 0 {
			t.Fatalf("%s: empty report", strategy)
		}
		if res.Stats.Misses != 4 {
			t.Errorf("%s: %d misses across the campaign, want exactly 4 (one per key); stats %s",
				strategy, res.Stats.Misses, res.Stats)
		}
		if res.Done != 4 || res.Failed != 0 {
			t.Errorf("%s: done=%d failed=%d, want 4/0", strategy, res.Done, res.Failed)
		}
	}
}

// TestKilledThenResumedMatchesUninterrupted kills a worker mid-batch
// (its report is never written), checks the round fails resumably, then
// resumes from the manifest and pins the merged bytes against an
// uninterrupted run.
func TestKilledThenResumedMatchesUninterrupted(t *testing.T) {
	want, _ := runCampaign(t, t.TempDir(), 1, 1, Range)

	dir := t.TempDir()
	m, units, err := NewManifest(testGrid())
	if err != nil {
		t.Fatal(err)
	}
	manifestPath := filepath.Join(dir, "manifest.json")
	cacheDir := filepath.Join(dir, "cache")
	killed := &Coordinator{
		Manifest:     m,
		Units:        units,
		ManifestPath: manifestPath,
		CacheDir:     cacheDir,
		Procs:        2,
		Workers:      1,
		Strategy:     Range,
		Clock:        realClock(),
		Lease:        testLease(),
		Spawn: func(w int, a *Assignment) (*WorkerReport, error) {
			env := WorkerEnv{Clock: realClock(), Lease: testLease()}
			if w == 0 {
				// "Kill" worker 0 after one unit: compute a partial
				// share into the shared cache, never report.
				a.Units = a.Units[:1]
				RunAssignment(a, env)
				return nil, &killedError{}
			}
			return RunAssignment(a, env), nil
		},
	}
	var out bytes.Buffer
	if _, err := killed.Run(&out); err == nil {
		t.Fatal("round with a killed worker reported success")
	}
	if out.Len() != 0 {
		t.Fatalf("killed round wrote a merged report: %q", out.String())
	}

	// Resume: reload the checkpoint, as a fresh invocation would.
	loaded, err := LoadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if p, _, _ := loaded.Counts(); p == 0 {
		t.Fatal("checkpoint shows nothing pending after a killed worker")
	}
	resolved, err := loaded.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	resumed := &Coordinator{
		Manifest:     loaded,
		Units:        resolved,
		ManifestPath: manifestPath,
		CacheDir:     cacheDir,
		Procs:        1,
		Workers:      1,
		Strategy:     Range,
		Clock:        realClock(),
		Lease:        testLease(),
	}
	out.Reset()
	res, err := resumed.Run(&out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("resumed report diverged from uninterrupted:\n got: %s\nwant: %s", out.Bytes(), want)
	}
	if res.Resumed == 0 {
		t.Error("resume recomputed everything: no units were skipped via the cache")
	}
}

type killedError struct{}

func (*killedError) Error() string { return "worker killed (simulated)" }

// TestHandoffBodiesDecodeStrictly: the assignment a worker reads on
// stdin and the report it writes back are refused when they name a
// field this build does not know or carry trailing data, so a
// misspelled field (or the old reserved "server") never runs with that
// field silently ignored.
func TestHandoffBodiesDecodeStrictly(t *testing.T) {
	const assignment = `{"schema": 1, "cache_dir": "c", "workers": 1, "units": []%s}%s`
	const report = `{"schema": 1, "results": [{"state": "done", "cached": false}],
		"stats": {}%s}%s`
	decodeAssignment := func(body string) error {
		var a Assignment
		return decodeHandoff(strings.NewReader(body), "assignment", &a, &a.Schema)
	}
	decodeReport := func(body string) error {
		var r WorkerReport
		return decodeHandoff(strings.NewReader(body), "worker report", &r, &r.Schema)
	}
	cases := []struct {
		name, body string
		decode     func(string) error
		ok         bool
	}{
		{"assignment", fmt.Sprintf(assignment, "", "\n"), decodeAssignment, true},
		{"assignment-server", fmt.Sprintf(assignment, `, "server": "http://127.0.0.1:8310"`, ""), decodeAssignment, false},
		{"assignment-misspelled", fmt.Sprintf(assignment, `, "worker": 4`, ""), decodeAssignment, false},
		{"assignment-trailing", fmt.Sprintf(assignment, "", "{}"), decodeAssignment, false},
		{"assignment-schema", `{"schema": 2, "cache_dir": "c", "workers": 1, "units": []}`, decodeAssignment, false},
		{"report", fmt.Sprintf(report, "", "\n"), decodeReport, true},
		{"report-misspelled", fmt.Sprintf(report, `, "stat": {}`, ""), decodeReport, false},
		{"report-trailing", fmt.Sprintf(report, "", `{"schema": 1}`), decodeReport, false},
	}
	for _, tc := range cases {
		err := tc.decode(tc.body)
		if tc.ok && err != nil {
			t.Errorf("%s: refused a well-formed body: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: decoded %s", tc.name, tc.body)
		}
	}

	// A refused assignment never runs: the worker writes no report and
	// touches no cache.
	cacheDir := filepath.Join(t.TempDir(), "cache")
	units, err := testGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(&Assignment{Schema: AssignmentSchema, CacheDir: cacheDir, Workers: 1, Units: units[:1]})
	if err != nil {
		t.Fatal(err)
	}
	env := WorkerEnv{Clock: realClock(), Lease: testLease()}
	for _, bad := range []string{
		strings.Replace(string(body), `"workers"`, `"server":"http://127.0.0.1:8310","workers"`, 1),
		strings.Replace(string(body), `"workers"`, `"worker"`, 1),
		string(body) + "{}",
	} {
		var out bytes.Buffer
		if err := ServeWorker(strings.NewReader(bad), &out, env); err == nil {
			t.Errorf("worker ran a refused assignment: %s", bad)
		}
		if out.Len() != 0 {
			t.Errorf("refused assignment wrote a report: %s", out.String())
		}
	}
	if _, err := os.Stat(cacheDir); !os.IsNotExist(err) {
		t.Errorf("refused assignment touched the cache (stat: %v)", err)
	}

	// The well-formed body runs and answers with one strict report.
	var out bytes.Buffer
	if err := ServeWorker(bytes.NewReader(body), &out, env); err != nil {
		t.Fatal(err)
	}
	var r WorkerReport
	if err := decodeHandoff(&out, "worker report", &r, &r.Schema); err != nil {
		t.Fatal(err)
	}
	if len(r.Results) != 1 || r.Results[0].State != UnitDone || r.Stats.Misses != 1 {
		t.Errorf("report = %+v, want one computed unit", r)
	}
}

// TestStolenUnitKeepsDone: when workers report conflicting outcomes
// for one (stolen) unit, a done from one is never overwritten by a
// failed from another, whichever reports first; a unit no worker
// reports stays pending, and the round fails resumably.
func TestStolenUnitKeepsDone(t *testing.T) {
	for _, doneFirst := range []bool{true, false} {
		m, units, err := NewManifest(testGrid())
		if err != nil {
			t.Fatal(err)
		}
		c := &Coordinator{
			Manifest: m,
			Units:    units,
			CacheDir: filepath.Join(t.TempDir(), "cache"),
			Procs:    2,
			Strategy: Steal,
			Spawn: func(w int, a *Assignment) (*WorkerReport, error) {
				r := &WorkerReport{Schema: AssignmentSchema, Results: make([]UnitResult, len(a.Units))}
				for j, u := range a.Units {
					// Unit 0 is done by one worker and failed by the
					// other; unit 1 is failed by both; units 2 and 3
					// are left unreported (pending).
					switch {
					case u.Index == 0 && (w == 0) == doneFirst:
						r.Results[j] = UnitResult{State: UnitDone}
					case u.Index <= 1:
						r.Results[j] = UnitResult{State: UnitFailed, Err: fmt.Sprintf("worker %d", w)}
					default:
						r.Results[j] = UnitResult{State: UnitPending}
					}
				}
				return r, nil
			},
		}
		var out bytes.Buffer
		if _, err := c.Run(&out); err == nil {
			t.Fatal("round with failed units reported success")
		}
		want := []UnitState{UnitDone, UnitFailed, UnitPending, UnitPending}
		for i, u := range m.Units {
			if u.State != want[i] {
				t.Errorf("doneFirst=%v: unit %d ended %s, want %s", doneFirst, i, u.State, want[i])
			}
		}
		if m.Units[0].Err != "" {
			t.Errorf("doneFirst=%v: done unit kept error %q", doneFirst, m.Units[0].Err)
		}
	}
}

// FuzzHandoffJSON drives the sweep's JSON boundaries with arbitrary
// bytes: the strict decoder plus manifest validation, and the
// assignment and report handoff bodies. Decoding must never panic, and
// a body that decodes must re-encode to a body that decodes to the
// same value (compared by encoding, since JSON does not tell an empty
// list from an omitted one).
func FuzzHandoffJSON(f *testing.F) {
	m, units, err := NewManifest(testGrid())
	if err != nil {
		f.Fatal(err)
	}
	m.Units[1].State = UnitFailed
	m.Units[1].Err = "boom"
	for _, v := range []any{
		m,
		&Assignment{Schema: AssignmentSchema, CacheDir: "c", Workers: 2, Units: units[:2]},
		&WorkerReport{Schema: AssignmentSchema, Results: []UnitResult{{State: UnitDone, Cached: true}, {State: UnitFailed, Err: "x"}}},
	} {
		data, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"schema": 1, "cache_dir": "c", "workers": 1, "units": []}{}`))
	decoders := []func([]byte) (any, error){
		func(b []byte) (any, error) {
			var m Manifest
			if err := sim.DecodeStrict(bytes.NewReader(b), &m); err != nil {
				return nil, err
			}
			return &m, m.validate()
		},
		func(b []byte) (any, error) {
			var a Assignment
			return &a, decodeHandoff(bytes.NewReader(b), "assignment", &a, &a.Schema)
		},
		func(b []byte) (any, error) {
			var r WorkerReport
			return &r, decodeHandoff(bytes.NewReader(b), "worker report", &r, &r.Schema)
		},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, decode := range decoders {
			v, err := decode(data)
			if err != nil {
				continue
			}
			enc1, err := json.Marshal(v)
			if err != nil {
				t.Fatalf("decoded body does not encode: %v", err)
			}
			back, err := decode(enc1)
			if err != nil {
				t.Fatalf("re-encoded body does not decode: %v\n%s", err, enc1)
			}
			enc2, err := json.Marshal(back)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc1, enc2) {
				t.Fatalf("round trip changed the value:\n%s\n%s", enc1, enc2)
			}
		}
	})
}

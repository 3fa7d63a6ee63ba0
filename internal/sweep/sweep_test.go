package sweep

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"maps"
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

// readGrid reads a grid file.
func readGrid(t testing.TB, path string) *Grid {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := ReadGrid(f)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// testGrid is a small campaign: 2 policies x 2 rates on a 2x2 mesh,
// cheap enough to simulate many times over in one test run.
func testGrid(t testing.TB) *Grid { return readGrid(t, "testdata/test.grid.json") }

// gridManifest builds g's campaign the way nbtisweep does.
func gridManifest(t testing.TB, g *Grid) *Manifest {
	t.Helper()
	m, err := g.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	return m
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
	g := testGrid(t)
	labels, specs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	labels2, specs2, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(labels, labels2) || !reflect.DeepEqual(specs, specs2) {
		t.Fatal("two expansions of one grid differ")
	}
	wantLabels := []string{
		"baseline/0.1", "baseline/0.2",
		"sensor-wise/0.1", "sensor-wise/0.2",
	}
	if !reflect.DeepEqual(labels, wantLabels) || len(specs) != len(labels) {
		t.Fatalf("expanded to labels %q and %d specs, want %q", labels, len(specs), wantLabels)
	}
	keys := map[string]bool{}
	for i, spec := range specs {
		key, err := sim.SpecKey(spec)
		if err != nil {
			t.Fatal(err)
		}
		if keys[key] {
			t.Errorf("point %d key %s duplicates another point", i, key[:12])
		}
		keys[key] = true
	}
	g.Axes = nil
	if labels, _, err := g.Expand(); err != nil || !reflect.DeepEqual(labels, []string{"base"}) {
		t.Errorf("grid without axes expands to %q (%v), want the one point base", labels, err)
	}
}

// TestGridManifest: a grid's campaign is NewManifest over its expanded
// labels and specs — one unit per point, each embedding its spec under
// its key — and points that are one spec are one unit under the first
// label.
func TestGridManifest(t *testing.T) {
	g := testGrid(t)
	labels, specs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	m := gridManifest(t, g)
	if m.Name != g.Name || len(m.Units) != len(specs) {
		t.Fatalf("manifest %q has %d units, want %q with %d", m.Name, len(m.Units), g.Name, len(specs))
	}
	for i, u := range m.Units {
		key, err := sim.SpecKey(specs[i])
		if err != nil {
			t.Fatal(err)
		}
		want := Unit{Index: i, Key: key, Label: labels[i], Spec: specs[i]}
		if !reflect.DeepEqual(u, want) {
			t.Errorf("unit %d = %+v, want %+v", i, u, want)
		}
	}

	g.Axes[0].Values = []json.RawMessage{json.RawMessage(`"baseline"`), json.RawMessage(`"baseline"`)}
	if m := gridManifest(t, g); len(m.Units) != 2 || m.Units[0].Label != "baseline/0.1" || m.Units[1].Label != "baseline/0.2" {
		t.Errorf("repeated policy value: units %+v, want two units under the first labels", m.Units)
	}
	if _, err := NewManifest("short", labels[:1], specs); err == nil {
		t.Error("manifest with fewer labels than specs accepted")
	}
}

// TestGridMatchesScenarioForm: the grids of earlier builds (the CI
// grid, the test grid and its app variant, the benchmark grid; kept as
// testdata/*.old.json) expanded to the specs in testdata/*.specs.json.
// Their spec-path forms (testdata/*.grid.json) expand to the same spec
// bytes in the same order, so a campaign keeps its unit keys. The old
// app variant's rate axis compiled to one spec twice, so it is compared
// as the campaign's units.
func TestGridMatchesScenarioForm(t *testing.T) {
	for _, name := range []string{"ci", "test", "app", "bench"} {
		data, err := os.ReadFile("testdata/" + name + ".specs.json")
		if err != nil {
			t.Fatal(err)
		}
		var old []json.RawMessage
		if err := json.Unmarshal(data, &old); err != nil {
			t.Fatal(err)
		}
		var want []json.RawMessage
		var wantKeys []string
		seen := map[string]bool{}
		for _, raw := range old {
			var spec sim.Spec
			if err := sim.DecodeStrict(bytes.NewReader(raw), &spec); err != nil {
				t.Fatal(err)
			}
			key, err := sim.SpecKey(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !seen[key] {
				seen[key] = true
				want, wantKeys = append(want, raw), append(wantKeys, key)
			}
		}
		g := readGrid(t, "testdata/"+name+".grid.json")
		_, specs, err := g.Expand()
		if err != nil {
			t.Fatal(err)
		}
		m := gridManifest(t, g)
		if len(specs) != len(want) || len(m.Units) != len(want) {
			t.Fatalf("%s: %d points, %d units, want %d", name, len(specs), len(m.Units), len(want))
		}
		for i, u := range m.Units {
			got, err := json.Marshal(specs[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want[i]) || u.Key != wantKeys[i] {
				t.Errorf("%s point %d:\n got %s\nwant %s", name, i, got, want[i])
			}
		}
	}
}

// TestGridRefusesScenarioForm: a grid in the scenario form is refused
// with the rewrite it needs, whichever half of it is old.
func TestGridRefusesScenarioForm(t *testing.T) {
	newForm, err := os.ReadFile("testdata/test.grid.json")
	if err != nil {
		t.Fatal(err)
	}
	var g map[string]json.RawMessage
	if err := json.Unmarshal(newForm, &g); err != nil {
		t.Fatal(err)
	}
	oldAxes := maps.Clone(g)
	oldAxes["axes"] = json.RawMessage(`{"policies": ["baseline", "sensor-wise"]}`)
	oldBase := maps.Clone(g)
	oldBase["base"] = json.RawMessage(`{"cores": 4, "vcs": 1, "workload": "uniform", "measure": 2000}`)
	cases := map[string][]byte{}
	for name, v := range map[string]any{"object axes": oldAxes, "scenario base": oldBase} {
		if cases[name], err = json.Marshal(v); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"ci", "test", "app", "bench"} {
		if cases[name+".old.json"], err = os.ReadFile("testdata/" + name + ".old.json"); err != nil {
			t.Fatal(err)
		}
	}
	for name, data := range cases {
		_, err := ReadGrid(bytes.NewReader(data))
		if err == nil || !strings.Contains(err.Error(), "nbtisim -emit-spec") ||
			!strings.Contains(err.Error(), `{"path", "values"}`) || !strings.Contains(err.Error(), "-manifest") {
			t.Errorf("%s: error %v, want the rewrite instructions", name, err)
		}
	}
}

// axisGrid is the test grid with its axes replaced by the given JSON
// list.
func axisGrid(t *testing.T, axes string) *Grid {
	t.Helper()
	g := testGrid(t)
	if err := json.Unmarshal([]byte(axes), &g.Axes); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGridLoadRejectsBadPoints: a grid that cannot expand is refused with an error
// naming the offending axis path or point, and a grid too large to
// walk with its point count.
func TestGridLoadRejectsBadPoints(t *testing.T) {
	overflow := make([]string, 64)
	for i := range overflow {
		overflow[i] = `{"path": "gen.seed", "values": [1, 2]}`
	}
	for axes, want := range map[string]string{
		`[{"path": "net.Bogus", "values": [1]}]`:                     `"net.Bogus"`,
		`[{"path": "gen.rate.x", "values": [1]}]`:                    `"gen.rate.x"`,
		`[{"path": "net.Policy", "values": [1]}]`:                    `"net.Policy"`,
		`[{"path": "gen.rate", "values": ["fast"]}]`:                 `"gen.rate"`,
		`[{"path": "gen.rate", "values": [null]}]`:                   `"gen.rate"`,
		`[{"path": "probes", "values": [[{"Node": 0, "Prot": 2}]]}]`: `"probes"`,
		`[{"path": "net", "values": [{"Width": 3, "Bogus": 1}]}]`:    `"net"`,
		`[{"path": "gen.rate", "values": []}]`:                       `"gen.rate" has no values`,
		`[{"path": "gen.pattern", "values": ["uniform", "spiral"]}]`: "point spiral",
		"[" + strings.Join(overflow[:17], ",") + "]":                 "131072 points, over the 65536-point limit",
		"[" + strings.Join(overflow, ",") + "]":                      "2^64 or more points",
	} {
		_, _, err := axisGrid(t, axes).Expand()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("axes %.60s: error %v, want one containing %s", axes, err, want)
		}
	}
	for name, body := range map[string]string{
		"unknown field": `{"name":"x","base":{"measure":100},"axis":[]}`,
		"trailing data": `{"name":"x","base":{"measure":100}}{"junk":1}`,
	} {
		if _, err := ReadGrid(strings.NewReader(body)); err == nil {
			t.Errorf("grid with %s accepted", name)
		}
	}
}

// TestGridSweepsAgingAndVariation: any spec field is an axis — here the
// joint temperature × process-variation study — and the campaign runs.
func TestGridSweepsAgingAndVariation(t *testing.T) {
	g := axisGrid(t, `[{"path": "net.NBTI.TempK", "values": [330, 370]},
		{"path": "net.PV.Sigma", "values": [0.005, 0.01, 0.02]}]`)
	labels, specs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"330/0.005", "330/0.01", "330/0.02", "370/0.005", "370/0.01", "370/0.02"}
	if !reflect.DeepEqual(labels, want) {
		t.Fatalf("labels %q, want %q", labels, want)
	}
	for i, spec := range specs {
		temp, sigma := []float64{330, 370}[i/3], []float64{0.005, 0.01, 0.02}[i%3]
		if spec.Net.NBTI.TempK != temp || spec.Net.PV.Sigma != sigma {
			t.Errorf("point %s: TempK %v Sigma %v", labels[i], spec.Net.NBTI.TempK, spec.Net.PV.Sigma)
		}
		spec.Net.NBTI.TempK, spec.Net.PV.Sigma = g.Base.Net.NBTI.TempK, g.Base.Net.PV.Sigma
		if !reflect.DeepEqual(spec, g.Base) {
			t.Errorf("point %s changed fields off its axes", labels[i])
		}
	}
	res, err := (&Coordinator{Manifest: gridManifest(t, g), CacheDir: t.TempDir(), Workers: 1}).Run(io.Discard)
	if err != nil || res.Done != len(want) {
		t.Fatalf("campaign: %+v, %v", res, err)
	}
}

// TestGridObjectValue: an object value merges key by key, so one axis
// moves the mesh and the generator geometry together; its label is its
// compact JSON, which the report quotes as one CSV field.
func TestGridObjectValue(t *testing.T) {
	g := axisGrid(t, `[{"path": "", "values": [
		{"net": {"Width": 4, "Height": 1}, "gen": {"width": 4, "height": 1}},
		{"net": {"Width": 2, "Height": 2}, "gen": {"width": 2, "height": 2}}]}]`)
	labels, specs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if labels[0] != `{"net":{"Width":4,"Height":1},"gen":{"width":4,"height":1}}` {
		t.Errorf("label %s", labels[0])
	}
	if s := specs[0]; s.Net.Width != 4 || s.Net.Height != 1 || s.Gen.Width != 4 || s.Gen.Height != 1 ||
		s.Net.VCsPerVNet != g.Base.Net.VCsPerVNet || s.Gen.Rate != g.Base.Gen.Rate {
		t.Errorf("merged spec %+v", s)
	}
	if !reflect.DeepEqual(specs[1], g.Base) {
		t.Error("the base geometry written back is not the base")
	}
	m := gridManifest(t, g)
	var out bytes.Buffer
	if _, err := (&Coordinator{Manifest: m, CacheDir: t.TempDir(), Workers: 1}).Run(&out); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(strings.SplitN(out.String(), "\n", 2)[1])).ReadAll()
	if err != nil || len(rows) != 3 || rows[1][1] != labels[0] || rows[2][1] != labels[1] {
		t.Errorf("report rows %q (%v), want the labels as single fields", rows, err)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := gridManifest(t, testGrid(t))
	path := filepath.Join(t.TempDir(), "m.json")
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
}

// TestManifestSaveIsReadable: a saved manifest is world-readable, not
// the 0600 of its temp file, so a campaign can be shared.
func TestManifestSaveIsReadable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	if err := gridManifest(t, testGrid(t)).Save(path); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if mode := info.Mode().Perm(); mode != 0o644 {
		t.Errorf("manifest mode %v, want 0644", mode)
	}
}

// TestManifestValidation: LoadManifest refuses a damaged manifest —
// including one whose units drifted from their specs, so a loaded
// manifest is always ready to run.
func TestManifestValidation(t *testing.T) {
	m := gridManifest(t, testGrid(t))
	dir := t.TempDir()
	save := func(name string, mutate func(*Manifest)) string {
		t.Helper()
		c := *m
		c.Units = append([]Unit{}, m.Units...)
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
		"schema.json":     func(m *Manifest) { m.Schema = 99 },
		"engine.json":     func(m *Manifest) { m.Engine = "other-engine" },
		"index.json":      func(m *Manifest) { m.Units[1].Index = 7 },
		"key.json":        func(m *Manifest) { m.Units[0].Key = "" },
		"edited-key.json": func(m *Manifest) { m.Units[0].Key = strings.Repeat("ab", 32) },
		"swapped-key.json": func(m *Manifest) {
			m.Units[0].Key, m.Units[1].Key = m.Units[1].Key, m.Units[0].Key
		},
		"edited-spec.json": func(m *Manifest) { m.Units[2].Spec.Measure++ },
		"no-spec.json":     func(m *Manifest) { m.Units[3].Spec = sim.Spec{} },
	} {
		if _, err := LoadManifest(save(name, mutate)); err == nil {
			t.Errorf("%s: damaged manifest accepted", name)
		}
	}

	// A misspelled field is refused, not ignored: "unit" would
	// otherwise load as a manifest with no units at all. So is the grid
	// form of older builds, which names the generating grid.
	ok := save("ok.json", func(*Manifest) {})
	if _, err := LoadManifest(ok); err != nil {
		t.Fatalf("undamaged manifest refused: %v", err)
	}
	data, err := os.ReadFile(ok)
	if err != nil {
		t.Fatal(err)
	}
	for name, edit := range map[string][2]string{
		"misspelled.json": {`"units"`, `"unit"`},
		"grid-form.json":  {`"units"`, `"grid_key":"0123","units"`},
	} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, bytes.Replace(data, []byte(edit[0]), []byte(edit[1]), 1), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadManifest(p); err == nil {
			t.Errorf("%s: manifest accepted", name)
		}
	}

	// A schema-1 manifest journalled each unit's state. It is refused
	// by its schema, with the way to regenerate it, not by the first
	// field strict decoding trips on.
	legacy := bytes.ReplaceAll(bytes.Replace(data, []byte(`"schema":2`), []byte(`"schema":1`), 1),
		[]byte(`"label":`), []byte(`"state":"done","label":`))
	p := filepath.Join(dir, "schema1.json")
	if err := os.WriteFile(p, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadManifest(p)
	if err == nil {
		t.Fatal("schema-1 manifest accepted")
	}
	for _, want := range []string{"schema 1", "-sweep-manifest", "nbtisweep -grid", "-manifest", "cache serves"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("schema-1 refusal %q does not mention %q", err, want)
		}
	}
}

// TestSpecManifestResolves: a spec-list manifest is written before
// anything runs — duplicates folded in enumeration
// order under their first label — and loads back ready to run.
func TestSpecManifestResolves(t *testing.T) {
	labels, specs, err := testGrid(t).Expand()
	if err != nil {
		t.Fatal(err)
	}
	want := gridManifest(t, testGrid(t))
	labels = append(labels, "again-1", "again-0")
	specs = append(specs, specs[1], specs[0])
	m, err := NewManifest(want.Name, labels, specs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, want) {
		t.Fatalf("duplicates not folded:\n got %+v\nwant %+v", m.Units, want.Units)
	}
	path := filepath.Join(t.TempDir(), "listed.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, want) {
		t.Errorf("loaded manifest differs:\n got %+v\nwant %+v", back.Units, want.Units)
	}
	// A spec that cannot be keyed cannot be a unit.
	bad := specs[0]
	bad.Net.Policy = func() noc.Policy { return nil }
	if _, err := NewManifest("bad", []string{"bad"}, []sim.Spec{bad}); err == nil {
		t.Error("unkeyable spec accepted")
	}
}

// TestAssignRotates: every worker gets the whole pending list, as a
// rotation starting at its own offset, and empty shares are present.
func TestAssignRotates(t *testing.T) {
	pending := []int{3, 5, 8, 9, 12, 20, 21}
	shares := Assign(pending, 3)
	if len(shares) != 3 {
		t.Fatalf("procs = %d", len(shares))
	}
	for w, perm := range shares {
		if len(perm) != len(pending) {
			t.Fatalf("worker %d got %d units, want all %d", w, len(perm), len(pending))
		}
		sorted := append([]int{}, perm...)
		sort.Ints(sorted)
		if !reflect.DeepEqual(sorted, pending) {
			t.Errorf("worker %d list is not a permutation: %v", w, perm)
		}
	}
	if want := []int{8, 9, 12, 20, 21, 3, 5}; !reflect.DeepEqual(shares[1], want) {
		t.Errorf("worker 1 list = %v, want the rotation %v", shares[1], want)
	}
	if reflect.DeepEqual(shares[0], shares[1]) {
		t.Error("workers start at the same offset")
	}

	// Degenerate shapes.
	if got := Assign(nil, 2); len(got) != 2 || got[0] == nil || len(got[0]) != 0 {
		t.Errorf("empty pending: %v", got)
	}
	if got := Assign([]int{1}, 4); len(got) != 4 {
		t.Errorf("more procs than units: %v", got)
	}
}

// runCampaign builds the grid's campaign fresh and runs a full coordinator round
// in the given topology, returning the merged report bytes and the
// round result.
func runCampaign(t *testing.T, dir string, procs, workers int) ([]byte, *Result) {
	t.Helper()
	c := &Coordinator{
		Manifest: gridManifest(t, testGrid(t)),
		CacheDir: filepath.Join(dir, "cache"),
		Procs:    procs,
		Workers:  workers,
		Clock:    realClock(),
		Lease:    testLease(),
	}
	var out bytes.Buffer
	res, err := c.Run(&out)
	if err != nil {
		t.Fatalf("campaign (%d procs, %d workers): %v", procs, workers, err)
	}
	return out.Bytes(), res
}

// TestMergedOutputByteIdenticalAcrossTopologies is the acceptance
// pin: every (processes x workers) layout produces the same merged
// bytes, each from its own cold cache.
func TestMergedOutputByteIdenticalAcrossTopologies(t *testing.T) {
	base, _ := runCampaign(t, t.TempDir(), 1, 1)
	if len(base) == 0 || !bytes.HasPrefix(base, []byte("# nbtinoc sweep t ")) {
		t.Fatalf("unexpected report header: %q", base[:min(len(base), 60)])
	}
	for _, tc := range []struct{ procs, workers int }{
		{1, 4},
		{2, 1},
		{2, 2},
		{3, 1},
	} {
		got, _ := runCampaign(t, t.TempDir(), tc.procs, tc.workers)
		if !bytes.Equal(got, base) {
			t.Errorf("(%d procs, %d workers) diverged from 1-proc/-j1:\n got: %s\nwant: %s",
				tc.procs, tc.workers, got, base)
		}
	}
}

// TestSharedCacheSingleCompute: multiple worker processes over ONE
// cache dir perform exactly one compute per unique key — the summed
// stats prove the cross-process single-flight through the full stack.
// Workers skip keys the cache holds without reading them, so the only
// hits are the merge's one per unit plus one per unit a worker waited
// out on another's lease; reading every other worker's entries again
// would make about twice as many.
func TestSharedCacheSingleCompute(t *testing.T) {
	for _, procs := range []int{2, 3} {
		out, res := runCampaign(t, t.TempDir(), procs, 1)
		if len(out) == 0 {
			t.Fatalf("%d procs: empty report", procs)
		}
		if res.Stats.Misses != 4 {
			t.Errorf("%d procs: %d misses across the campaign, want exactly 4 (one per key); stats %s",
				procs, res.Stats.Misses, res.Stats)
		}
		if res.Done != 4 || res.Failed != 0 {
			t.Errorf("%d procs: done=%d failed=%d, want 4/0", procs, res.Done, res.Failed)
		}
		if res.Stats.Hits > 4+res.Stats.LeaseWaited {
			t.Errorf("%d procs: %d hits, want at most 4 (the merge) + %d lease waits; stats %s",
				procs, res.Stats.Hits, res.Stats.LeaseWaited, res.Stats)
		}
	}
}

// TestWorkerSkipsHeldKeysUnread: a worker handed units the cache
// already holds skips them without reading a byte, and reports no
// error for them.
func TestWorkerSkipsHeldKeysUnread(t *testing.T) {
	dir := t.TempDir()
	runCampaign(t, dir, 1, 1)
	m := gridManifest(t, testGrid(t))
	a := &Assignment{Schema: AssignmentSchema, CacheDir: filepath.Join(dir, "cache"), Workers: 2}
	for _, u := range m.Units {
		a.Specs = append(a.Specs, u.Spec)
	}
	r := RunAssignment(a, WorkerEnv{Clock: realClock(), Lease: testLease()})
	if want := make([]string, len(m.Units)); !reflect.DeepEqual(r.Errs, want) {
		t.Errorf("errs = %q, want %d empty entries", r.Errs, len(want))
	}
	if r.Stats != (cache.Stats{}) {
		t.Errorf("worker over a warm cache touched it: %s", r.Stats)
	}
}

// killAfterOne is a Spawn that "kills" the workers for which dies
// reports true after one unit — it computes the first spec of the share
// into the shared cache and never reports — and runs every other worker
// in-process to the end.
func killAfterOne(dies func(w int) bool) func(int, *Assignment) (*WorkerReport, error) {
	return func(w int, a *Assignment) (*WorkerReport, error) {
		env := WorkerEnv{Clock: realClock(), Lease: testLease()}
		if dies(w) {
			a.Specs = a.Specs[:1]
			RunAssignment(a, env)
			return nil, &killedError{}
		}
		return RunAssignment(a, env), nil
	}
}

// createManifest saves g's campaign the way a CLI creates one and
// returns its path and file bytes.
func createManifest(t *testing.T, dir string, g *Grid) (string, []byte) {
	t.Helper()
	path := filepath.Join(dir, "manifest.json")
	if err := gridManifest(t, g).Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

// loadUnchanged loads the manifest at path after checking its bytes
// are still the ones it was created with: a campaign never rewrites
// its manifest.
func loadUnchanged(t *testing.T, path string, created []byte) *Manifest {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, created) {
		t.Fatalf("manifest bytes changed after creation:\n got %s\nwant %s", data, created)
	}
	m, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// pendingIn counts m's units the cache at dir does not hold, through a
// read-only handle as nbtisweep -status opens it.
func pendingIn(m *Manifest, dir string) int {
	return len(m.Pending(cache.Open(dir, cache.ReadOnly)))
}

// TestKilledThenResumedMatchesUninterrupted kills every worker after
// one unit (no report is ever written), checks the round fails with
// units the cache does not hold, then resumes from the unchanged
// manifest and pins the merged bytes against an uninterrupted run.
func TestKilledThenResumedMatchesUninterrupted(t *testing.T) {
	want, _ := runCampaign(t, t.TempDir(), 1, 1)

	dir := t.TempDir()
	manifestPath, created := createManifest(t, dir, testGrid(t))
	cacheDir := filepath.Join(dir, "cache")
	killed := &Coordinator{
		Manifest: loadUnchanged(t, manifestPath, created),
		CacheDir: cacheDir,
		Procs:    2,
		Workers:  1,
		Clock:    realClock(),
		Lease:    testLease(),
		Spawn:    killAfterOne(func(int) bool { return true }),
	}
	var out bytes.Buffer
	if _, err := killed.Run(&out); err == nil {
		t.Fatal("round with killed workers reported success")
	}
	if out.Len() != 0 {
		t.Fatalf("killed round wrote a merged report: %q", out.String())
	}

	// Resume from the manifest file, as a fresh invocation would.
	loaded := loadUnchanged(t, manifestPath, created)
	pending := pendingIn(loaded, cacheDir)
	if pending == 0 || pending == len(loaded.Units) {
		t.Fatalf("cache holds %d of %d units after every worker was killed after one, want some but not all",
			len(loaded.Units)-pending, len(loaded.Units))
	}
	resumed := &Coordinator{
		Manifest: loaded,
		CacheDir: cacheDir,
		Procs:    1,
		Workers:  1,
		Clock:    realClock(),
		Lease:    testLease(),
	}
	out.Reset()
	res, err := resumed.Run(&out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("resumed report diverged from uninterrupted:\n got: %s\nwant: %s", out.Bytes(), want)
	}
	if res.Stats.Misses != int64(pending) || res.Done != len(loaded.Units) {
		t.Errorf("resume computed %d units and ended with %d done, want the %d pending computed and all %d done",
			res.Stats.Misses, res.Done, pending, len(loaded.Units))
	}
	loadUnchanged(t, manifestPath, created)
}

// TestDeadWorkerShareTakenOverInRun: when one worker dies after one
// unit, the survivor runs the rest of the pending list in the same
// round. The round still fails (a worker died) and writes no report,
// but the cache holds every unit.
func TestDeadWorkerShareTakenOverInRun(t *testing.T) {
	dir := t.TempDir()
	manifestPath, created := createManifest(t, dir, testGrid(t))
	cacheDir := filepath.Join(dir, "cache")
	c := &Coordinator{
		Manifest: loadUnchanged(t, manifestPath, created),
		CacheDir: cacheDir,
		Procs:    2,
		Workers:  1,
		Clock:    realClock(),
		Lease:    testLease(),
		Spawn:    killAfterOne(func(w int) bool { return w == 0 }),
	}
	var out bytes.Buffer
	res, err := c.Run(&out)
	if err == nil {
		t.Fatal("round with a killed worker reported success")
	}
	if out.Len() != 0 {
		t.Fatalf("killed round wrote a merged report: %q", out.String())
	}
	loaded := loadUnchanged(t, manifestPath, created)
	if p := pendingIn(loaded, cacheDir); p != 0 || res.Done != len(loaded.Units) || res.Failed != 0 {
		t.Errorf("after the survivor's round: %d pending in the cache, result %d done %d failed; want all %d done",
			p, res.Done, res.Failed, len(loaded.Units))
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
	const assignment = `{"schema": 3, "cache_dir": "c", "workers": 1, "specs": []%s}%s`
	const report = `{"schema": 3, "errs": ["", "boom"], "stats": {}%s}%s`
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
		{"assignment-schema", `{"schema": 2, "cache_dir": "c", "workers": 1, "specs": []}`, decodeAssignment, false},
		{"assignment-units", `{"schema": 1, "cache_dir": "c", "workers": 1, "units": []}`, decodeAssignment, false},
		{"report", fmt.Sprintf(report, "", "\n"), decodeReport, true},
		{"report-misspelled", fmt.Sprintf(report, `, "stat": {}`, ""), decodeReport, false},
		{"report-trailing", fmt.Sprintf(report, "", `{"schema": 3}`), decodeReport, false},
		{"report-schema2", `{"schema": 2, "results": [{"state": "done", "cached": false}], "stats": {}}`, decodeReport, false},
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
	_, specs, err := testGrid(t).Expand()
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(&Assignment{Schema: AssignmentSchema, CacheDir: cacheDir, Workers: 1, Specs: specs[:1]})
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
	if len(r.Errs) != 1 || r.Errs[0] != "" || r.Stats.Misses != 1 {
		t.Errorf("report = %+v, want one computed unit", r)
	}
}

// failingSpawn is a Spawn whose worker w reports fail(w, key), when it
// is non-empty, as the error of the unit with that key without running
// it, and runs the worker's other units in-process.
func failingSpawn(t *testing.T, fail func(w int, key string) string) func(int, *Assignment) (*WorkerReport, error) {
	return func(w int, a *Assignment) (*WorkerReport, error) {
		run := *a
		run.Specs = nil
		var at []int
		errs := make([]string, len(a.Specs))
		for j, spec := range a.Specs {
			key, err := sim.SpecKey(spec)
			if err != nil {
				t.Error(err)
			}
			if errs[j] = fail(w, key); errs[j] == "" {
				run.Specs = append(run.Specs, spec)
				at = append(at, j)
			}
		}
		r := RunAssignment(&run, WorkerEnv{Clock: realClock(), Lease: testLease()})
		for k, j := range at {
			errs[j] = r.Errs[k]
		}
		r.Errs = errs
		return r, nil
	}
}

// TestFailedUnitDoneElsewhereCountsDone: a unit one worker reports
// failed but another finishes is done, because the cache holds it. A
// unit every worker fails is pending in the cache, counted failed and
// named in the round's error, and the next run retries it.
func TestFailedUnitDoneElsewhereCountsDone(t *testing.T) {
	want, _ := runCampaign(t, t.TempDir(), 1, 1)
	m := gridManifest(t, testGrid(t))
	newCoordinator := func(dir string) *Coordinator {
		return &Coordinator{Manifest: m, CacheDir: dir, Procs: 2, Workers: 1, Clock: realClock(), Lease: testLease()}
	}

	// Worker 1 fails every unit; worker 0 finishes them all.
	c := newCoordinator(filepath.Join(t.TempDir(), "cache"))
	c.Spawn = failingSpawn(t, func(w int, _ string) string {
		if w == 1 {
			return "worker 1: boom"
		}
		return ""
	})
	var out bytes.Buffer
	res, err := c.Run(&out)
	if err != nil {
		t.Fatalf("units another worker finished failed the round: %v", err)
	}
	if res.Done != len(m.Units) || res.Failed != 0 || !bytes.Equal(out.Bytes(), want) {
		t.Errorf("done=%d failed=%d, want %d/0 and the uninterrupted report; got:\n%s",
			res.Done, res.Failed, len(m.Units), out.Bytes())
	}

	// Both workers fail unit 1.
	cacheDir := filepath.Join(t.TempDir(), "cache")
	c = newCoordinator(cacheDir)
	c.Spawn = failingSpawn(t, func(w int, key string) string {
		if key == m.Units[1].Key {
			return fmt.Sprintf("worker %d: boom", w)
		}
		return ""
	})
	out.Reset()
	res, err = c.Run(&out)
	if err == nil || !strings.Contains(err.Error(), m.Units[1].Label) || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("round error %v does not name failed unit %s", err, m.Units[1].Label)
	}
	if res.Done != len(m.Units)-1 || res.Failed != 1 || out.Len() != 0 {
		t.Errorf("done=%d failed=%d report=%dB, want %d/1 and no report", res.Done, res.Failed, out.Len(), len(m.Units)-1)
	}
	if p := m.Pending(cache.Open(cacheDir, cache.ReadOnly)); !reflect.DeepEqual(p, []int{1}) {
		t.Errorf("pending after the failed round = %v, want [1]", p)
	}
	c.Spawn = nil
	out.Reset()
	if res, err = c.Run(&out); err != nil || res.Stats.Misses != 1 || !bytes.Equal(out.Bytes(), want) {
		t.Errorf("retry: err=%v misses=%d, want the failed unit computed once and the uninterrupted report", err, res.Stats.Misses)
	}
}

// FuzzHandoffJSON drives the sweep's JSON boundaries with arbitrary
// bytes: the strict decoder plus manifest validation, and the
// assignment and report handoff bodies. Decoding must never panic, and
// a body that decodes must re-encode to a body that decodes to the
// same value (compared by encoding, since JSON does not tell an empty
// list from an omitted one).
func FuzzHandoffJSON(f *testing.F) {
	m := gridManifest(f, testGrid(f))
	for _, v := range []any{
		m,
		&Assignment{Schema: AssignmentSchema, CacheDir: "c", Workers: 2, Specs: []sim.Spec{m.Units[0].Spec, m.Units[1].Spec}},
		&WorkerReport{Schema: AssignmentSchema, Errs: []string{"", "x"}},
	} {
		data, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"schema": 3, "cache_dir": "c", "workers": 1, "specs": []}{}`))
	f.Add([]byte(`{"schema": 2, "results": [{"state": "done", "cached": true}], "stats": {}}`))
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

// FuzzGridJSON drives grid decoding and expansion with arbitrary bytes.
// Neither may panic, and a grid that expands stays within MaxPoints
// with one label per spec.
func FuzzGridJSON(f *testing.F) {
	for _, path := range []string{"testdata/ci.grid.json", "testdata/ci.old.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	overflow := make([]string, 64)
	for i := range overflow {
		overflow[i] = `{"path": "gen.seed", "values": [1, 2]}`
	}
	f.Add([]byte(`{"name": "x", "base": {}, "axes": [` + strings.Join(overflow, ",") + `]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadGrid(bytes.NewReader(data))
		if err != nil {
			return
		}
		labels, specs, err := g.Expand()
		if err == nil && (len(labels) != len(specs) || len(specs) > MaxPoints) {
			t.Fatalf("expanded to %d labels and %d specs", len(labels), len(specs))
		}
	})
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nbtinoc/internal/sim"
)

// goldenPins ties each sim.EngineVersion to the sha256 of every golden
// fixture produced under it. The result cache keys every entry on
// EngineVersion, so stale entries are only impossible if the version
// moves whenever observable output moves — which is exactly what the
// fixtures witness. On an intentional behaviour change: regenerate the
// fixtures (see golden_test.go), bump sim.EngineVersion, and add the
// new version's pins here.
var goldenPins = map[string]map[string]string{
	"nbtinoc-engine-1": {
		"golden_coop_quick.txt":          "40d579cb705fc5d647d4515aec6d0a9609c62634e3823643dafd1630f0e7ad5c",
		"golden_table2_mesh16_quick.txt": "e662872c32ac7b05110e8b4d00f5f7138b79a61ebc50797df2d08246271ccd6b",
		"golden_all_quick.txt":           "8850fc9d44f046973c97b67a78862cab4772269d95a66251adcb84f9c11deaf7",
	},
	// engine-2: per-node rng streams with geometric skip-sampling replace
	// the single per-cycle Bernoulli sweep (statistically the same
	// process, different draw sequence), enabling event-horizon
	// fast-forward.
	"nbtinoc-engine-2": {
		"golden_coop_quick.txt":          "c60e9ff10eeb08b0ba573e18531446d202b217766cfcb373737ad1b452bcdcad",
		"golden_table2_mesh16_quick.txt": "af3b25c8f327cd4447515405914ae7a49f0b8a03b8678dd519934f97cd7e3a72",
		"golden_all_quick.txt":           "1edea050035abd0ebb4fb50427d38653a3f4f3f622c2ff85efd81de699dee447",
	},
}

// TestEngineVersionPinsGoldens fails in both directions: a fixture
// changed without an EngineVersion bump (cached results would go
// silently stale), or the version was bumped without refreshing the
// pins (the coupling would rot).
func TestEngineVersionPinsGoldens(t *testing.T) {
	pins, ok := goldenPins[sim.EngineVersion]
	if !ok {
		t.Fatalf("sim.EngineVersion %q has no golden pins — after a bump, regenerate the fixtures and record their hashes in goldenPins", sim.EngineVersion)
	}
	fixtures, err := filepath.Glob(filepath.Join("testdata", "golden_*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(fixtures) != len(pins) {
		t.Errorf("testdata has %d golden fixtures, pins cover %d — keep goldenPins exhaustive", len(fixtures), len(pins))
	}
	for _, path := range fixtures {
		name := filepath.Base(path)
		want, ok := pins[name]
		if !ok {
			t.Errorf("fixture %s has no pin under EngineVersion %q", name, sim.EngineVersion)
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("fixture %s hash %s does not match the pin for EngineVersion %q (%s)\n"+
				"an output change must bump sim.EngineVersion (invalidating the result cache) and refresh this pin",
				name, got, sim.EngineVersion, want)
		}
	}
}

// TestEngineVersionFlag: CI uses `-engine-version` to key its persisted
// cache directory, so the flag must print exactly the version string.
func TestEngineVersionFlag(t *testing.T) {
	out := runTables(t, "-engine-version")
	if strings.TrimSpace(out) != sim.EngineVersion {
		t.Errorf("-engine-version printed %q, want %q", out, sim.EngineVersion)
	}
}

// TestGoldenWithCache re-runs a golden table twice against one cache
// directory — cold (all misses) then warm (all hits) — and requires
// both byte-identical to the pinned fixture. This is the end-to-end
// exactness claim: memoization changes timing, never bytes.
func TestGoldenWithCache(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the full quick table once to fill the cache")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden_coop_quick.txt"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	args := []string{"-cache", "rw", "-cache-dir", dir, "-table", "coop", "-quick"}

	cold := runTables(t, args...)
	if cold != string(want) {
		t.Errorf("cold cached run diverged from fixture:\n%s", firstDiff(string(want), cold))
	}
	warm := runTables(t, args...)
	if warm != string(want) {
		t.Errorf("warm cached run diverged from fixture:\n%s", firstDiff(string(want), warm))
	}
}

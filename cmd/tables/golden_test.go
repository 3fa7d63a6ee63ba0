package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenOutputs pins the exact text of the deterministic tables at
// seed 1 that -table all does not cover. The fixtures were captured
// before the activity-gated engine rewrite, so a passing run proves the
// rewrite byte-identical to the original full-sweep engine — the same
// guarantee TestParallelMatchesSequential gives across -j values,
// extended across engine versions. The quick Table II and coop outputs
// are exact substrings of golden_all_quick.txt, which
// TestAllTablesGolden pins; golden_coop_quick.txt stays for
// TestGoldenWithCache. Regenerate a fixture only for an intentional
// output change:
//
//	go run ./cmd/tables -table coop -quick > cmd/tables/testdata/golden_coop_quick.txt
//	go run ./cmd/tables -table 2 -mesh 16x16 -quick > cmd/tables/testdata/golden_table2_mesh16_quick.txt
//	go run ./cmd/tables -table all -quick | grep -v '^\[table' > cmd/tables/testdata/golden_all_quick.txt
func TestGoldenOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("quick simulation windows still simulate ~22k cycles per scenario")
	}
	cases := []struct {
		name    string
		fixture string
		args    []string
	}{
		// The flat-arena engine's big-mesh scaling point: 256 routers,
		// quick windows. Slow (~1 min on one core), but it is the only
		// pin proving large meshes stay deterministic.
		{"table2-mesh16", "golden_table2_mesh16_quick.txt",
			[]string{"-table", "2", "-mesh", "16x16", "-quick"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.fixture))
			if err != nil {
				t.Fatal(err)
			}
			got := runTables(t, tc.args...)
			if got != string(want) {
				t.Errorf("output diverged from %s (want sha256 %s, got %s)\n%s",
					tc.fixture, shortHash(want), shortHash([]byte(got)),
					firstDiff(string(want), got))
			}
		})
	}
}

// TestAllTablesGolden pins every table of -table all at -quick -seed 1
// against the fixture captured on the pre-flat-arena engine, with the
// wall-clock "[table ...]" annotations stripped — the whole-output
// determinism guarantee across engine rewrites, in one run.
func TestAllTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every table at quick windows (~20s on one core)")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden_all_quick.txt"))
	if err != nil {
		t.Fatal(err)
	}
	got := stripTimings(runTables(t, "-table", "all", "-quick"))
	if got != string(want) {
		t.Errorf("-table all diverged from golden_all_quick.txt (want sha256 %s, got %s)\n%s",
			shortHash(want), shortHash([]byte(got)), firstDiff(string(want), got))
	}
}

// stripTimings drops the per-table wall-clock lines ("[table 2: ...]"),
// the only nondeterministic part of -table all output.
func stripTimings(s string) string {
	var b []byte
	for _, line := range splitLines(s) {
		if len(line) > 6 && line[:6] == "[table" {
			continue
		}
		b = append(b, line...)
		b = append(b, '\n')
	}
	return string(b)
}

func shortHash(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// firstDiff renders the first divergent line for a readable failure.
func firstDiff(want, got string) string {
	wl, gl := splitLines(want), splitLines(got)
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return "first diff at line " + itoa(i+1) + ":\n  want: " + w + "\n  got:  " + g
		}
	}
	return "outputs differ only in length"
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

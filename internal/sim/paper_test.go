package sim

import (
	"fmt"
	"testing"

	"nbtinoc/internal/core"
)

// TestPaperTablesOneSpecPerRun guards the quick paper tables against
// spelling one simulation two ways: two distinct cache keys whose specs
// differ only in their probes (which a reduction may ignore), or only
// by a default-period rr_period against the rr-no-sensor name, each run
// the same network twice. Tables that share a run must enumerate it
// under one spec, so the cache computes it once.
func TestPaperTablesOneSpecPerRun(t *testing.T) {
	opt := DefaultTableOptions()
	opt.Warmup, opt.Measure = 2_000, 20_000 // tables -quick
	tables, err := PaperTables(opt, 3, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	// normal maps a run's canonical key, with the two spellings folded
	// away, to the first spec key seen for it and where.
	type seen struct{ key, where string }
	normal := map[string]seen{}
	keys := map[string]bool{}
	for _, tab := range tables {
		for i, s := range tab.Specs {
			key, err := SpecKey(s)
			if err != nil {
				t.Fatal(err)
			}
			if keys[key] {
				continue
			}
			keys[key] = true
			s.Probes = nil
			if s.Policy.Name == "" && s.Policy.RRPeriod == core.DefaultRotatePeriod {
				s.Policy = PolicySpec{Name: "rr-no-sensor"}
			}
			canon, err := SpecKey(s)
			if err != nil {
				t.Fatal(err)
			}
			where := fmt.Sprintf("%s/%d", tab.ID, i)
			if first, ok := normal[canon]; ok {
				t.Errorf("run %s repeats run %s under another key (%s vs %s)",
					where, first.where, key[:12], first.key[:12])
				continue
			}
			normal[canon] = seen{key, where}
		}
	}
	if len(keys) == 0 {
		t.Fatal("the quick tables enumerate no runs")
	}
}

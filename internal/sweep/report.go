package sweep

import (
	"fmt"
	"io"
	"strings"

	"nbtinoc/internal/sim"
)

// WriteReport renders the merged campaign as deterministic CSV: a
// fixed header, then one row per unit in index order. Everything in
// the bytes derives from unit identity and summaries — no timing, no
// topology, no cache disposition — which is what makes the report
// byte-identical across every (processes × workers) layout and across
// killed-then-resumed runs. A label holding a comma, a quote or a line
// break (an object-valued grid axis) is quoted as encoding/csv quotes
// it, so it stays one field.
func WriteReport(w io.Writer, name string, units []Unit, sums []*sim.RunSummary) error {
	if len(units) != len(sums) {
		return fmt.Errorf("sweep: %d units, %d summaries", len(units), len(sums))
	}
	if _, err := fmt.Fprintf(w, "# nbtinoc sweep %s engine=%s units=%d\n",
		name, sim.EngineVersion, len(units)); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w,
		"index,label,key,policy,workload,avg_latency,throughput,injected,ejected,max_duty"); err != nil {
		return err
	}
	for i, u := range units {
		s := sums[i]
		if s == nil {
			return fmt.Errorf("sweep: unit %d (%s) has no summary", i, u.Label)
		}
		if _, err := fmt.Fprintf(w, "%d,%s,%s,%s,%s,%.6f,%.6f,%d,%d,%.6f\n",
			u.Index, csvField(u.Label), u.Key[:12], s.Policy, s.Workload,
			s.AvgLatency, s.Throughput, s.InjectedPackets, s.EjectedPackets,
			maxDuty(s)); err != nil {
			return err
		}
	}
	return nil
}

// csvField quotes s for a CSV row when it needs it, doubling its
// quotes, as RFC 4180 and encoding/csv do.
func csvField(s string) string {
	if !strings.ContainsAny(s, ",\"\r\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// maxDuty is the worst NBTI duty cycle over every probed port and VC —
// the scalar the paper's mitigation question turns on.
func maxDuty(s *sim.RunSummary) float64 {
	var max float64
	for _, p := range s.Ports {
		for _, d := range p.Duty {
			if d > max {
				max = d
			}
		}
	}
	return max
}

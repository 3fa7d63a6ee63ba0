package sweep

// Assign shards the pending unit positions across procs workers: every
// worker gets the full pending list, rotated so workers start claiming
// at different points. Cross-process single-flight (leases) turns the
// overlap into claims instead of duplicate work, and a dead worker's
// units are taken over in-run by the workers still going. The
// assignment is deterministic in its inputs; with nothing pending every
// worker gets an empty (never absent) list, so the caller's worker
// count is the slice length either way.
func Assign(pending []int, procs int) [][]int {
	procs = max(procs, 1)
	n := len(pending)
	out := make([][]int, procs)
	for w := range out {
		start := w * n / procs
		out[w] = append(append(make([]int, 0, n), pending[start:]...), pending[:start]...)
	}
	return out
}

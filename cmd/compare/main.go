// Command compare runs the same scenario under two recovery policies on
// identical silicon and traffic, then reports every router input port
// side by side: most-degraded-VC duty-cycle under each policy, the gap,
// and the performance deltas. It answers the practical question the
// paper's tables answer for single ports — "what does switching policy
// buy me, everywhere?" — over the whole chip.
//
// Example:
//
//	compare -a rr-no-sensor -b sensor-wise -cores 16 -vcs 4 -rate 0.2
//
// Both runs are memoized in the content-addressed result cache
// (-cache, -cache-dir; -cache=off disables), so re-comparing against
// an already-simulated policy only computes the new side.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"nbtinoc/cmd/internal/cli"
	"nbtinoc/internal/core"
	"nbtinoc/internal/noc"
	"nbtinoc/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(1)
	}
}

type portResult struct {
	node noc.NodeID
	port noc.Port
	md   int
	a, b float64 // MD-VC duty under policy A and B
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	cf := cli.Flags{Prog: "compare"}
	cf.RegisterMetrics(fs)
	cf.RegisterCache(fs)
	var (
		polA     = fs.String("a", "rr-no-sensor", "first policy: "+strings.Join(core.Names(), ", "))
		polB     = fs.String("b", "sensor-wise", "second policy")
		cores    = fs.Int("cores", 16, "number of cores (square mesh)")
		vcs      = fs.Int("vcs", 4, "VCs per vnet per input port")
		workload = fs.String("workload", "uniform", "workload name or 'app'")
		rate     = fs.Float64("rate", 0.2, "injection rate for synthetic workloads")
		warmup   = fs.Uint64("warmup", 10_000, "warm-up cycles")
		measure  = fs.Uint64("cycles", 100_000, "measured cycles")
		seed     = fs.Uint64("seed", 1, "traffic seed")
		pvSeed   = fs.Uint64("pv-seed", 1, "process-variation seed")
		phits    = fs.Int("phits", 1, "link serialization factor")
		worst    = fs.Int("top", 8, "show only the N ports with the largest |gap| (0 = all)")
		jobs     = fs.Int("j", 0, "parallel workers for the two runs: 0 = one per core, 1 = sequential")
		verbose  = fs.Bool("v", false, "print result-cache statistics to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sess, err := cf.Start(false)
	if err != nil {
		return err
	}
	defer sess.Finish(&err)

	store, err := sess.OpenCache()
	if err != nil {
		return err
	}
	side, err := sim.MeshSide(*cores)
	if err != nil {
		return err
	}
	// The two runs are independent (each owns its network), so they go
	// through the Runner's pool like the table drivers.
	policies := []string{*polA, *polB}
	specs := make([]sim.Spec, len(policies))
	for i, policy := range policies {
		scen := &sim.Scenario{
			Name:     "compare",
			Cores:    *cores,
			VCs:      *vcs,
			Policy:   policy,
			Workload: *workload,
			Rate:     *rate,
			Phits:    *phits,
			Warmup:   *warmup,
			Measure:  *measure,
			Seed:     *seed,
			PVSeed:   *pvSeed,
		}
		if specs[i], err = scen.Spec(sim.AllPortProbes(side, side)); err != nil {
			return err
		}
	}
	results, err := sim.Runner{Store: store}.RunAll(specs, *jobs)
	if err != nil {
		return err
	}
	resA, resB := results[0], results[1]

	ports, err := collect(resA, resB)
	if err != nil {
		return err
	}
	sort.Slice(ports, func(i, j int) bool {
		return abs(ports[i].a-ports[i].b) > abs(ports[j].a-ports[j].b)
	})
	shown := ports
	if *worst > 0 && len(shown) > *worst {
		shown = shown[:*worst]
	}

	fmt.Fprintf(out, "policy A = %s, policy B = %s — MD-VC NBTI-duty-cycle per port\n", *polA, *polB)
	fmt.Fprintf(out, "%-6s %-5s %-4s %10s %10s %9s\n", "node", "port", "MD", *polA, *polB, "A-B")
	for _, p := range shown {
		fmt.Fprintf(out, "%-6d %-5v %-4d %9.2f%% %9.2f%% %8.2f%%\n",
			p.node, p.port, p.md, p.a, p.b, p.a-p.b)
	}
	if len(shown) < len(ports) {
		fmt.Fprintf(out, "(%d more ports omitted; -top 0 shows all)\n", len(ports)-len(shown))
	}

	var sumA, sumB float64
	wins := 0
	for _, p := range ports {
		sumA += p.a
		sumB += p.b
		if p.b < p.a {
			wins++
		}
	}
	n := float64(len(ports))
	fmt.Fprintf(out, "\nsummary over %d ports:\n", len(ports))
	fmt.Fprintf(out, "  mean MD duty: %s %.2f%%  %s %.2f%%  (mean gap %.2f points)\n",
		*polA, sumA/n, *polB, sumB/n, (sumA-sumB)/n)
	fmt.Fprintf(out, "  %s wins on %d/%d ports\n", *polB, wins, len(ports))
	fmt.Fprintf(out, "  latency: %s %.2f cy, %s %.2f cy (Δ %+.2f)\n",
		*polA, resA.AvgLatency, *polB, resB.AvgLatency, resB.AvgLatency-resA.AvgLatency)
	fmt.Fprintf(out, "  throughput: %s %.4f, %s %.4f flits/cycle/node\n",
		*polA, resA.Throughput, *polB, resB.Throughput)
	if *verbose && store != nil {
		sess.Logf("cache: %s", store.Stats())
	}
	return nil
}

// collect pairs up the per-port MD duty-cycles of the two runs. Both
// summaries probed every input port in the same AllPortProbes order, so
// readings pair up by index.
func collect(a, b *sim.RunSummary) ([]portResult, error) {
	if len(a.Ports) != len(b.Ports) {
		return nil, fmt.Errorf("probe sets differ across runs (%d vs %d ports)",
			len(a.Ports), len(b.Ports))
	}
	var out []portResult
	for i, ra := range a.Ports {
		rb := b.Ports[i]
		md := ra.MostDegraded
		if rb.MostDegraded != md {
			return nil, fmt.Errorf("MD VC differs across runs at node %d port %v (%d vs %d) — use the same -pv-seed",
				ra.Probe.Node, ra.Probe.Port, md, rb.MostDegraded)
		}
		out = append(out, portResult{
			node: ra.Probe.Node, port: ra.Probe.Port, md: md,
			a: ra.Duty[md],
			b: rb.Duty[md],
		})
	}
	return out, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

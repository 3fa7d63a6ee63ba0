// Command benchjson converts `go test -bench` text output into the
// machine-readable perf-trajectory file BENCH_engine.json, so every PR
// can record before/after engine numbers in a stable format.
//
//	go test -bench=. -benchmem -run '^$' . | benchjson -label after -o BENCH_engine.json -append
//
// -append keeps the runs already in the output file (e.g. the "before"
// run recorded prior to an optimisation) and adds the new one. A run
// whose label already exists is replaced in place instead of
// duplicated, so labels identify data points: the Makefile labels each
// run with the short git commit hash, and re-running `make bench` on
// the same commit refreshes that commit's numbers rather than
// appending an indistinguishable copy.
// -baseline compares the parsed run against the named benchmarks of a
// pinned baseline file and exits non-zero when any regress: allocs/op
// beyond -alloc-tol percent (the guard against per-cycle allocation
// creep), B/op beyond -bytes-tol percent (the guard against memory
// growth, such as a wider per-slot record in a network arena) or sec/op
// beyond -sec-tol percent (the guard against wall-time regressions;
// wider by default, since timings are noisier than allocation counts). A benchmark that gets faster than the band is
// reported as a warning — a hint the baseline is stale — but never
// fails the run.
//
// `go test -bench -count N` prints N lines per benchmark. benchjson folds
// them into one row that records the median of every value, the median
// absolute deviation (MAD) of ns/op as its noise band, and the count, so
// the sec/op gate compares medians instead of gating each repeat.
//
// `go test -bench` appends "-N" to every benchmark name when GOMAXPROCS
// is N > 1. benchjson strips that suffix, on the parsed run and on the
// baseline alike, so a pin recorded on one machine gates runs on any
// other; N is kept in the run's procs field, next to the recording
// machine's core count.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// Benchmark is one benchmark's result: a parsed line, or the fold of
// the Count lines a `go test -count` run printed for it.
type Benchmark struct {
	Name string `json:"name"`
	// Iterations is the total over the folded lines.
	Iterations int64 `json:"iterations"`
	// NsPerOp, BytesPerOp, AllocsPerOp and Metrics are medians over the
	// folded lines.
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
	// Count is the number of folded lines, absent for a single line.
	Count int `json:"count,omitempty"`
	// NsPerOpMAD is the median absolute deviation of ns/op over the
	// folded lines, absent for a single line.
	NsPerOpMAD float64 `json:"ns_per_op_mad,omitempty"`
}

// Run is one labelled `go test -bench` invocation.
type Run struct {
	Label  string `json:"label"`
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	Pkg    string `json:"pkg,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// Procs is the GOMAXPROCS the benchmarks ran with, read off their
	// name suffix (1 when there is none).
	Procs int `json:"procs,omitempty"`
	// Cores is the logical CPU count of the machine that recorded the
	// run.
	Cores      int         `json:"cores,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// File is the whole trajectory file: one run per recorded data point.
type File struct {
	Runs []Run `json:"runs"`
}

// upsert adds r to the trajectory, replacing an existing run with the
// same label in place (keeping its position in the history) rather than
// appending a duplicate data point.
func (f *File) upsert(r Run) {
	for i := range f.Runs {
		if f.Runs[i].Label == r.Label {
			f.Runs[i] = r
			return
		}
	}
	f.Runs = append(f.Runs, r)
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, errOut io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	var (
		out      = fs.String("o", "BENCH_engine.json", "output JSON file")
		label    = fs.String("label", "run", "label for this benchmark run")
		appendTo = fs.Bool("append", false, "keep existing runs in the output file")
		baseline = fs.String("baseline", "", "pinned baseline JSON; fail on allocs/op, B/op or sec/op regression against it")
		allocTol = fs.Float64("alloc-tol", 10, "allowed allocs/op increase over the baseline, percent")
		bytesTol = fs.Float64("bytes-tol", 10, "allowed B/op increase over the baseline, percent")
		secTol   = fs.Float64("sec-tol", 25, "allowed sec/op increase over the baseline, percent")
		secFloor = fs.Float64("sec-floor", 0.1, "exempt benchmarks whose baseline sec/op is below this from the sec/op gate")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	parsed, err := parseBench(in)
	if err != nil {
		return err
	}
	if len(parsed.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found on stdin")
	}
	parsed.Label = *label
	parsed.Cores = runtime.NumCPU()

	var file File
	if *appendTo {
		if data, err := os.ReadFile(*out); err == nil {
			if err := json.Unmarshal(data, &file); err != nil {
				return fmt.Errorf("parsing existing %s: %w", *out, err)
			}
		} else if !os.IsNotExist(err) {
			return err
		}
	}
	file.upsert(parsed)

	data, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		return err
	}

	if *baseline != "" {
		base, err := loadBaseline(*baseline)
		if err != nil {
			return err
		}
		var failures int
		for _, r := range checkAllocs(parsed, base, *allocTol) {
			fmt.Fprintln(errOut, "allocs/op regression:", r)
			failures++
		}
		for _, r := range checkBytes(parsed, base, *bytesTol) {
			fmt.Fprintln(errOut, "B/op regression:", r)
			failures++
		}
		regressions, improvements := checkSecOp(parsed, base, *secTol, *secFloor)
		for _, r := range regressions {
			fmt.Fprintln(errOut, "sec/op regression:", r)
			failures++
		}
		for _, r := range improvements {
			fmt.Fprintln(errOut, "sec/op improvement beyond band (consider refreshing the baseline):", r)
		}
		if failures > 0 {
			return fmt.Errorf("%d benchmark(s) regressed beyond the baseline tolerance", failures)
		}
	}
	return nil
}

// parseBench reads `go test -bench` text output. A benchmark line is
// the name, the iteration count, then (value, unit) pairs; -benchmem
// adds B/op and allocs/op, b.ReportMetric adds custom units.
func parseBench(in io.Reader) (Run, error) {
	var run Run
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			run.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			run.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			run.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			run.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{Name: fields[0], Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return run, fmt.Errorf("benchmark %s: bad value %q", b.Name, fields[i])
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = val
			case "B/op":
				b.BytesPerOp = val
			case "allocs/op":
				b.AllocsPerOp = val
			default:
				if b.Metrics == nil {
					b.Metrics = make(map[string]float64)
				}
				b.Metrics[unit] = val
			}
		}
		run.Benchmarks = append(run.Benchmarks, b)
	}
	stripProcs(&run)
	run.Benchmarks = fold(run.Benchmarks)
	return run, sc.Err()
}

// fold merges the repeated lines of each benchmark into one row, in
// first-appearance order. A benchmark with a single line is unchanged.
func fold(lines []Benchmark) []Benchmark {
	var out []Benchmark
	groups := make(map[string][]Benchmark)
	for _, b := range lines {
		if _, seen := groups[b.Name]; !seen {
			out = append(out, b)
		}
		groups[b.Name] = append(groups[b.Name], b)
	}
	for i := range out {
		g := groups[out[i].Name]
		if len(g) == 1 {
			continue
		}
		f := Benchmark{Name: out[i].Name, Count: len(g)}
		for _, b := range g {
			f.Iterations += b.Iterations
		}
		f.NsPerOp = medianOf(g, func(b Benchmark) float64 { return b.NsPerOp })
		f.NsPerOpMAD = medianOf(g, func(b Benchmark) float64 { return math.Abs(b.NsPerOp - f.NsPerOp) })
		f.BytesPerOp = medianOf(g, func(b Benchmark) float64 { return b.BytesPerOp })
		f.AllocsPerOp = medianOf(g, func(b Benchmark) float64 { return b.AllocsPerOp })
		if len(out[i].Metrics) > 0 {
			f.Metrics = make(map[string]float64)
		}
		for unit := range out[i].Metrics {
			f.Metrics[unit] = medianOf(g, func(b Benchmark) float64 { return b.Metrics[unit] })
		}
		out[i] = f
	}
	return out
}

// medianOf returns the median of value over bs.
func medianOf(bs []Benchmark, value func(Benchmark) float64) float64 {
	xs := make([]float64, len(bs))
	for i, b := range bs {
		xs[i] = value(b)
	}
	return median(xs)
}

// median returns the median of xs (the mean of the middle two for an
// even count), sorting xs in place.
func median(xs []float64) float64 {
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// stripProcs removes the "-N" GOMAXPROCS suffix from r's benchmark
// names and records N in r.Procs. The suffix is only taken as one when
// every name carries the same N, so a run at GOMAXPROCS=1 keeps a
// sub-benchmark name that merely ends in a number.
func stripProcs(r *Run) {
	r.Procs = 1
	procs := ""
	for _, b := range r.Benchmarks {
		i := strings.LastIndexByte(b.Name, '-')
		n, err := strconv.Atoi(b.Name[i+1:])
		if i < 0 || err != nil || n < 2 || (procs != "" && b.Name[i:] != procs) {
			return
		}
		procs = b.Name[i:]
	}
	if procs == "" {
		return
	}
	for i := range r.Benchmarks {
		r.Benchmarks[i].Name = strings.TrimSuffix(r.Benchmarks[i].Name, procs)
	}
	r.Procs, _ = strconv.Atoi(procs[1:])
}

// loadBaseline reads a trajectory file and returns the benchmarks of
// its last run (the pinned reference point) by name.
func loadBaseline(path string) (map[string]Benchmark, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file File
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	if len(file.Runs) == 0 {
		return nil, fmt.Errorf("baseline %s has no runs", path)
	}
	pinned := file.Runs[len(file.Runs)-1]
	stripProcs(&pinned)
	base := make(map[string]Benchmark)
	for _, b := range pinned.Benchmarks {
		base[b.Name] = b
	}
	return base, nil
}

// checkAllocs compares a run's allocs/op against the baseline and
// returns a description of every regression beyond tolPct percent.
// Benchmarks absent from the baseline pass (new benchmarks are not
// regressions). A zero pin is strict: a zero-allocation benchmark may
// not allocate.
func checkAllocs(run Run, base map[string]Benchmark, tolPct float64) []string {
	return checkCeiling(run, base, tolPct, "allocs/op",
		func(b Benchmark) float64 { return b.AllocsPerOp })
}

// checkBytes is checkAllocs for B/op. A zero pin gates nothing here: a
// zero-byte benchmark makes no allocation, which its zero allocs/op pin
// already holds it to, and a baseline that records no B/op reads as 0.
func checkBytes(run Run, base map[string]Benchmark, tolPct float64) []string {
	nonZero := make(map[string]Benchmark, len(base))
	for name, pin := range base {
		if pin.BytesPerOp > 0 {
			nonZero[name] = pin
		}
	}
	return checkCeiling(run, nonZero, tolPct, "B/op",
		func(b Benchmark) float64 { return b.BytesPerOp })
}

// checkCeiling returns a description of every benchmark whose value
// exceeds its pin in base by more than tolPct percent.
func checkCeiling(run Run, base map[string]Benchmark, tolPct float64, unit string, value func(Benchmark) float64) []string {
	var regressions []string
	for _, b := range run.Benchmarks {
		pin, ok := base[b.Name]
		if !ok {
			continue
		}
		want := value(pin)
		limit := want * (1 + tolPct/100)
		if got := value(b); got > limit {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.0f %s vs baseline %.0f (limit %.0f)",
					b.Name, got, unit, want, limit))
		}
	}
	return regressions
}

// checkSecOp compares a run's ns/op (the median, for a folded
// benchmark) against the baseline within a symmetric ±tolPct band.
// Slower than the band is a regression; faster than the band is an
// improvement worth re-pinning (returned separately so callers warn
// instead of failing — a stale slow baseline would otherwise mask later
// regressions up to the accumulated headroom).
// Benchmarks absent from the baseline, pinned at zero, or pinned below
// floorSec pass: a percentage band on a micro-benchmark's single
// -benchtime=1x sample is pure scheduler noise, and the allocs/op gate
// already covers those exactly.
func checkSecOp(run Run, base map[string]Benchmark, tolPct, floorSec float64) (regressions, improvements []string) {
	for _, b := range run.Benchmarks {
		pin, ok := base[b.Name]
		if !ok || pin.NsPerOp <= 0 || pin.NsPerOp < floorSec*1e9 {
			continue
		}
		want := pin.NsPerOp
		deltaPct := (b.NsPerOp - want) / want * 100
		switch {
		case deltaPct > tolPct:
			regressions = append(regressions,
				fmt.Sprintf("%s: %.3gs/op vs baseline %.3gs (%+.1f%%, tolerance %.0f%%)",
					b.Name, b.NsPerOp/1e9, want/1e9, deltaPct, tolPct))
		case deltaPct < -tolPct:
			improvements = append(improvements,
				fmt.Sprintf("%s: %.3gs/op vs baseline %.3gs (%+.1f%%)",
					b.Name, b.NsPerOp/1e9, want/1e9, deltaPct))
		}
	}
	return regressions, improvements
}

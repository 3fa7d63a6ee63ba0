package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os/exec"
	"sync"
	"sync/atomic"

	"nbtinoc/internal/cache"
	"nbtinoc/internal/sim"
)

// AssignmentSchema versions the coordinator→worker handoff body (and
// the report that answers it).
const AssignmentSchema = 3

// Assignment is one worker's share of a campaign: the shared cache it
// runs against, its local pool width (-j: 0 = one per core), and the
// specs it runs — all a worker needs, so it never loads the manifest.
type Assignment struct {
	Schema   int        `json:"schema"`
	CacheDir string     `json:"cache_dir"`
	Workers  int        `json:"workers"`
	Specs    []sim.Spec `json:"specs"`
}

// WorkerReport is the worker→coordinator result: one error per
// assigned spec, in assignment order ("" when the unit's summary is in
// the cache), plus the worker's cache stats for campaign-level
// aggregation. Which units are done is the cache's to say, not the
// report's.
type WorkerReport struct {
	Schema int         `json:"schema"`
	Errs   []string    `json:"errs"`
	Stats  cache.Stats `json:"stats"`
}

// WorkerEnv carries the injected runtime hooks a worker process needs:
// the wall clock and lease policy (time comes from package main, per
// the wallclock rule) and the optional crash-injection hook, which
// observes each completed unit with the completed-so-far count (the
// -kill-after flag; called from pool goroutines).
type WorkerEnv struct {
	Clock     func() int64
	Lease     *cache.LeasePolicy
	AfterUnit func(completed int)
}

// RunAssignment is the whole worker role: run the assigned specs
// through a local pool against the shared cache and report per-unit
// errors. A unit failure never aborts the batch — campaigns retry
// failures on resume — so the report always has one entry per spec.
// The coordinator's in-process default calls it directly; an exec'd
// worker reaches it through ServeWorker.
//
// Every worker claims in two passes, and both skip a key the cache
// already holds — finished by another worker or campaign — without
// reading its entry. The first pass is non-blocking (Runner.TryRun):
// it computes what is free, steps aside from units another process
// holds a lease on, and reads nothing when the entry exists, even when
// it lands mid-claim. The second asks Store.Has before it waits out a
// lease, which usually ends in finding the holder's entry (or in
// taking over a dead holder's claim), so no unit is ever dropped. A
// worker thus reads at most one entry per unit it stepped aside from,
// each counted as a lease wait: the merge does the campaign's reading.
func RunAssignment(a *Assignment, env WorkerEnv) *WorkerReport {
	met := newSweepMetrics()
	met.unitsTotal.Add(uint64(len(a.Specs)))
	met.workersActive.Inc()
	defer met.workersActive.Dec()

	store := cache.Open(a.CacheDir, cache.ReadWrite)
	store.Clock = env.Clock
	store.Lease = env.Lease
	errs := make([]string, len(a.Specs))
	runner := sim.Runner{Store: store}
	pool := sim.Pool{Workers: a.Workers}
	var completed atomic.Int64
	// claim runs unit i, waiting on a foreign lease only when wait is
	// set, and reports whether the unit finished.
	claim := func(i int, wait bool) bool {
		spec := a.Specs[i]
		done := true
		var err error
		if !wait {
			done, err = runner.TryRun(spec)
		} else if key, kerr := sim.SpecKey(spec); kerr != nil || !store.Has(key) {
			_, err = runner.Run(spec)
		}
		switch {
		case err != nil:
			errs[i] = err.Error()
			met.unitsFailed.Inc()
		case !done:
			return false
		default:
			met.unitsDone.Inc()
		}
		if env.AfterUnit != nil {
			env.AfterUnit(int(completed.Add(1)))
		}
		return true
	}

	var mu sync.Mutex
	var deferred []int
	_ = pool.Run(len(a.Specs), func(i int) error {
		if !claim(i, false) {
			met.unitsDeferred.Inc()
			mu.Lock()
			deferred = append(deferred, i)
			mu.Unlock()
		}
		return nil
	})
	_ = pool.Run(len(deferred), func(j int) error {
		claim(deferred[j], true)
		return nil
	})
	return &WorkerReport{Schema: AssignmentSchema, Errs: errs, Stats: store.Stats()}
}

// ServeWorker is the exec'd worker process: decode one assignment
// from in, run it, and write the report to out. A body this build
// cannot decode is refused before any unit runs, and nothing is
// written.
func ServeWorker(in io.Reader, out io.Writer, env WorkerEnv) error {
	var a Assignment
	if err := decodeHandoff(in, "assignment", &a, &a.Schema); err != nil {
		return err
	}
	return json.NewEncoder(out).Encode(RunAssignment(&a, env))
}

// ExecWorker runs cmd as a worker process over a: the assignment goes
// to its stdin and exactly one report is decoded from its stdout;
// stderr is left to the caller. A worker that exits non-zero — killed
// mid-batch, say — yields no report.
func ExecWorker(cmd *exec.Cmd, a *Assignment) (*WorkerReport, error) {
	body, err := json.Marshal(a)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	cmd.Stdin = bytes.NewReader(body)
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var r WorkerReport
	if err := decodeHandoff(&out, "worker report", &r, &r.Schema); err != nil {
		return nil, err
	}
	return &r, nil
}

// decodeHandoff decodes one handoff body into v through the strict
// decoder and checks its schema: a body naming a field this build does
// not know (a misspelling, or one a newer coordinator relies on) is
// refused rather than run with that field ignored.
func decodeHandoff(r io.Reader, what string, v any, schema *int) error {
	if err := sim.DecodeStrict(r, v); err != nil {
		return fmt.Errorf("sweep: parsing %s: %w", what, err)
	}
	if *schema != AssignmentSchema {
		return fmt.Errorf("sweep: %s schema %d not supported (want %d)", what, *schema, AssignmentSchema)
	}
	return nil
}

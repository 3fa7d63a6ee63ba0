package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"nbtinoc/internal/cache"
	"nbtinoc/internal/sim"
)

// WorkerOptions configures one worker's execution of its assigned
// units.
type WorkerOptions struct {
	// Store is the shared result cache, normally lease-enabled.
	Store *cache.Store
	// Workers is the local pool width (-j): 0 = one per core, 1 =
	// sequential.
	Workers int
	// Strategy selects the claiming discipline. Steal does a
	// non-blocking pass first (stepping aside from units other
	// processes hold) and revisits the remainder; Range computes its
	// disjoint share in order.
	Strategy Strategy
	// AfterUnit, when non-nil, observes each completed unit with the
	// completed-so-far count — the crash-injection hook behind the
	// -kill-after flag. Called from pool goroutines.
	AfterUnit func(completed int)
}

// UnitResult is one unit's outcome in a worker batch.
type UnitResult struct {
	State UnitState `json:"state"`
	// Cached reports whether the summary came from the cache rather
	// than this worker's compute.
	Cached bool   `json:"cached"`
	Err    string `json:"err,omitempty"`
}

// RunUnits executes the units through a local pool against the shared
// cache and reports per-unit outcomes. A unit failure never aborts the
// batch — campaigns retry failures on resume — so the slice always has
// one entry per unit.
func RunUnits(units []Unit, opt WorkerOptions) []UnitResult {
	met := newSweepMetrics()
	met.unitsTotal.Add(uint64(len(units)))
	met.workersActive.Inc()
	defer met.workersActive.Dec()

	results := make([]UnitResult, len(units))
	runner := sim.Runner{Store: opt.Store}
	pool := sim.Pool{Workers: opt.Workers}
	var completed atomic.Int64
	finish := func(i int, cached bool, err error) {
		if err != nil {
			results[i] = UnitResult{State: UnitFailed, Err: err.Error()}
			met.unitsFailed.Inc()
		} else {
			results[i] = UnitResult{State: UnitDone, Cached: cached}
			met.unitsDone.Inc()
		}
		if opt.AfterUnit != nil {
			opt.AfterUnit(int(completed.Add(1)))
		}
	}

	order := make([]int, len(units))
	for i := range order {
		order[i] = i
	}
	if opt.Strategy == Steal {
		// Pass 1: claim what's free, step aside from foreign claims.
		var mu sync.Mutex
		var deferred []int
		_ = pool.Run(len(order), func(j int) error {
			i := order[j]
			var cached bool
			r := runner
			r.Record = func(_ sim.Spec, _ string, c bool) { cached = c }
			_, done, err := r.TryRun(units[i].Spec)
			switch {
			case err != nil:
				finish(i, false, err)
			case !done:
				met.unitsDeferred.Inc()
				mu.Lock()
				deferred = append(deferred, i)
				mu.Unlock()
			default:
				finish(i, cached, nil)
			}
			return nil
		})
		order = deferred
	}
	// Blocking pass: range shares, and steal-mode leftovers (waiting
	// out the foreign lease usually ends in serving its entry).
	_ = pool.Run(len(order), func(j int) error {
		i := order[j]
		var cached bool
		r := runner
		r.Record = func(_ sim.Spec, _ string, c bool) { cached = c }
		_, err := r.Run(units[i].Spec)
		finish(i, cached, err)
		return nil
	})
	return results
}

// AssignmentSchema versions the coordinator→worker handoff file.
const AssignmentSchema = 1

// Assignment is what a worker process needs to run its share of a
// campaign: where the manifest and cache live, which unit indices are
// its, and how to execute them.
type Assignment struct {
	Schema       int      `json:"schema"`
	ManifestPath string   `json:"manifest_path"`
	CacheDir     string   `json:"cache_dir"`
	Workers      int      `json:"workers"`
	Strategy     Strategy `json:"strategy"`
	Indices      []int    `json:"indices"`
}

// WorkerReport is the worker→coordinator result file: one outcome per
// assigned index, plus the worker's cache stats for campaign-level
// aggregation.
type WorkerReport struct {
	Schema  int          `json:"schema"`
	Indices []int        `json:"indices"`
	Results []UnitResult `json:"results"`
	Stats   cache.Stats  `json:"stats"`
}

// writeJSONFile writes v atomically (temp+rename) as indented JSON.
func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+"-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// SaveAssignment writes the handoff file atomically.
func (a *Assignment) Save(path string) error { return writeJSONFile(path, a) }

// readStrictJSON decodes the one JSON value in the file at path into
// v, refusing unknown fields and trailing data: a handoff file naming a
// field this build does not know (a misspelling, or one a newer
// coordinator relies on) must fail to load rather than run with that
// field ignored.
func readStrictJSON(path, what string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("sweep: parsing %s %s: %w", what, path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("sweep: parsing %s %s: trailing data after the JSON value", what, path)
	}
	return nil
}

// LoadAssignment reads and validates a handoff file.
func LoadAssignment(path string) (*Assignment, error) {
	var a Assignment
	if err := readStrictJSON(path, "assignment", &a); err != nil {
		return nil, err
	}
	if a.Schema != AssignmentSchema {
		return nil, fmt.Errorf("sweep: assignment schema %d not supported (want %d)", a.Schema, AssignmentSchema)
	}
	return &a, nil
}

// LoadWorkerReport reads and validates a worker's result file.
func LoadWorkerReport(path string) (*WorkerReport, error) {
	var r WorkerReport
	if err := readStrictJSON(path, "worker report", &r); err != nil {
		return nil, err
	}
	if r.Schema != AssignmentSchema {
		return nil, fmt.Errorf("sweep: worker report schema %d not supported (want %d)", r.Schema, AssignmentSchema)
	}
	if len(r.Results) != len(r.Indices) {
		return nil, fmt.Errorf("sweep: worker report %s: %d results for %d indices",
			path, len(r.Results), len(r.Indices))
	}
	return &r, nil
}

// WorkerEnv carries the injected runtime hooks a worker process needs:
// the wall clock and lease policy (time comes from package main, per
// the wallclock rule) and the optional crash-injection hook.
type WorkerEnv struct {
	Clock     func() int64
	Lease     *cache.LeasePolicy
	AfterUnit func(completed int)
}

// ExecuteAssignment is the whole worker role: load the assignment and
// its manifest, resolve the assigned units, run them against the
// shared cache, and write the report file. Both the exec'd worker
// subcommand of cmd/nbtisweep and the coordinator's in-process default
// go through this one path.
func ExecuteAssignment(assignPath, reportPath string, env WorkerEnv) error {
	a, err := LoadAssignment(assignPath)
	if err != nil {
		return err
	}
	m, err := LoadManifest(a.ManifestPath)
	if err != nil {
		return err
	}
	all, err := m.Resolve()
	if err != nil {
		return err
	}
	units := make([]Unit, len(a.Indices))
	for j, i := range a.Indices {
		if i < 0 || i >= len(all) {
			return fmt.Errorf("sweep: assignment %s: unit index %d out of range [0,%d)", assignPath, i, len(all))
		}
		units[j] = all[i]
	}
	store := cache.Open(a.CacheDir, cache.ReadWrite)
	store.Clock = env.Clock
	store.Lease = env.Lease
	results := RunUnits(units, WorkerOptions{
		Store:     store,
		Workers:   a.Workers,
		Strategy:  a.Strategy,
		AfterUnit: env.AfterUnit,
	})
	return writeJSONFile(reportPath, &WorkerReport{
		Schema:  AssignmentSchema,
		Indices: a.Indices,
		Results: results,
		Stats:   store.Stats(),
	})
}

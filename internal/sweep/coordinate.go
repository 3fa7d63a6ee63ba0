package sweep

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"nbtinoc/internal/cache"
	"nbtinoc/internal/sim"
)

// Coordinator drives one campaign round: shard the units the cache
// does not hold across worker processes, collect their reports, and —
// when every unit is in the cache — merge the campaign through a
// strictly-sequential reduction into the report writer. It never
// writes the manifest: progress is the cache's.
type Coordinator struct {
	// Manifest is the campaign: its units (from NewManifest or
	// LoadManifest).
	Manifest *Manifest
	// CacheDir is the shared result cache all workers open.
	CacheDir string
	// Procs is the worker-process count; Workers the per-process pool
	// width (-j).
	Procs, Workers int
	// Clock and Lease are the injected time hooks handed to every
	// store this coordinator opens (and to in-process workers).
	Clock func() int64
	Lease *cache.LeasePolicy
	// Spawn runs worker w over its assignment in another process and
	// returns its report, or nil when the worker died before reporting.
	// Nil runs RunAssignment in-process with its own Store handle: the
	// same isolation an exec'd worker has, minus the address space.
	Spawn func(w int, a *Assignment) (*WorkerReport, error)
	// Logf, when non-nil, receives progress, per-unit errors and the
	// aggregated campaign cache stats. This is side-channel narration
	// (stderr in the CLI) — never part of the merged report bytes.
	Logf func(format string, args ...any)
}

// Result summarises a coordinator round.
type Result struct {
	// Stats aggregates cache stats across every worker process plus
	// the coordinator's own merge pass.
	Stats cache.Stats
	// Done counts the units the cache holds after this round; Failed
	// counts those it does not hold that a worker reported an error
	// for.
	Done, Failed int
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// openStore opens the shared cache with the coordinator's time hooks.
func (c *Coordinator) openStore() *cache.Store {
	s := cache.Open(c.CacheDir, cache.ReadWrite)
	s.Clock = c.Clock
	s.Lease = c.Lease
	return s
}

// Run executes one campaign round over the units the cache does not
// hold and, if afterwards it holds them all, merges the report into
// out. A round with a dead worker or a failed unit returns an error and
// writes no report; rerunning retries whatever the cache still lacks.
func (c *Coordinator) Run(out io.Writer) (*Result, error) {
	m := c.Manifest
	store := c.openStore()
	pending := m.Pending(store)
	c.logf("sweep %s: %d units, %d pending, %d procs x %d workers",
		m.Name, len(m.Units), len(pending), c.Procs, c.Workers)

	res := &Result{}
	var unitErrs map[int]string
	var err error
	left := pending
	if len(pending) > 0 {
		unitErrs, err = c.runWorkers(pending, res)
		left = m.Pending(store)
	}
	res.Done = len(m.Units) - len(left)
	var failed []error
	for _, i := range left {
		if msg, ok := unitErrs[i]; ok {
			failed = append(failed, fmt.Errorf("unit %d (%s) failed: %s", i, m.Units[i].Label, msg))
			c.logf("sweep %s: %v", m.Name, failed[len(failed)-1])
		}
	}
	if res.Failed = len(failed); res.Failed > 0 {
		err = errors.Join(err, fmt.Errorf("sweep: %d of %d units failed, rerun to retry: %w",
			res.Failed, len(m.Units), errors.Join(failed...)))
	}
	if err != nil {
		res.Stats = res.Stats.Add(store.Stats())
		return res, err
	}

	// Merge: strictly sequential, index order, reading through the
	// shared cache — the byte layout of the report depends only on the
	// unit summaries, never on topology or timing.
	if out != nil {
		if err := c.merge(out, store); err != nil {
			return nil, err
		}
	}
	res.Stats = res.Stats.Add(store.Stats())
	c.logf("sweep %s: campaign cache totals: %s", m.Name, res.Stats)
	return res, nil
}

// runWorkers shards pending across the worker processes and runs them
// concurrently. It adds their stats to res and returns the unit errors
// the reports name, by unit position, plus an error when a worker died
// or its report does not fit its share.
func (c *Coordinator) runWorkers(pending []int, res *Result) (map[int]string, error) {
	shares := Assign(pending, min(max(c.Procs, 1), len(pending)))
	spawn := c.Spawn
	if spawn == nil {
		spawn = func(_ int, a *Assignment) (*WorkerReport, error) {
			return RunAssignment(a, WorkerEnv{Clock: c.Clock, Lease: c.Lease}), nil
		}
	}
	reports := make([]*WorkerReport, len(shares))
	errs := make([]error, len(shares))
	var wg sync.WaitGroup
	for w, share := range shares {
		a := &Assignment{
			Schema:   AssignmentSchema,
			CacheDir: c.CacheDir,
			Workers:  c.Workers,
			Specs:    make([]sim.Spec, len(share)),
		}
		for j, i := range share {
			a.Specs[j] = c.Manifest.Units[i].Spec
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			reports[w], errs[w] = spawn(w, a)
		}()
	}
	wg.Wait()

	unitErrs := map[int]string{}
	var spawnErr error
	for w, share := range shares {
		r, err := reports[w], errs[w]
		if r != nil && len(r.Errs) != len(share) {
			err = errors.Join(err, fmt.Errorf("report has %d entries for %d units", len(r.Errs), len(share)))
			r = nil
		}
		if err != nil {
			c.logf("sweep %s: worker %d: %v", c.Manifest.Name, w, err)
			if spawnErr == nil {
				spawnErr = fmt.Errorf("sweep: worker %d: %w (rerun to resume)", w, err)
			}
		}
		if r == nil {
			continue
		}
		res.Stats = res.Stats.Add(r.Stats)
		for j, i := range share {
			if msg := r.Errs[j]; msg != "" {
				unitErrs[i] = msg
			}
		}
	}
	return unitErrs, spawnErr
}

// merge runs the sequential reduction: every unit in index order, read
// through the cache (a corrupt or evicted entry silently recomputes),
// rendered into the deterministic report.
func (c *Coordinator) merge(out io.Writer, store *cache.Store) error {
	runner := sim.Runner{Store: store}
	units := c.Manifest.Units
	sums := make([]*sim.RunSummary, len(units))
	for i := range units {
		s, err := runner.Run(units[i].Spec)
		if err != nil {
			return fmt.Errorf("sweep: merging unit %d (%s): %w", i, units[i].Label, err)
		}
		sums[i] = s
	}
	return WriteReport(out, c.Manifest.Name, units, sums)
}

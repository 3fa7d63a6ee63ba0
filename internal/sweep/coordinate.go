package sweep

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"nbtinoc/internal/cache"
	"nbtinoc/internal/sim"
)

// Coordinator drives one campaign round: shard the pending units across
// worker processes, collect their reports, checkpoint the manifest, and
// — when everything completed — merge the campaign through a
// strictly-sequential reduction into the report writer.
type Coordinator struct {
	// Manifest is the campaign: its units and their state (from
	// NewManifest or LoadManifest).
	Manifest *Manifest
	// ManifestPath, when non-empty, is where checkpoints are saved
	// (atomically) before workers start and after they finish.
	ManifestPath string
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
	// Logf, when non-nil, receives progress and the aggregated
	// campaign cache stats. This is side-channel narration (stderr in
	// the CLI) — never part of the merged report bytes.
	Logf func(format string, args ...any)
}

// Result summarises a completed coordinator round.
type Result struct {
	// Stats aggregates cache stats across every worker process plus
	// the coordinator's own merge pass.
	Stats cache.Stats
	// Done / Failed count unit outcomes after this round; Resumed
	// counts units skipped because the cache already held their keys.
	Done, Failed, Resumed int
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

// Run executes one campaign round and, if every unit completes, merges
// the report into out. On worker failure the manifest checkpoint is
// still saved — the campaign is resumable — and the error says so.
func (c *Coordinator) Run(out io.Writer) (*Result, error) {
	res := &Result{}
	store := c.openStore()

	// Resume: a unit whose key is already in the cache is done no
	// matter what the manifest last recorded — the cache is the ground
	// truth, the manifest a progress journal.
	var pending []int
	for i := range c.Manifest.Units {
		if c.Manifest.Units[i].State != UnitDone && store.Has(c.Manifest.Units[i].Key) {
			c.Manifest.Units[i].State = UnitDone
			c.Manifest.Units[i].Err = ""
			res.Resumed++
		}
		if c.Manifest.Units[i].State != UnitDone {
			pending = append(pending, i)
		}
	}
	if err := c.checkpoint(); err != nil {
		return nil, err
	}
	c.logf("sweep %s: %d units, %d pending (%d resumed from cache), %d procs x %d workers",
		c.Manifest.Name, len(c.Manifest.Units), len(pending), res.Resumed, c.Procs, c.Workers)

	if len(pending) > 0 {
		if err := c.runWorkers(pending, res); err != nil {
			return nil, err
		}
	}
	if err := c.checkpoint(); err != nil {
		return nil, err
	}
	for _, u := range c.Manifest.Units {
		switch u.State {
		case UnitDone:
			res.Done++
		case UnitFailed:
			res.Failed++
		}
	}
	if res.Failed > 0 {
		res.Stats = res.Stats.Add(store.Stats())
		return res, fmt.Errorf("sweep: %d of %d units failed; manifest checkpointed, rerun to retry",
			res.Failed, len(c.Manifest.Units))
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
	c.logf("sweep %s: campaign cache totals: %s", c.Manifest.Name, res.Stats)
	return res, nil
}

// checkpoint saves the manifest when a path is configured.
func (c *Coordinator) checkpoint() error {
	if c.ManifestPath == "" {
		return nil
	}
	return c.Manifest.Save(c.ManifestPath)
}

// runWorkers shards pending across the worker processes, runs them
// concurrently, and folds their reports back into the manifest and the
// aggregated stats.
func (c *Coordinator) runWorkers(pending []int, res *Result) error {
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

	var spawnErr error
	for w, share := range shares {
		r, err := reports[w], errs[w]
		if r != nil && len(r.Results) != len(share) {
			err = errors.Join(err, fmt.Errorf("report has %d results for %d units", len(r.Results), len(share)))
			r = nil
		}
		if err != nil {
			c.logf("sweep %s: worker %d: %v", c.Manifest.Name, w, err)
			if spawnErr == nil {
				spawnErr = fmt.Errorf("sweep: worker %d: %w", w, err)
			}
		}
		if r == nil {
			continue
		}
		res.Stats = res.Stats.Add(r.Stats)
		for j, i := range share {
			u := &c.Manifest.Units[i]
			switch r.Results[j].State {
			case UnitDone:
				u.State = UnitDone
				u.Err = ""
			case UnitFailed:
				// Don't let one worker's failure overwrite another's
				// success on the same (stolen) unit.
				if u.State != UnitDone {
					u.State = UnitFailed
					u.Err = r.Results[j].Err
				}
			}
		}
	}
	if spawnErr != nil {
		if err := c.checkpoint(); err != nil {
			return err
		}
		return fmt.Errorf("%w (manifest checkpointed, rerun to resume)", spawnErr)
	}
	return nil
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

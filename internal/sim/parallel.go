package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is the bounded worker-pool scheduler behind Runner.RunAll, and
// so behind every table driver in this package, and behind the sweep
// workers. Each job writes only to its own pre-allocated result slot
// and derives all randomness from per-scenario seeds, so the assembled
// output is byte-identical to a sequential run regardless of
// completion order or worker count.
type Pool struct {
	// Workers caps the number of concurrently executing jobs.
	// 0 (or negative) uses one worker per available core
	// (runtime.GOMAXPROCS). 1 is one worker like any other width: it
	// runs the jobs one at a time in index order.
	Workers int
}

// workers resolves the effective worker count for n jobs.
func (p Pool) workers(n int) int {
	w := p.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// Run executes job(0) … job(n-1) across the pool's workers and blocks
// until all scheduled jobs finish. Jobs are dispatched in index order.
// The first failure cancels the batch context-style: already-running
// jobs complete, queued jobs are never started, and Run returns the
// error of the lowest-indexed failed job — the same error a sequential
// execution would surface first, since a job's index is only dispatched
// after every lower index has been.
//
// Each job must confine its writes to state it exclusively owns
// (typically the result slot at its index): the pool provides no
// synchronisation beyond the happens-before edge between Run returning
// and all job effects being visible.
func (p Pool) Run(n int, job func(i int) error) error {
	if n <= 0 {
		return nil
	}
	met := newPoolMetrics()
	met.jobsTotal.Add(uint64(n))
	var (
		next atomic.Int64
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	errs := make([]error, n)
	for w := p.workers(n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || stop.Load() {
					return
				}
				met.busy.Inc()
				err := job(i)
				met.busy.Dec()
				met.jobsDone.Inc()
				if err != nil {
					errs[i] = err
					stop.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

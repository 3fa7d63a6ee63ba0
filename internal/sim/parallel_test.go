package sim

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

func TestPoolRunsEveryJobOnce(t *testing.T) {
	const n = 50
	var counts [n]atomic.Int32
	if err := (Pool{}).Run(n, func(i int) error {
		counts[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Errorf("job %d ran %d times, want 1", i, c)
		}
	}
}

func TestPoolEmptyBatch(t *testing.T) {
	if err := (Pool{Workers: 4}).Run(0, func(int) error {
		t.Error("job ran on empty batch")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestPoolSequentialFallback pins the Workers = 1 contract: one worker
// through the same loop as every other width runs the jobs strictly one
// at a time in index order, and the first error stops the batch
// immediately.
func TestPoolSequentialFallback(t *testing.T) {
	var order []int
	boom := errors.New("boom")
	err := Pool{Workers: 1}.Run(6, func(i int) error {
		order = append(order, i)
		if i == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if want := []int{0, 1, 2}; !reflect.DeepEqual(order, want) {
		t.Fatalf("executed %v, want %v", order, want)
	}
}

// TestPoolErrorCancelsBatch checks context-style cancellation: once a
// job fails, queued jobs are never dispatched. Job 0 fails and then
// releases job 1 (which may or may not have been dispatched first), so
// every index >= 2 must stay untouched.
func TestPoolErrorCancelsBatch(t *testing.T) {
	const n = 16
	var ran [n]atomic.Bool
	gate := make(chan struct{})
	boom := errors.New("boom")
	err := Pool{Workers: 2}.Run(n, func(i int) error {
		ran[i].Store(true)
		if i == 0 {
			close(gate)
			return boom
		}
		<-gate
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if !ran[0].Load() {
		t.Error("job 0 never ran")
	}
	for i := 2; i < n; i++ {
		if ran[i].Load() {
			t.Errorf("job %d ran after the batch was cancelled", i)
		}
	}
}

// TestPoolReturnsLowestIndexedError holds all workers at a barrier until
// every job is in flight, then fails all of them: Run must surface the
// error of the lowest-indexed job, matching what a one-worker pool
// would have reported.
func TestPoolReturnsLowestIndexedError(t *testing.T) {
	const n = 4
	var barrier sync.WaitGroup
	barrier.Add(n)
	err := Pool{Workers: n}.Run(n, func(i int) error {
		barrier.Done()
		barrier.Wait()
		return fmt.Errorf("job %d failed", i)
	})
	if err == nil || err.Error() != "job 0 failed" {
		t.Fatalf("err = %v, want job 0's error", err)
	}
}

// parTableOptions is the common scenario set of the determinism tests:
// small enough to keep the suite fast, wide enough that every driver
// enumerates a multi-job grid.
func parTableOptions(workers int) TableOptions {
	return TableOptions{
		Cores:       []int{4},
		Rates:       []float64{0.1, 0.3},
		PacketLen:   4,
		Warmup:      500,
		Measure:     6_000,
		SeedBase:    1,
		Parallelism: workers,
	}
}

// TestParallelMatchesSequential is the determinism guarantee of the
// harness: every converted driver must produce output deep-equal (bit
// identical floats included) at Parallelism 4 and Parallelism 1.
func TestParallelMatchesSequential(t *testing.T) {
	drivers := []struct {
		name string
		run  func(opt TableOptions) (any, error)
	}{
		{"SyntheticTable", func(opt TableOptions) (any, error) {
			return RunSyntheticTable(2, opt)
		}},
		{"VthSaving", func(opt TableOptions) (any, error) {
			return RunVthSaving(2, 3, opt)
		}},
		{"Cooperation", func(opt TableOptions) (any, error) {
			return RunCooperation(2, opt)
		}},
		{"PerfImpact", func(opt TableOptions) (any, error) {
			return RunPerfImpact(4, 2, 0, opt.Rates, opt)
		}},
		{"Energy", func(opt TableOptions) (any, error) {
			return RunEnergy(4, 2, 0.3, opt)
		}},
		{"SensorStudy", func(opt TableOptions) (any, error) {
			return RunSensorStudy(4, 2, 0.3, opt)
		}},
		{"Corners", func(opt TableOptions) (any, error) {
			return RunCorners(4, 2, 0.3, 0.05,
				[]float64{300, 350}, []float64{0.9, 1.0}, opt)
		}},
		{"DSE", func(opt TableOptions) (any, error) {
			return RunDSE(4, 0.3, []int{2}, []int{2, 4}, opt)
		}},
		{"RRPeriodStudy", func(opt TableOptions) (any, error) {
			return RunRRPeriodStudy(4, 2, 0.3, []uint64{100, 1_000}, opt)
		}},
	}
	for _, d := range drivers {
		d := d
		t.Run(d.name, func(t *testing.T) {
			t.Parallel()
			seq, err := d.run(parTableOptions(1))
			if err != nil {
				t.Fatal(err)
			}
			par, err := d.run(parTableOptions(4))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("parallel output diverges from sequential:\nseq: %+v\npar: %+v", seq, par)
			}
		})
	}

	t.Run("RealTable", func(t *testing.T) {
		t.Parallel()
		ropt := RealOptions{
			Iterations: 2, VCs: 2,
			Warmup: 500, Measure: 6_000, SeedBase: 1,
		}
		ropt.Parallelism = 1
		seq, err := RunRealTable(ropt)
		if err != nil {
			t.Fatal(err)
		}
		ropt.Parallelism = 4
		par, err := RunRealTable(ropt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("parallel output diverges from sequential:\nseq: %+v\npar: %+v", seq, par)
		}
	})
}

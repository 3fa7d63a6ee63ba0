package nbti

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTrackerZeroValue(t *testing.T) {
	var tr StressTracker
	if tr.DutyCycle() != 0 {
		t.Errorf("zero tracker duty-cycle = %v", tr.DutyCycle())
	}
	if tr.TotalCycles() != 0 {
		t.Errorf("zero tracker total = %v", tr.TotalCycles())
	}
}

func TestTrackerDutyCycle(t *testing.T) {
	var tr StressTracker
	tr.Stress(30, 10)
	tr.Recover(70)
	if got := tr.DutyCycle(); math.Abs(got-30) > 1e-12 {
		t.Errorf("duty-cycle = %v, want 30", got)
	}
	if got := tr.Alpha(); math.Abs(got-0.30) > 1e-12 {
		t.Errorf("alpha = %v, want 0.30", got)
	}
	if tr.BusyCycles() != 10 {
		t.Errorf("busy = %d, want 10", tr.BusyCycles())
	}
	if tr.StressCycles() != 30 || tr.RecoveryCycles() != 70 {
		t.Errorf("counters = %d/%d, want 30/70", tr.StressCycles(), tr.RecoveryCycles())
	}
}

func TestTrackerAllStress(t *testing.T) {
	var tr StressTracker
	tr.Stress(100, 100)
	if got := tr.DutyCycle(); got != 100 {
		t.Errorf("always-on duty-cycle = %v, want 100", got)
	}
}

func TestTrackerPanicsOnBusyOverflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Stress(1, 2) did not panic")
		}
	}()
	var tr StressTracker
	tr.Stress(1, 2)
}

func TestTrackerReset(t *testing.T) {
	var tr StressTracker
	tr.Stress(10, 5)
	tr.Recover(10)
	tr.Reset()
	if tr.TotalCycles() != 0 || tr.BusyCycles() != 0 {
		t.Errorf("reset left counters: %+v", tr)
	}
}

func TestTrackerMerge(t *testing.T) {
	var a, b StressTracker
	a.Stress(10, 4)
	a.Recover(5)
	b.Stress(20, 6)
	b.Recover(15)
	a.Merge(&b)
	if a.StressCycles() != 30 || a.RecoveryCycles() != 20 || a.BusyCycles() != 10 {
		t.Errorf("merge result = %+v", a)
	}
}

func TestQuickDutyCycleBounds(t *testing.T) {
	f := func(s, r uint32, busyFrac uint8) bool {
		var tr StressTracker
		busy := uint64(s) * uint64(busyFrac) / 255
		tr.Stress(uint64(s), busy)
		tr.Recover(uint64(r))
		d := tr.DutyCycle()
		return d >= 0 && d <= 100
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeviceVthAccumulates(t *testing.T) {
	p := Default45nm()
	d := Device{Vth0: 0.185}
	d.Tracker.Stress(80, 40)
	d.Tracker.Recover(20)
	const wall = 3 * SecondsPerYear
	wantShift := p.DeltaVth(0.8, wall)
	if got := d.DeltaVth(&p, wall); math.Abs(got-wantShift) > 1e-12 {
		t.Errorf("device ΔVth = %v, want %v", got, wantShift)
	}
	if got := d.Vth(&p, wall); math.Abs(got-(0.185+wantShift)) > 1e-12 {
		t.Errorf("device Vth = %v, want %v", got, 0.185+wantShift)
	}
}

func TestDeviceRankingFollowsDutyCycle(t *testing.T) {
	// Two identical devices; the one with higher duty-cycle must show the
	// higher Vth after any positive wallclock time.
	p := Default45nm()
	lo := Device{Vth0: 0.180}
	hi := Device{Vth0: 0.180}
	lo.Tracker.Stress(20, 10)
	lo.Tracker.Recover(80)
	hi.Tracker.Stress(90, 10)
	hi.Tracker.Recover(10)
	if !(hi.Vth(&p, SecondsPerYear) > lo.Vth(&p, SecondsPerYear)) {
		t.Errorf("ranking violated: hi=%v lo=%v",
			hi.Vth(&p, SecondsPerYear), lo.Vth(&p, SecondsPerYear))
	}
}

func TestDeviceVth0DominatesEarly(t *testing.T) {
	// Process variation: with equal duty-cycles the higher-Vth0 device
	// stays the most degraded, as the paper's MD VC selection assumes.
	p := Default45nm()
	a := &Device{Vth0: 0.190}
	b := &Device{Vth0: 0.175}
	for _, d := range []*Device{a, b} {
		d.Tracker.Stress(50, 25)
		d.Tracker.Recover(50)
	}
	if !(a.Vth(&p, SecondsPerYear) > b.Vth(&p, SecondsPerYear)) {
		t.Error("higher Vth0 device is not the most degraded")
	}
}

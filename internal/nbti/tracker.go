package nbti

import "fmt"

// StressTracker accumulates per-cycle NBTI stress/recovery statistics for
// one device (in this repository: one VC buffer's critical PMOS network).
//
// Following the paper's definition, a cycle is a *stress* cycle whenever
// the buffer is powered — storing flits or idle with a (meaningless)
// input vector applied — and a *recovery* cycle when it is power gated.
// The NBTI-duty-cycle is stress/(stress+recovery)·100.
type StressTracker struct {
	stress   uint64
	recovery uint64
	// busy counts the subset of stress cycles during which the buffer
	// actually held at least one flit; it is diagnostic only and does not
	// enter the duty-cycle.
	busy uint64
	// met mirrors span flushes into the process metrics registry,
	// resolved when the tracker's Device is built; zero (all-nil
	// handles) when instrumentation is disabled.
	met trackerMetrics
}

// Stress records n powered cycles, of which busy held at least one flit.
// It panics if busy > n.
func (t *StressTracker) Stress(n, busy uint64) {
	if busy > n {
		panic(fmt.Sprintf("nbti: busy %d > stress %d", busy, n))
	}
	t.stress += n
	t.busy += busy
	t.met.stressSpans.Inc()
	t.met.spanLen.Observe(n)
}

// Recover records n power-gated cycles.
func (t *StressTracker) Recover(n uint64) {
	t.recovery += n
	t.met.recoverySpans.Inc()
	t.met.spanLen.Observe(n)
}

// StressCycles returns the accumulated stress cycle count.
func (t *StressTracker) StressCycles() uint64 { return t.stress }

// RecoveryCycles returns the accumulated recovery cycle count.
func (t *StressTracker) RecoveryCycles() uint64 { return t.recovery }

// BusyCycles returns the accumulated flit-holding cycle count.
func (t *StressTracker) BusyCycles() uint64 { return t.busy }

// TotalCycles returns stress + recovery cycles.
func (t *StressTracker) TotalCycles() uint64 { return t.stress + t.recovery }

// DutyCycle returns the NBTI-duty-cycle in percent (0..100). It returns 0
// before any cycle has been recorded.
func (t *StressTracker) DutyCycle() float64 {
	total := t.stress + t.recovery
	if total == 0 {
		return 0
	}
	return 100 * float64(t.stress) / float64(total)
}

// Alpha returns the stress probability as a fraction in [0, 1], i.e.
// DutyCycle()/100, suitable for Params.DeltaVth.
func (t *StressTracker) Alpha() float64 { return t.DutyCycle() / 100 }

// Reset clears all counters, e.g. at the end of a warm-up window. The
// registry handles survive the reset: a warm-up boundary clears the
// physics history, not the run's observability stream.
func (t *StressTracker) Reset() { t.stress, t.recovery, t.busy = 0, 0, 0 }

// Merge adds the counters of other into t.
func (t *StressTracker) Merge(other *StressTracker) {
	t.stress += other.stress
	t.recovery += other.recovery
	t.busy += other.busy
}

// Device couples a stress history with an initial threshold voltage (from
// process variation) and a model parameter set, yielding the absolute
// threshold voltage used by sensors to rank degradation.
type Device struct {
	// Vth0 is this device's own initial threshold voltage magnitude,
	// sampled from the process-variation distribution.
	Vth0 float64
	// Tracker accumulates the device's stress history.
	Tracker StressTracker
	// Model points at the technology parameters used for ΔVth
	// extraction, which every device of a network shares.
	Model *Params
}

// NewDevice returns a Device with the given initial Vth and its own
// copy of model.
func NewDevice(vth0 float64, model Params) *Device {
	d := &Device{}
	d.Init(vth0, &model)
	return d
}

// Init initialises the device in place with the given initial Vth and
// model — the constructor for devices living in caller-owned arenas.
// model is shared, not copied, so it must outlive the device and stay
// unchanged.
func (d *Device) Init(vth0 float64, model *Params) {
	*d = Device{Vth0: vth0, Model: model}
	d.Tracker.met = newTrackerMetrics()
}

// DeltaVth returns the device's accumulated threshold shift assuming its
// observed duty-cycle has been sustained for wallclock seconds.
func (d *Device) DeltaVth(wallclock float64) float64 {
	return d.Model.DeltaVth(d.Tracker.Alpha(), wallclock)
}

// Vth returns the device's absolute threshold voltage magnitude after
// wallclock seconds: Vth0 + ΔVth.
func (d *Device) Vth(wallclock float64) float64 {
	return d.Vth0 + d.DeltaVth(wallclock)
}

// Package sensor models per-VC NBTI degradation sensors and the
// most-degraded comparator placed in each downstream router.
//
// The paper instruments every virtual-channel buffer with one NBTI sensor
// (a synthesizable 45 nm multi-degradation sensor, reference [20]) and a
// comparator that selects the single most degraded VC of an input port;
// that VC identifier is sent to the upstream router over the Down_Up
// link. This package reproduces the measurement path: each sensor reads
// the absolute threshold voltage of its buffer's critical PMOS —
// the process-variation Vth0 plus the stress-history-dependent ΔVth —
// subject to configurable quantisation, read noise and a sampling period.
//
// With the default configuration the ΔVth projection horizon is zero, so
// the ranking is driven purely by the process-variation Vth0 values and
// the most degraded VC of a port is constant over a run, matching the
// paper's experimental setup (Section IV-A: one Vth sample set per
// scenario; the MD VC is fixed across policies and iterations). A
// non-zero Horizon turns the sensors into a closed-loop aging monitor —
// an extension exercised by the ablation benchmarks.
package sensor

import (
	"errors"
	"math"

	"nbtinoc/internal/floats"
	"nbtinoc/internal/metrics"
	"nbtinoc/internal/nbti"
	"nbtinoc/internal/rng"
)

// MetricSamples counts actual sensor measurements (bank refreshes times
// bank size); held-value reads between sampling periods do not count.
const MetricSamples = "sensor_samples_total"

// Config describes the non-idealities of an NBTI sensor.
type Config struct {
	// SamplePeriod is the number of cycles between sensor reads; in
	// between, the last measurement is held. Must be >= 1.
	SamplePeriod uint64
	// LSB is the quantisation step of the measurement in volts.
	// 0 means an ideal (continuous) readout.
	LSB float64
	// NoiseSigma is the standard deviation of additive Gaussian read
	// noise in volts. 0 disables noise.
	NoiseSigma float64
	// Horizon is the wallclock time (seconds) at which the device's
	// current duty-cycle is projected into a ΔVth contribution. 0 ranks
	// by initial Vth alone.
	Horizon float64
}

// DefaultConfig mirrors the reference 45 nm sensor: 0.5 mV quantisation,
// 0.25 mV read noise, a measurement every 1024 cycles, static ranking.
func DefaultConfig() Config {
	return Config{SamplePeriod: 1024, LSB: 0.5e-3, NoiseSigma: 0.25e-3}
}

// IdealConfig returns a noiseless, continuous, every-cycle sensor.
func IdealConfig() Config {
	return Config{SamplePeriod: 1}
}

// Static reports whether every reading is a pure function of the
// device's Vth0: no read noise and no ΔVth projection (quantisation is
// deterministic). A static bank's comparator outputs can then change
// only when some Vth0 is rewritten, so an owner that knows every such
// write may hold them instead of re-sampling.
func (c Config) Static() bool {
	return floats.ExactZero(c.NoiseSigma) && floats.ExactZero(c.Horizon)
}

// SamplesCounter resolves the MetricSamples counter from the process
// default registry (nil, a no-op, when instrumentation is disabled).
func SamplesCounter() *metrics.Counter {
	return metrics.Default().Counter(MetricSamples,
		"Actual sensor measurements taken by bank refreshes.")
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.SamplePeriod == 0:
		return errors.New("sensor: SamplePeriod must be >= 1")
	case c.LSB < 0:
		return errors.New("sensor: LSB must be non-negative")
	case c.NoiseSigma < 0:
		return errors.New("sensor: NoiseSigma must be non-negative")
	case c.Horizon < 0:
		return errors.New("sensor: Horizon must be non-negative")
	}
	return nil
}

// Bank models the sensors of one router input port (or one vnet slice
// of it) together with the most- and least-degraded comparators. A
// bank holds no per-sensor records: each sensor is one device of the
// window the bank reads, and every sensor samples on the bank's clock,
// so a refresh measures the whole window and the bank keeps only the
// comparator outputs it held since.
type Bank struct {
	// devs is the window of devices the bank's sensors read, owned by
	// the caller (typically a subslice of a network's device arena).
	devs []nbti.Device
	// noise holds one read-noise source per device, owned by the
	// caller; nil for a noiseless config.
	noise []rng.Source
	cfg   *Config
	// model projects a device's stress history into ΔVth when
	// cfg.Horizon is non-zero.
	model *nbti.Params
	// mSamples mirrors actual measurements into the process metrics
	// registry; nil when instrumentation is disabled.
	mSamples *metrics.Counter
	// lastUpdate is the cycle of the last refresh; primed is false
	// until the first one.
	lastUpdate uint64
	// md and ld hold the comparator outputs between refreshes.
	md, ld int32
	primed bool
}

// Init makes b the bank over devs, with noise the per-sensor read-noise
// sources (one per device when cfg.NoiseSigma > 0, else nil) — typically
// windows of flat slices holding every bank's devices and sources. b
// must be the zero Bank. devs, noise, model and cfg are shared, not
// copied, so they must outlive the bank; cfg and model must stay
// unchanged.
func (b *Bank) Init(devs []nbti.Device, noise []rng.Source, model *nbti.Params, cfg *Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	switch {
	case len(devs) == 0:
		return errors.New("sensor: empty bank")
	case cfg.NoiseSigma > 0 && len(noise) != len(devs):
		return errors.New("sensor: NoiseSigma > 0 requires one rng source per sensor")
	case cfg.Horizon > 0 && model == nil:
		return errors.New("sensor: Horizon > 0 requires an NBTI model")
	}
	b.devs, b.noise, b.model, b.cfg = devs, noise, model, cfg
	b.mSamples = SamplesCounter()
	return nil
}

// Size returns the number of sensors in the bank.
func (b *Bank) Size() int { return len(b.devs) }

// trueVth returns the noiseless quantity sensor i observes.
func (b *Bank) trueVth(i int) float64 {
	d := &b.devs[i]
	if floats.ExactZero(b.cfg.Horizon) {
		// Horizon is a config field: 0 means "report current Vth", any
		// projection is set explicitly and never computed.
		return d.Vth0
	}
	return d.Vth(b.model, b.cfg.Horizon)
}

// measure takes one reading of sensor i: the observed threshold voltage
// plus read noise, quantised.
func (b *Bank) measure(i int) float64 {
	v := b.trueVth(i)
	if b.cfg.NoiseSigma > 0 {
		v += b.noise[i].Norm(0, b.cfg.NoiseSigma)
	}
	return b.quantise(v)
}

// quantise rounds v to the readout's LSB (identity for an ideal
// readout).
func (b *Bank) quantise(v float64) float64 {
	if b.cfg.LSB > 0 {
		return math.Round(v/b.cfg.LSB) * b.cfg.LSB
	}
	return v
}

// refresh re-evaluates the comparators when the sampling period has
// elapsed (and always on the first call), measuring every sensor in
// index order.
func (b *Bank) refresh(cycle uint64) {
	if b.primed && cycle-b.lastUpdate < b.cfg.SamplePeriod {
		return
	}
	e := newExtremes()
	for i := range b.devs {
		e.add(i, b.measure(i))
	}
	b.md, b.ld = int32(e.maxI), int32(e.minI)
	b.lastUpdate = cycle
	b.primed = true
	b.mSamples.Add(uint64(len(b.devs)))
}

// extremes is the comparator pair over one sweep of readings: the first
// maximum and the first minimum, so ties resolve to the lowest index.
type extremes struct {
	maxI, minI int
	maxV, minV float64
}

func newExtremes() extremes { return extremes{maxV: math.Inf(-1), minV: math.Inf(1)} }

func (e *extremes) add(i int, v float64) {
	if v > e.maxV {
		e.maxI, e.maxV = i, v
	}
	if v < e.minV {
		e.minI, e.minV = i, v
	}
}

// Held returns the most- and least-degraded outputs of the last refresh
// without sampling.
func (b *Bank) Held() (md, ld int) { return int(b.md), int(b.ld) }

// Evaluate recomputes the comparator outputs from noiseless readings of
// the devices' current state, touching neither the held outputs, the
// sampling clock nor the sample counter. For a static config it is
// exactly what the next refresh would produce, which lets an owner
// holding a static bank verify the hold.
func (b *Bank) Evaluate() (md, ld int) {
	e := newExtremes()
	for i := range b.devs {
		e.add(i, b.quantise(b.trueVth(i)))
	}
	return e.maxI, e.minI
}

// MostDegraded returns the index of the VC whose sensor currently reads
// the highest threshold voltage. The comparator re-evaluates at the bank
// sampling period; ties resolve to the lowest index (hardware priority
// encoder behaviour).
func (b *Bank) MostDegraded(cycle uint64) int {
	b.refresh(cycle)
	return int(b.md)
}

// LeastDegraded returns the index of the VC with the lowest sensor
// reading — the healthiest buffer, used by the wear-steering policy
// extension. Ties resolve to the lowest index.
func (b *Bank) LeastDegraded(cycle uint64) int {
	b.refresh(cycle)
	return int(b.ld)
}

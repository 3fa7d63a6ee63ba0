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

// Sensor measures the threshold voltage of a single device.
type Sensor struct {
	dev  *nbti.Device
	cfg  *Config
	src  *rng.Source
	last float64
	// lastSample is the cycle of the most recent actual measurement;
	// primed=false until the first read.
	lastSample uint64
	primed     bool
}

// New returns a sensor attached to dev. src supplies read noise and may
// be nil when NoiseSigma is 0.
func New(dev *nbti.Device, cfg Config, src *rng.Source) (*Sensor, error) {
	s := &Sensor{}
	if err := s.Init(dev, &cfg, src); err != nil {
		return nil, err
	}
	return s, nil
}

// Init is New in place, for owners that keep their sensors in one flat
// slice; s must be the zero Sensor. cfg is shared, not copied, so it
// must outlive the sensor and stay unchanged.
func (s *Sensor) Init(dev *nbti.Device, cfg *Config, src *rng.Source) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if dev == nil {
		return errors.New("sensor: nil device")
	}
	if cfg.NoiseSigma > 0 && src == nil {
		return errors.New("sensor: NoiseSigma > 0 requires an rng source")
	}
	s.dev, s.cfg, s.src = dev, cfg, src
	return nil
}

// Device returns the monitored device.
func (s *Sensor) Device() *nbti.Device { return s.dev }

// trueVth returns the noiseless quantity the sensor observes.
func (s *Sensor) trueVth() float64 {
	if floats.ExactZero(s.cfg.Horizon) {
		// Horizon is a config field: 0 means "report current Vth", any
		// projection is set explicitly and never computed.
		return s.dev.Vth0
	}
	return s.dev.Vth(s.cfg.Horizon)
}

// Read returns the sensor output at the given cycle. A fresh measurement
// is taken when at least SamplePeriod cycles have elapsed since the last
// one (and always on the first call); otherwise the held value is
// returned.
func (s *Sensor) Read(cycle uint64) float64 {
	if s.primed && cycle-s.lastSample < s.cfg.SamplePeriod {
		return s.last
	}
	v := s.trueVth()
	if s.cfg.NoiseSigma > 0 {
		v += s.src.Norm(0, s.cfg.NoiseSigma)
	}
	v = s.quantise(v)
	s.last = v
	s.lastSample = cycle
	s.primed = true
	return v
}

// quantise rounds v to the readout's LSB (identity for an ideal
// readout).
func (s *Sensor) quantise(v float64) float64 {
	if s.cfg.LSB > 0 {
		return math.Round(v/s.cfg.LSB) * s.cfg.LSB
	}
	return v
}

// Bank groups the sensors of one router input port together with the
// most- and least-degraded comparators.
type Bank struct {
	sensors []Sensor
	// md and ld cache the comparator outputs between refreshes.
	md, ld     int
	lastUpdate uint64
	primed     bool
	period     uint64
	// mSamples mirrors actual measurements into the process metrics
	// registry; nil when instrumentation is disabled.
	mSamples *metrics.Counter
}

// NewBank builds a bank over the given devices, one sensor each. src is
// split per sensor so noise streams are independent but reproducible.
func NewBank(devs []*nbti.Device, cfg Config, src *rng.Source) (*Bank, error) {
	sensors := make([]Sensor, len(devs))
	for i, d := range devs {
		var child *rng.Source
		if cfg.NoiseSigma > 0 {
			child = src.Split()
		}
		if err := sensors[i].Init(d, &cfg, child); err != nil {
			return nil, err
		}
	}
	b := &Bank{}
	if err := b.Init(sensors, cfg); err != nil {
		return nil, err
	}
	return b, nil
}

// Init makes b the comparator bank over sensors, which the caller has
// initialised (Sensor.Init) and owns — typically a window of a flat
// slice holding every bank's sensors. b must be the zero Bank.
func (b *Bank) Init(sensors []Sensor, cfg Config) error {
	if len(sensors) == 0 {
		return errors.New("sensor: empty bank")
	}
	b.sensors = sensors
	b.period = cfg.SamplePeriod
	b.mSamples = SamplesCounter()
	return nil
}

// Size returns the number of sensors in the bank.
func (b *Bank) Size() int { return len(b.sensors) }

// Sensor returns the i-th sensor.
func (b *Bank) Sensor(i int) *Sensor { return &b.sensors[i] }

// refresh re-evaluates the comparators when the sampling period has
// elapsed.
func (b *Bank) refresh(cycle uint64) {
	if b.primed && cycle-b.lastUpdate < b.period {
		return
	}
	e := newExtremes()
	for i := range b.sensors {
		e.add(i, b.sensors[i].Read(cycle))
	}
	b.md, b.ld = e.maxI, e.minI
	b.lastUpdate = cycle
	b.primed = true
	b.mSamples.Add(uint64(len(b.sensors)))
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
func (b *Bank) Held() (md, ld int) { return b.md, b.ld }

// Evaluate recomputes the comparator outputs from noiseless readings of
// the devices' current state, touching neither the held outputs, the
// sampling clocks nor the sample counter. For a static config it is
// exactly what the next refresh would produce, which lets an owner
// holding a static bank verify the hold.
func (b *Bank) Evaluate() (md, ld int) {
	e := newExtremes()
	for i := range b.sensors {
		s := &b.sensors[i]
		e.add(i, s.quantise(s.trueVth()))
	}
	return e.maxI, e.minI
}

// MostDegraded returns the index of the VC whose sensor currently reads
// the highest threshold voltage. The comparator re-evaluates at the bank
// sampling period; ties resolve to the lowest index (hardware priority
// encoder behaviour).
func (b *Bank) MostDegraded(cycle uint64) int {
	b.refresh(cycle)
	return b.md
}

// LeastDegraded returns the index of the VC with the lowest sensor
// reading — the healthiest buffer, used by the wear-steering policy
// extension. Ties resolve to the lowest index.
func (b *Bank) LeastDegraded(cycle uint64) int {
	b.refresh(cycle)
	return b.ld
}

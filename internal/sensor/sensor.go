// Package sensor models per-VC NBTI degradation sensors and the
// most-degraded comparator placed in each downstream router.
//
// The paper instruments every virtual-channel buffer with one NBTI sensor
// (a synthesizable 45 nm multi-degradation sensor, reference [20]) and a
// comparator that selects the single most degraded VC of an input port;
// that VC identifier is sent to the upstream router over the Down_Up
// link. This package reproduces the measurement path as a reading fed
// to a controller: Sweep samples a window of devices — each sensor reads
// the absolute threshold voltage of its buffer's critical PMOS, the
// process-variation Vth0 plus the stress-history-dependent ΔVth, subject
// to configurable quantisation and read noise — and returns the
// comparator outputs. The package keeps no state: the network owns the
// devices and noise sources, samples on its own clock (Config.
// SamplePeriod) and holds the outputs where the hardware does, on the
// Down_Up link.
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

// MetricSamples counts actual sensor measurements (sweeps times the
// sensors each reads); held outputs between sampling periods do not
// count.
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
// deterministic). A static sweep's comparator outputs can then change
// only when some Vth0 is rewritten, so an owner that knows every such
// write may hold them instead of re-sampling.
func (c Config) Static() bool {
	return floats.ExactZero(c.NoiseSigma) && floats.ExactZero(c.Horizon)
}

// SamplesCounter resolves the MetricSamples counter from the process
// default registry (nil, a no-op, when instrumentation is disabled).
func SamplesCounter() *metrics.Counter {
	return metrics.Default().Counter(MetricSamples,
		"Actual sensor measurements taken by sensor sweeps.")
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

// Sweep is one sampling of a port's sensors and its comparators: each
// sensor of the window measures its device in index order — the
// observed threshold voltage, plus read noise from the sensor's noise
// source when noise is not nil, quantised — and the comparators return
// the index of the highest reading (the most degraded VC) and of the
// lowest (the least degraded VC, used by the wear-steering extension).
// Ties resolve to the lowest index (hardware priority encoder
// behaviour). A nil noise window reads noiselessly and draws nothing,
// which for a static cfg is exactly what a noisy sweep would return.
// Sweep holds no state: the caller owns the devices, the noise sources
// and the comparator outputs, and decides when to sample.
func Sweep(devs []nbti.Device, noise []rng.Source, cfg *Config, model *nbti.Params) (md, ld int) {
	switch {
	case len(devs) == 0:
		panic("sensor: sweep over an empty sensor window")
	case noise != nil && len(noise) != len(devs):
		panic("sensor: a noisy sweep needs one noise source per sensor")
	case cfg.Horizon > 0 && model == nil:
		panic("sensor: Horizon > 0 requires an NBTI model")
	}
	maxV, minV := math.Inf(-1), math.Inf(1)
	for i := range devs {
		var src *rng.Source
		if noise != nil {
			src = &noise[i]
		}
		v := measure(&devs[i], src, cfg, model)
		if v > maxV {
			md, maxV = i, v
		}
		if v < minV {
			ld, minV = i, v
		}
	}
	return md, ld
}

// measure takes one reading of device d: the observed threshold voltage
// plus read noise drawn from src (none when src is nil), quantised.
func measure(d *nbti.Device, src *rng.Source, cfg *Config, model *nbti.Params) float64 {
	// Horizon is a config field: 0 means "report current Vth", any
	// projection is set explicitly and never computed.
	v := d.Vth0
	if !floats.ExactZero(cfg.Horizon) {
		v = d.Vth(model, cfg.Horizon)
	}
	if src != nil && cfg.NoiseSigma > 0 {
		v += src.Norm(0, cfg.NoiseSigma)
	}
	if cfg.LSB > 0 {
		return math.Round(v/cfg.LSB) * cfg.LSB
	}
	return v
}

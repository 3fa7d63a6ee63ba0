// Package pv models within-die process variation of the initial PMOS
// threshold voltage of NoC virtual-channel buffers.
//
// Following Section IV-A of the paper, each VC buffer is represented by
// its most degraded PMOS transistor: all transistors in a buffer are
// assumed to share that worst-case initial Vth, and each buffer's value
// is an independent draw from a Gaussian distribution
// (|mean| = 0.180 V at 45 nm, σ = 0.005 V [25]). Die-to-die variation is
// taken as constant within one chip and therefore not modelled.
//
// One sample set is drawn per {architecture, traffic} scenario and shared
// by every policy evaluated on that scenario, so that the most degraded
// VC is identical across policies — the paper's consistency requirement.
package pv

import (
	"errors"
	"fmt"

	"nbtinoc/internal/rng"
)

// Distribution describes the within-die initial-Vth spread.
type Distribution struct {
	// MeanVth is the absolute average initial threshold voltage.
	MeanVth float64
	// Sigma is the standard deviation of the Gaussian draw.
	Sigma float64
	// ClampSigmas truncates draws to MeanVth ± ClampSigmas·Sigma to keep
	// pathological tail samples (negative or near-Vdd Vth) out of the
	// model; 0 disables clamping. The paper draws from an untruncated
	// Gaussian; 6σ clamping is numerically indistinguishable.
	ClampSigmas float64
}

// Default45nm returns the paper's 45 nm distribution:
// N(0.180 V, 0.005 V).
func Default45nm() Distribution {
	return Distribution{MeanVth: 0.180, Sigma: 0.005, ClampSigmas: 6}
}

// Default32nm returns the paper's 32 nm corner: N(0.160 V, 0.005 V).
func Default32nm() Distribution {
	return Distribution{MeanVth: 0.160, Sigma: 0.005, ClampSigmas: 6}
}

// Validate reports whether the distribution is usable.
func (d Distribution) Validate() error {
	switch {
	case d.MeanVth <= 0:
		return errors.New("pv: MeanVth must be positive")
	case d.Sigma < 0:
		return errors.New("pv: Sigma must be non-negative")
	case d.ClampSigmas < 0:
		return errors.New("pv: ClampSigmas must be non-negative")
	case d.ClampSigmas > 0 && d.MeanVth-d.ClampSigmas*d.Sigma <= 0:
		return fmt.Errorf("pv: clamp window [%v, %v] reaches non-positive Vth",
			d.MeanVth-d.ClampSigmas*d.Sigma, d.MeanVth+d.ClampSigmas*d.Sigma)
	}
	return nil
}

// Sample draws one initial Vth value.
func (d Distribution) Sample(src *rng.Source) float64 {
	v := src.Norm(d.MeanVth, d.Sigma)
	if d.ClampSigmas > 0 {
		lo := d.MeanVth - d.ClampSigmas*d.Sigma
		hi := d.MeanVth + d.ClampSigmas*d.Sigma
		if v < lo {
			v = lo
		} else if v > hi {
			v = hi
		}
	}
	return v
}

// SampleN draws n initial Vth values.
func (d Distribution) SampleN(src *rng.Source, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = d.Sample(src)
	}
	return out
}

// MostDegraded returns the index of the maximum value in vths — with
// pure process variation (no accumulated stress) the buffer with the
// highest initial Vth is the most degraded one. It returns -1 for an
// empty slice; ties resolve to the lowest index, matching a hardware
// priority comparator.
func MostDegraded(vths []float64) int {
	best := -1
	bestV := 0.0
	for i, v := range vths {
		if best == -1 || v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// VCMap holds the sampled initial Vth for every VC buffer of every router
// input port in a network, addressed as (router, port, vc).
type VCMap struct {
	// Routers, Ports and VCs are the map's dimensions.
	Routers, Ports, VCs int
	// Vth holds every sample in draw order: router-major, then port,
	// then vc — one flat slice, so a map of any size is one allocation.
	Vth []float64
}

// SampleNetwork draws a full network's worth of initial Vth values for
// routers×ports×vcs buffers from a single seed, in a fixed traversal
// order so results are reproducible.
func SampleNetwork(d Distribution, seed uint64, routers, ports, vcs int) *VCMap {
	if routers < 0 || ports < 0 || vcs < 0 {
		panic("pv: negative dimension")
	}
	src := rng.New(seed)
	m := &VCMap{Routers: routers, Ports: ports, VCs: vcs,
		Vth: make([]float64, routers*ports*vcs)}
	for i := range m.Vth {
		m.Vth[i] = d.Sample(src)
	}
	return m
}

// offset returns the index in Vth of the first VC of (router, port).
//
//nbtilint:packed
func (m *VCMap) offset(router, port int) int { return (router*m.Ports + port) * m.VCs }

// At returns the initial Vth for a specific buffer.
func (m *VCMap) At(router, port, vc int) float64 { return m.Vth[m.offset(router, port)+vc] }

// PortVths returns the slice of initial Vths for one input port.
func (m *VCMap) PortVths(router, port int) []float64 {
	lo := m.offset(router, port)
	return m.Vth[lo : lo+m.VCs : lo+m.VCs]
}

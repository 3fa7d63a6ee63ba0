// Package sweep is the sharded campaign layer: it expands a declarative
// scenario grid into content-addressed work units (a unit's cache key
// IS its work id), shards the units across worker processes that share
// one result cache, and merges the finished campaign through a
// strictly-sequential reduction — so the merged report is byte-identical
// to a single-process run at any (processes × workers) topology.
//
// Coordination happens through the cache directory itself: workers
// claim units via internal/cache lease files (cross-process
// single-flight), a killed worker's claims expire by heartbeat and are
// taken over, and a campaign's progress is a schema-versioned manifest
// that any later invocation can resume, skipping completed keys.
package sweep

import (
	"fmt"
	"io"
	"os"
	"strconv"

	"nbtinoc/internal/cache"
	"nbtinoc/internal/sim"
)

// Axes are the swept dimensions of a grid. Every non-empty axis
// multiplies the unit count; an empty axis leaves the base scenario's
// value in place. Expansion order is fixed (meshes outermost, PV seeds
// innermost), so a grid always enumerates to the same unit indices on
// every machine — the property range-sharding and resumable manifests
// are built on.
type Axes struct {
	// Meshes lists geometries as "WxH" strings (e.g. "4x4").
	Meshes []string `json:"meshes,omitempty"`
	// Policies lists recovery-policy registry names.
	Policies []string `json:"policies,omitempty"`
	// Workloads lists synthetic pattern names, "app" or "req-resp".
	Workloads []string `json:"workloads,omitempty"`
	// Rates lists injection rates in flits/cycle/node.
	Rates []float64 `json:"rates,omitempty"`
	// VCs lists VC-per-vnet counts.
	VCs []int `json:"vcs,omitempty"`
	// Seeds lists traffic seeds; PVSeeds lists silicon seeds.
	Seeds   []uint64 `json:"seeds,omitempty"`
	PVSeeds []uint64 `json:"pv_seeds,omitempty"`
}

// Grid is a declarative sweep campaign: a base scenario plus the axes
// swept around it.
type Grid struct {
	// Name labels the campaign in manifests and reports.
	Name string `json:"name"`
	// Base is the scenario every unit starts from.
	Base sim.Scenario `json:"base"`
	// Axes are the swept dimensions.
	Axes Axes `json:"axes"`
	// Probes lists observed ports in "node:port" syntax. The single
	// entry "all" probes every instantiated input port of each unit's
	// mesh.
	Probes []string `json:"probes,omitempty"`
}

// Unit is one expanded grid point: a spec plus its identity.
type Unit struct {
	// Index is the unit's position in the fixed expansion order.
	Index int `json:"index"`
	// Label names the grid point human-readably (axis values joined).
	Label string `json:"label"`
	// Key is the spec's content address — the work id every layer
	// (cache entries, leases, manifests) agrees on.
	Key string `json:"key"`
	// Spec is the declarative simulation request.
	Spec sim.Spec `json:"spec"`
}

// axisValues returns a slice with one element per grid point along an
// axis: the axis itself when set, or one "keep the base value" marker.
func axisLen(n int) int {
	if n == 0 {
		return 1
	}
	return n
}

// Expand enumerates the grid into units in the fixed axis order,
// validating every point. The enumeration is deterministic: same grid,
// same units, same indices, everywhere.
func (g *Grid) Expand() ([]Unit, error) {
	if g.Name == "" {
		return nil, fmt.Errorf("sweep: grid needs a name")
	}
	n := axisLen(len(g.Axes.Meshes)) * axisLen(len(g.Axes.Policies)) *
		axisLen(len(g.Axes.Workloads)) * axisLen(len(g.Axes.Rates)) *
		axisLen(len(g.Axes.VCs)) * axisLen(len(g.Axes.Seeds)) *
		axisLen(len(g.Axes.PVSeeds))
	units := make([]Unit, 0, n)
	for mi := 0; mi < axisLen(len(g.Axes.Meshes)); mi++ {
		for pi := 0; pi < axisLen(len(g.Axes.Policies)); pi++ {
			for wi := 0; wi < axisLen(len(g.Axes.Workloads)); wi++ {
				for ri := 0; ri < axisLen(len(g.Axes.Rates)); ri++ {
					for vi := 0; vi < axisLen(len(g.Axes.VCs)); vi++ {
						for si := 0; si < axisLen(len(g.Axes.Seeds)); si++ {
							for qi := 0; qi < axisLen(len(g.Axes.PVSeeds)); qi++ {
								u, err := g.point(len(units), mi, pi, wi, ri, vi, si, qi)
								if err != nil {
									return nil, err
								}
								units = append(units, u)
							}
						}
					}
				}
			}
		}
	}
	return units, nil
}

// point builds the unit at one coordinate of the axis lattice.
func (g *Grid) point(index, mi, pi, wi, ri, vi, si, qi int) (Unit, error) {
	s := g.Base // scenario is a value type: a fresh copy per point
	var label []byte
	add := func(part string) {
		if len(label) > 0 {
			label = append(label, '/')
		}
		label = append(label, part...)
	}
	if len(g.Axes.Meshes) > 0 {
		m, err := sim.ParseMesh(g.Axes.Meshes[mi])
		if err != nil {
			return Unit{}, fmt.Errorf("sweep: grid %q: %v", g.Name, err)
		}
		s.Width, s.Height, s.Cores = m.Width, m.Height, 0
		add(g.Axes.Meshes[mi])
	}
	if len(g.Axes.Policies) > 0 {
		s.Policy = g.Axes.Policies[pi]
		add(s.Policy)
	}
	if len(g.Axes.Workloads) > 0 {
		s.Workload = g.Axes.Workloads[wi]
		add(s.Workload)
	}
	if len(g.Axes.Rates) > 0 {
		s.Rate = g.Axes.Rates[ri]
		add("r" + strconv.FormatFloat(s.Rate, 'g', -1, 64))
	}
	if len(g.Axes.VCs) > 0 {
		s.VCs = g.Axes.VCs[vi]
		add("vc" + strconv.Itoa(s.VCs))
	}
	if len(g.Axes.Seeds) > 0 {
		s.Seed = g.Axes.Seeds[si]
		add("s" + strconv.FormatUint(s.Seed, 10))
	}
	if len(g.Axes.PVSeeds) > 0 {
		s.PVSeed = g.Axes.PVSeeds[qi]
		add("pv" + strconv.FormatUint(s.PVSeed, 10))
	}
	if len(label) == 0 {
		label = append(label, "base"...)
	}
	spec, err := s.Spec(nil)
	if err == nil {
		spec.Probes, err = g.probes(spec.Net.Width, spec.Net.Height)
	}
	if err != nil {
		return Unit{}, fmt.Errorf("sweep: grid %q point %s: %w", g.Name, label, err)
	}
	key, err := sim.SpecKey(spec)
	if err != nil {
		return Unit{}, fmt.Errorf("sweep: grid %q point %s: %w", g.Name, label, err)
	}
	return Unit{Index: index, Label: string(label), Key: key, Spec: spec}, nil
}

// probes resolves the grid's probe list for one unit's width×height
// mesh.
func (g *Grid) probes(width, height int) ([]sim.PortProbe, error) {
	if len(g.Probes) == 0 {
		return nil, nil
	}
	if len(g.Probes) == 1 && g.Probes[0] == "all" {
		return sim.AllPortProbes(width, height), nil
	}
	probes := make([]sim.PortProbe, 0, len(g.Probes))
	for _, p := range g.Probes {
		probe, err := sim.ParsePortProbe(p)
		if err != nil {
			return nil, err
		}
		probes = append(probes, probe)
	}
	return probes, nil
}

// Key is the grid's content address under the current engine version:
// the identity a manifest checks on resume, so a grid edited after the
// campaign started is rejected instead of silently mixing unit sets.
func (g *Grid) Key() (string, error) {
	return cache.KeyOf(struct {
		Engine string `json:"engine"`
		Grid   *Grid  `json:"grid"`
	}{sim.EngineVersion, g})
}

// LoadGrid parses and structurally checks a grid from JSON, refusing
// unknown fields and trailing data.
func LoadGrid(r io.Reader) (*Grid, error) {
	var g Grid
	if err := sim.DecodeStrict(r, &g); err != nil {
		return nil, fmt.Errorf("sweep: parsing grid: %w", err)
	}
	if _, err := g.Expand(); err != nil {
		return nil, err
	}
	return &g, nil
}

// LoadGridFile parses a grid from a JSON file.
func LoadGridFile(path string) (*Grid, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadGrid(f)
}

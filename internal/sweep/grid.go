// Package sweep is the sharded campaign layer. A campaign is a spec
// list: a declarative scenario grid expanded point by point, or the run
// set of a CLI's -sweep-manifest. Each distinct spec is one
// content-addressed work unit (a unit's cache key IS its work id);
// every worker process gets the whole pending list, rotated to its own
// starting point, against one shared result cache, and the finished
// campaign is merged through a
// strictly-sequential reduction — so the merged report is
// byte-identical to a single-process run at any (processes × workers)
// topology.
//
// Coordination happens through the cache directory itself: workers
// claim units via internal/cache lease files (cross-process
// single-flight, so each unit is computed once), a killed worker's
// claims expire by heartbeat and the surviving workers take its units
// over in the same round. A campaign's manifest is its spec list,
// written once when the campaign is created; its progress is the cache
// itself, so any later invocation resumes by skipping the keys the
// cache holds, and workers skip them too without reading them.
package sweep

import (
	"fmt"
	"io"
	"os"
	"strconv"

	"nbtinoc/internal/sim"
)

// Axes are the swept dimensions of a grid. Every non-empty axis
// multiplies the point count; an empty axis leaves the base scenario's
// value in place. Expansion order is fixed (meshes outermost, PV seeds
// innermost), so a grid always enumerates to the same points in the
// same order on every machine, and so to the same unit keys.
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

// Grid is the authoring format of a sweep campaign: a base scenario
// plus the axes swept around it, expanded into the spec list a
// manifest holds.
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

// axisLen is the number of grid points along an axis of n values: n
// when the axis is set, or 1 (the base scenario's value) when empty.
func axisLen(n int) int {
	if n == 0 {
		return 1
	}
	return n
}

// Expand enumerates the grid's points in the fixed axis order,
// validating each, and returns every point's label (axis values joined)
// and spec. The enumeration is deterministic: same grid, same labels
// and specs in the same order, everywhere.
func (g *Grid) Expand() (labels []string, specs []sim.Spec, err error) {
	if g.Name == "" {
		return nil, nil, fmt.Errorf("sweep: grid needs a name")
	}
	n := axisLen(len(g.Axes.Meshes)) * axisLen(len(g.Axes.Policies)) *
		axisLen(len(g.Axes.Workloads)) * axisLen(len(g.Axes.Rates)) *
		axisLen(len(g.Axes.VCs)) * axisLen(len(g.Axes.Seeds)) *
		axisLen(len(g.Axes.PVSeeds))
	labels, specs = make([]string, 0, n), make([]sim.Spec, 0, n)
	for mi := 0; mi < axisLen(len(g.Axes.Meshes)); mi++ {
		for pi := 0; pi < axisLen(len(g.Axes.Policies)); pi++ {
			for wi := 0; wi < axisLen(len(g.Axes.Workloads)); wi++ {
				for ri := 0; ri < axisLen(len(g.Axes.Rates)); ri++ {
					for vi := 0; vi < axisLen(len(g.Axes.VCs)); vi++ {
						for si := 0; si < axisLen(len(g.Axes.Seeds)); si++ {
							for qi := 0; qi < axisLen(len(g.Axes.PVSeeds)); qi++ {
								label, spec, err := g.point(mi, pi, wi, ri, vi, si, qi)
								if err != nil {
									return nil, nil, err
								}
								labels, specs = append(labels, label), append(specs, spec)
							}
						}
					}
				}
			}
		}
	}
	return labels, specs, nil
}

// point builds the label and spec at one coordinate of the axis
// lattice.
func (g *Grid) point(mi, pi, wi, ri, vi, si, qi int) (string, sim.Spec, error) {
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
			return "", sim.Spec{}, fmt.Errorf("sweep: grid %q: %v", g.Name, err)
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
		return "", sim.Spec{}, fmt.Errorf("sweep: grid %q point %s: %w", g.Name, label, err)
	}
	return string(label), spec, nil
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

// LoadGrid parses and structurally checks a grid from JSON, refusing
// unknown fields and trailing data.
func LoadGrid(r io.Reader) (*Grid, error) {
	var g Grid
	if err := sim.DecodeStrict(r, &g); err != nil {
		return nil, fmt.Errorf("sweep: parsing grid: %w", err)
	}
	if _, _, err := g.Expand(); err != nil {
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

package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"nbtinoc/internal/sim"
)

// ManifestSchema versions the manifest file format, like entrySchema
// versions cache entries: an unknown schema is an error, never a guess.
const ManifestSchema = 1

// UnitState is the lifecycle of one unit within a campaign.
type UnitState string

const (
	// UnitPending units have not been computed into the cache yet.
	UnitPending UnitState = "pending"
	// UnitDone units have their summary in the cache.
	UnitDone UnitState = "done"
	// UnitFailed units errored; Err holds the message.
	UnitFailed UnitState = "failed"
)

// ManifestUnit records one unit's identity and state. Spec is embedded
// only in manifests without a Grid (spec-list campaigns); grid-based
// manifests rebuild specs by re-expanding the grid, keeping a
// 10⁵-unit manifest to megabytes instead of embedding 10⁵ configs.
type ManifestUnit struct {
	Index int       `json:"index"`
	Key   string    `json:"key"`
	Label string    `json:"label"`
	State UnitState `json:"state"`
	Spec  *sim.Spec `json:"spec,omitempty"`
	Err   string    `json:"err,omitempty"`
}

// Manifest is the resumable record of a campaign: which units exist,
// under which engine their keys were derived, and how far each got. It
// is saved atomically (temp+rename) before workers start and after
// they finish, so a killed campaign resumes from the last checkpoint
// and the cache fills the gap in between.
type Manifest struct {
	Schema int    `json:"schema"`
	Name   string `json:"name"`
	// Engine is the engine version the unit keys were derived under; a
	// mismatch on load means every key is stale and resuming would
	// silently recompute everything, so it is refused loudly instead.
	Engine string `json:"engine"`
	// GridKey pins the generating grid's content address; Grid is the
	// grid itself for grid-based campaigns.
	GridKey string         `json:"grid_key,omitempty"`
	Grid    *Grid          `json:"grid,omitempty"`
	Units   []ManifestUnit `json:"units"`
}

// NewManifest builds a grid-based manifest with every unit pending.
func NewManifest(g *Grid) (*Manifest, []Unit, error) {
	units, err := g.Expand()
	if err != nil {
		return nil, nil, err
	}
	gridKey, err := g.Key()
	if err != nil {
		return nil, nil, err
	}
	m := &Manifest{
		Schema:  ManifestSchema,
		Name:    g.Name,
		Engine:  sim.EngineVersion,
		GridKey: gridKey,
		Grid:    g,
		Units:   make([]ManifestUnit, len(units)),
	}
	for i, u := range units {
		m.Units[i] = ManifestUnit{Index: u.Index, Key: u.Key, Label: u.Label, State: UnitPending}
	}
	return m, units, nil
}

// Resolve rebuilds the executable units of a loaded manifest: from the
// embedded grid when present (checking that re-expansion reproduces the
// recorded keys — the grid and the unit list cannot drift apart), or
// from the per-unit embedded specs otherwise.
func (m *Manifest) Resolve() ([]Unit, error) {
	if m.Grid != nil {
		units, err := m.Grid.Expand()
		if err != nil {
			return nil, err
		}
		if len(units) != len(m.Units) {
			return nil, fmt.Errorf("sweep: manifest %q: grid expands to %d units, manifest records %d",
				m.Name, len(units), len(m.Units))
		}
		for i, u := range units {
			if u.Key != m.Units[i].Key {
				return nil, fmt.Errorf("sweep: manifest %q: unit %d key mismatch (grid %s, manifest %s)",
					m.Name, i, u.Key[:12], m.Units[i].Key[:12])
			}
		}
		return units, nil
	}
	units := make([]Unit, len(m.Units))
	for i, mu := range m.Units {
		if mu.Spec == nil {
			return nil, fmt.Errorf("sweep: manifest %q: unit %d has neither grid nor spec", m.Name, i)
		}
		key, err := sim.SpecKey(*mu.Spec)
		if err != nil {
			return nil, err
		}
		if key != mu.Key {
			return nil, fmt.Errorf("sweep: manifest %q: unit %d spec re-keys to %s, recorded %s",
				m.Name, i, key[:12], mu.Key[:12])
		}
		units[i] = Unit{Index: mu.Index, Label: mu.Label, Key: mu.Key, Spec: *mu.Spec}
	}
	return units, nil
}

// validate structurally checks a decoded manifest.
func (m *Manifest) validate() error {
	if m.Schema != ManifestSchema {
		return fmt.Errorf("sweep: manifest schema %d not supported (want %d)", m.Schema, ManifestSchema)
	}
	if m.Engine != sim.EngineVersion {
		return fmt.Errorf("sweep: manifest was built under engine %q, this build is %q — its keys are stale; start a fresh campaign",
			m.Engine, sim.EngineVersion)
	}
	for i, u := range m.Units {
		if u.Index != i {
			return fmt.Errorf("sweep: manifest unit %d records index %d", i, u.Index)
		}
		if u.Key == "" {
			return fmt.Errorf("sweep: manifest unit %d has no key", i)
		}
		switch u.State {
		case UnitPending, UnitDone, UnitFailed:
		default:
			return fmt.Errorf("sweep: manifest unit %d has unknown state %q", i, u.State)
		}
	}
	return nil
}

// LoadManifest reads and validates a manifest file, refusing unknown
// fields and trailing data.
func LoadManifest(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var m Manifest
	if err := sim.DecodeStrict(f, &m); err != nil {
		return nil, fmt.Errorf("sweep: parsing manifest %s: %w", path, err)
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// Save writes the manifest atomically: temp file in the target
// directory, then rename. A crash mid-save leaves the previous
// checkpoint intact, never a torn file.
func (m *Manifest) Save(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+"-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Counts tallies units by state.
func (m *Manifest) Counts() (pending, done, failed int) {
	for _, u := range m.Units {
		switch u.State {
		case UnitDone:
			done++
		case UnitFailed:
			failed++
		default:
			pending++
		}
	}
	return pending, done, failed
}

// NewSpecManifest builds a manifest of a spec list with every unit
// pending — the campaign behind the CLIs' -sweep-manifest flag, written
// before anything simulates. Specs are deduplicated by content address
// in enumeration order, so a run several tables share is one unit.
func NewSpecManifest(name string, specs []sim.Spec) (*Manifest, error) {
	m := &Manifest{Schema: ManifestSchema, Name: name, Engine: sim.EngineVersion, Units: []ManifestUnit{}}
	seen := make(map[string]bool, len(specs))
	for i := range specs {
		key, err := sim.SpecKey(specs[i])
		if err != nil {
			return nil, err
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		s := specs[i]
		m.Units = append(m.Units, ManifestUnit{
			Index: len(m.Units),
			Key:   key,
			Label: fmt.Sprintf("%s/%s/vc%d", s.Policy.Name, s.Gen.Kind, s.Net.VCsPerVNet),
			State: UnitPending,
			Spec:  &s,
		})
	}
	return m, nil
}

package sweep

import (
	"encoding/json"
	"fmt"
	"os"

	"nbtinoc/internal/cache"
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

// Unit is one run of a campaign: its position in the manifest, its
// spec's content address (the work id every layer — cache entries,
// leases, manifests — agrees on), a human-readable label, its state,
// and the spec itself, so a loaded manifest is ready to run.
type Unit struct {
	Index int       `json:"index"`
	Key   string    `json:"key"`
	Label string    `json:"label"`
	State UnitState `json:"state"`
	Spec  sim.Spec  `json:"spec"`
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
	Units  []Unit `json:"units"`
}

// NewManifest builds the campaign of a spec list with every unit
// pending. labels[i] names specs[i]. Specs are deduplicated by content
// address in enumeration order, so a run listed twice (a run several
// tables share, or grid points that compile to one spec) is one unit
// under its first label.
func NewManifest(name string, labels []string, specs []sim.Spec) (*Manifest, error) {
	if len(labels) != len(specs) {
		return nil, fmt.Errorf("sweep: %d labels for %d specs", len(labels), len(specs))
	}
	m := &Manifest{Schema: ManifestSchema, Name: name, Engine: sim.EngineVersion, Units: make([]Unit, 0, len(specs))}
	seen := make(map[string]bool, len(specs))
	for i := range specs {
		key, err := sim.SpecKey(specs[i])
		if err != nil {
			return nil, fmt.Errorf("sweep: %s: %w", labels[i], err)
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		m.Units = append(m.Units, Unit{
			Index: len(m.Units),
			Key:   key,
			Label: labels[i],
			State: UnitPending,
			Spec:  specs[i],
		})
	}
	return m, nil
}

// validate checks a decoded manifest: its schema and engine, and that
// each unit sits at its index, has a known state, and embeds a spec
// that re-keys to its recorded key — an edited key or spec cannot
// drift the unit list away from the runs it names.
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
		switch u.State {
		case UnitPending, UnitDone, UnitFailed:
		default:
			return fmt.Errorf("sweep: manifest unit %d has unknown state %q", i, u.State)
		}
		key, err := sim.SpecKey(u.Spec)
		if err != nil {
			return fmt.Errorf("sweep: manifest unit %d: %w", i, err)
		}
		if key != u.Key {
			return fmt.Errorf("sweep: manifest unit %d spec re-keys to %.12s, recorded %.12s", i, key, u.Key)
		}
	}
	return nil
}

// LoadManifest reads and validates a manifest file, refusing unknown
// fields and trailing data (a grid-form manifest of an older build
// names "grid_key" and is refused here). The loaded manifest is ready
// to run.
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

// Save writes the manifest atomically (cache.WriteFileAtomic): a crash
// mid-save leaves the previous checkpoint intact, never a torn file.
func (m *Manifest) Save(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return cache.WriteFileAtomic(path, append(data, '\n'))
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

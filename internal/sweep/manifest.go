package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"nbtinoc/internal/cache"
	"nbtinoc/internal/sim"
)

// ManifestSchema versions the manifest file format, like entrySchema
// versions cache entries: an unknown schema is an error, never a guess.
// Schema 1 manifests also journalled each unit's state; schema 2 is the
// spec list alone, and a campaign's progress is read from the cache.
const ManifestSchema = 2

// Unit is one run of a campaign: its position in the manifest, its
// spec's content address (the work id every layer — cache entries,
// leases, manifests — agrees on), a human-readable label, and the spec
// itself, so a loaded manifest is ready to run.
type Unit struct {
	Index int      `json:"index"`
	Key   string   `json:"key"`
	Label string   `json:"label"`
	Spec  sim.Spec `json:"spec"`
}

// Manifest is a campaign's spec list: which units exist and under
// which engine their keys were derived. It is written once, when the
// campaign is created, and never rewritten: a unit is done exactly
// when the cache holds its key (Pending), so a killed campaign resumes
// from the cache alone.
type Manifest struct {
	Schema int    `json:"schema"`
	Name   string `json:"name"`
	// Engine is the engine version the unit keys were derived under; a
	// mismatch on load means every key is stale and resuming would
	// silently recompute everything, so it is refused loudly instead.
	Engine string `json:"engine"`
	Units  []Unit `json:"units"`
}

// NewManifest builds the campaign of a spec list. labels[i] names
// specs[i]. Specs are deduplicated by content address in enumeration
// order, so a run listed twice (a run several tables share, or grid
// points that compile to one spec) is one unit under its first label.
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
			Spec:  specs[i],
		})
	}
	return m, nil
}

// validate checks a decoded manifest: its schema and engine, and that
// each unit sits at its index and embeds a spec that re-keys to its
// recorded key — an edited key or spec cannot drift the unit list away
// from the runs it names.
func (m *Manifest) validate() error {
	if err := checkSchema(m.Schema); err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	if m.Engine != sim.EngineVersion {
		return fmt.Errorf("sweep: manifest was built under engine %q, this build is %q — its keys are stale; start a fresh campaign",
			m.Engine, sim.EngineVersion)
	}
	for i, u := range m.Units {
		if u.Index != i {
			return fmt.Errorf("sweep: manifest unit %d records index %d", i, u.Index)
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

// checkSchema refuses a manifest of another schema with the way to
// regenerate it: a manifest holds nothing the cache does not, so a new
// one over the same cache directory loses no finished work.
func checkSchema(schema int) error {
	if schema == ManifestSchema {
		return nil
	}
	return fmt.Errorf("manifest schema %d not supported (want %d); regenerate it: rerun "+
		"`tables ... -sweep-manifest` or `nbtisim ... -sweep-manifest`, or `nbtisweep -grid` with a new -manifest "+
		"path — the cache serves every unit already finished", schema, ManifestSchema)
}

// LoadManifest reads and validates a manifest file, refusing unknown
// fields and trailing data (a grid-form manifest of an older build
// names "grid_key" and is refused here). A manifest of another schema
// is refused by its schema before strict decoding would name the first
// field it no longer has. The loaded manifest is ready to run.
func LoadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var head struct {
		Schema int `json:"schema"`
	}
	if json.Unmarshal(data, &head) == nil {
		if err := checkSchema(head.Schema); err != nil {
			return nil, fmt.Errorf("sweep: %s: %w", path, err)
		}
	}
	var m Manifest
	if err := sim.DecodeStrict(bytes.NewReader(data), &m); err != nil {
		return nil, fmt.Errorf("sweep: parsing manifest %s: %w", path, err)
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// Save writes the manifest atomically (cache.WriteFileAtomic), never a
// torn file. A campaign saves its manifest once, when it is created.
func (m *Manifest) Save(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return cache.WriteFileAtomic(path, append(data, '\n'))
}

// Pending lists, in index order, the positions of the units whose keys
// store does not hold. The cache is a campaign's only progress record:
// a unit finished by any worker or any campaign on the same cache is
// done, and one whose entry was removed is pending again.
func (m *Manifest) Pending(store *cache.Store) []int {
	var pending []int
	for i, u := range m.Units {
		if !store.Has(u.Key) {
			pending = append(pending, i)
		}
	}
	return pending
}

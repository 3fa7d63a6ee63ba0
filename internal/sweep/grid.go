// Package sweep is the sharded campaign layer. A campaign is a spec
// list: a grid of specs expanded point by point, or the run set of a
// CLI's -sweep-manifest. Each distinct spec is one
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
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
	"reflect"
	"sort"
	"strings"

	"nbtinoc/internal/sim"
)

// MaxPoints caps a grid's expansion. A grid whose axes multiply past
// it is refused before anything is enumerated, so a grid file cannot
// ask for an unbounded walk.
const MaxPoints = 1 << 16

// Axis is one swept dimension of a grid: the spec field at Path and
// the values it takes. Path is dotted JSON names as nbtisim -emit-spec
// prints them ("net.NBTI.TempK", "gen.rate", "policy.name"); the empty
// path names the whole spec. A value is written at the path; an object
// value at a struct merges into it key by key, so one value can move
// several fields together, e.g. a mesh on the empty path:
// {"net": {"Width": 8, "Height": 4}, "gen": {"width": 8, "height": 4}}.
type Axis struct {
	Path   string            `json:"path"`
	Values []json.RawMessage `json:"values"`
}

// Grid is the authoring format of a sweep campaign: a base spec, as
// nbtisim -emit-spec writes it, plus the axes swept around it. Its
// points are the cross product of the axes, first axis outermost; each
// is the base with one value of every axis written in, checked by
// Spec.Validate. A point's label joins its values' JSON text (strings
// unquoted) with "/"; a grid without axes is the one point "base".
type Grid struct {
	// Name labels the campaign in manifests and reports.
	Name string   `json:"name"`
	Base sim.Spec `json:"base"`
	Axes []Axis   `json:"axes"`
}

// fieldSet is one field assignment of a resolved axis value: the field
// at index within a Spec takes v.
type fieldSet struct {
	index []int
	v     reflect.Value
}

// axisValue is one resolved axis value: its label part and field sets.
type axisValue struct {
	label string
	sets  []fieldSet
}

// Expand enumerates the grid's points, validating each, and returns
// every point's label and spec, in odometer order (the last axis
// varies fastest). Every path is resolved and every value decoded once,
// up front, so a point costs a struct copy plus its field sets. The
// points share the slices of the base and of slice-valued axis values.
func (g *Grid) Expand() (labels []string, specs []sim.Spec, err error) {
	if g.Name == "" {
		return nil, nil, fmt.Errorf("sweep: grid needs a name")
	}
	n, err := pointCount(g.Axes)
	if err != nil {
		return nil, nil, fmt.Errorf("sweep: grid %q %w", g.Name, err)
	}
	axes := make([][]axisValue, len(g.Axes))
	for i, a := range g.Axes {
		if axes[i], err = resolveAxis(a); err != nil {
			return nil, nil, fmt.Errorf("sweep: grid %q %w", g.Name, err)
		}
	}
	labels, specs = make([]string, 0, n), make([]sim.Spec, 0, n)
	at := make([]int, len(axes))
	var label []byte
	for range n {
		specs = append(specs, g.Base)
		spec := &specs[len(specs)-1]
		fields := reflect.ValueOf(spec).Elem()
		label = label[:0]
		for i, values := range axes {
			p := values[at[i]]
			for _, s := range p.sets {
				fields.FieldByIndex(s.index).Set(s.v)
			}
			if i > 0 {
				label = append(label, '/')
			}
			label = append(label, p.label...)
		}
		if len(axes) == 0 {
			label = append(label, "base"...)
		}
		if err := spec.Validate(); err != nil {
			return nil, nil, fmt.Errorf("sweep: grid %q point %s: %w", g.Name, label, err)
		}
		labels = append(labels, string(label))
		for i := len(at) - 1; i >= 0; i-- {
			if at[i]++; at[i] < len(axes[i]) {
				break
			}
			at[i] = 0
		}
	}
	return labels, specs, nil
}

// pointCount is the product of the axis lengths, refused when an axis
// is empty or the product passes MaxPoints. The product is kept exact
// past MaxPoints so the error can quote it.
func pointCount(axes []Axis) (uint64, error) {
	var n uint64 = 1
	overflow := false
	for _, a := range axes {
		if len(a.Values) == 0 {
			return 0, fmt.Errorf("axis %q has no values", a.Path)
		}
		hi, lo := bits.Mul64(n, uint64(len(a.Values)))
		overflow, n = overflow || hi != 0, lo
	}
	switch {
	case overflow:
		return 0, fmt.Errorf("has 2^64 or more points, over the %d-point limit", MaxPoints)
	case n > MaxPoints:
		return 0, fmt.Errorf("has %d points, over the %d-point limit", n, MaxPoints)
	}
	return n, nil
}

// Manifest expands the grid into its campaign.
func (g *Grid) Manifest() (*Manifest, error) {
	labels, specs, err := g.Expand()
	if err != nil {
		return nil, err
	}
	return NewManifest(g.Name, labels, specs)
}

// resolveAxis walks the axis path through Spec's JSON names once and
// compiles each value into its field sets.
func resolveAxis(a Axis) ([]axisValue, error) {
	t, index := reflect.TypeFor[sim.Spec](), []int(nil)
	if a.Path != "" {
		for _, name := range strings.Split(a.Path, ".") {
			f, err := jsonField(t, name)
			if err != nil {
				return nil, fmt.Errorf("path %q: %w", a.Path, err)
			}
			t, index = f.Type, append(index, f.Index...)
		}
	}
	values := make([]axisValue, len(a.Values))
	for i, raw := range a.Values {
		raw = bytes.TrimSpace(raw)
		sets, err := resolveValue(t, index, a.Path, raw, nil)
		if err != nil {
			return nil, err
		}
		values[i] = axisValue{label: valueLabel(raw, sets), sets: sets}
	}
	return values, nil
}

// jsonField finds the field of struct type t that encoding/json writes
// under name. Fields json ignores ("-") have no name, so a path cannot
// reach them.
func jsonField(t reflect.Type, name string) (reflect.StructField, error) {
	if t.Kind() != reflect.Struct {
		return reflect.StructField{}, fmt.Errorf("%s is not a struct and has no field %q", t, name)
	}
	for i := range t.NumField() {
		f := t.Field(i)
		tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if tag == "" {
			tag = f.Name
		}
		if f.IsExported() && tag != "-" && tag == name {
			return f, nil
		}
	}
	return reflect.StructField{}, fmt.Errorf("%s has no field %q", t, name)
}

// resolveValue compiles raw, the value for the field of type t at
// index and path, into field sets appended to sets: an object at a
// struct merges key by key, anything else is decoded whole into one
// set.
func resolveValue(t reflect.Type, index []int, path string, raw json.RawMessage, sets []fieldSet) ([]fieldSet, error) {
	if t.Kind() == reflect.Struct && len(raw) > 0 && raw[0] == '{' {
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(raw, &fields); err != nil {
			return nil, fmt.Errorf("path %q: value %s: %w", path, raw, err)
		}
		names := make([]string, 0, len(fields))
		for name := range fields {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			f, err := jsonField(t, name)
			if err != nil {
				return nil, fmt.Errorf("path %q: %w", path, err)
			}
			sub := name
			if path != "" {
				sub = path + "." + name
			}
			fi := append(index[:len(index):len(index)], f.Index...)
			if sets, err = resolveValue(f.Type, fi, sub, bytes.TrimSpace(fields[name]), sets); err != nil {
				return nil, err
			}
		}
		return sets, nil
	}
	if len(raw) == 0 || string(raw) == "null" {
		return nil, fmt.Errorf("path %q: value %q is not a %s", path, raw, t)
	}
	v := reflect.New(t)
	var err error
	switch t.Kind() {
	case reflect.Struct, reflect.Slice, reflect.Array, reflect.Map:
		// Composite values decode strictly, as every JSON input does.
		err = sim.DecodeStrict(bytes.NewReader(raw), v.Interface())
	default:
		err = json.Unmarshal(raw, v.Interface())
	}
	if err != nil {
		return nil, fmt.Errorf("path %q: value %s is not a %s: %w", path, raw, t, err)
	}
	return append(sets, fieldSet{index: index, v: v.Elem()}), nil
}

// valueLabel is a value's part of a point label: its JSON text,
// compacted, with a string's quotes dropped. A JSON string decodes
// only into a string field, whose decoded value is the label.
func valueLabel(raw json.RawMessage, sets []fieldSet) string {
	if raw[0] == '"' {
		return sets[0].v.String()
	}
	var b bytes.Buffer
	_ = json.Compact(&b, raw) // raw has decoded, so it is valid JSON
	return b.String()
}

// ReadGrid decodes a grid, refusing unknown fields and trailing data.
// A grid in the scenario form of earlier builds is refused with the
// rewrite it needs.
func ReadGrid(r io.Reader) (*Grid, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var g Grid
	if err := sim.DecodeStrict(bytes.NewReader(data), &g); err != nil {
		if scenarioForm(data) {
			return nil, errScenarioForm
		}
		return nil, fmt.Errorf("sweep: parsing grid: %w", err)
	}
	return &g, nil
}

// errScenarioForm refuses a grid written before grids took spec paths.
var errScenarioForm = errors.New("sweep: grid is in the retired scenario form; rewrite it: " +
	"take the base from nbtisim -emit-spec with the old base's flags, " +
	`and write the axes as a list of {"path", "values"} (e.g. {"path": "gen.rate", "values": [0.1, 0.2]}); ` +
	"a campaign created from the old grid still resumes unchanged from -manifest alone")

// scenarioForm reports whether data is a grid in the retired scenario
// form: its axes an object, or its base carrying scenario fields.
func scenarioForm(data []byte) bool {
	var g struct {
		Base map[string]json.RawMessage `json:"base"`
		Axes json.RawMessage            `json:"axes"`
	}
	if json.Unmarshal(data, &g) != nil {
		return false
	}
	if bytes.HasPrefix(bytes.TrimSpace(g.Axes), []byte("{")) {
		return true
	}
	for _, k := range []string{"cores", "width", "height", "vcs", "workload", "rate", "seed", "pv_seed"} {
		if _, ok := g.Base[k]; ok {
			return true
		}
	}
	return false
}

// LoadGridFile reads the grid at path and returns its campaign: the
// manifest of its expansion.
func LoadGridFile(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := ReadGrid(f)
	if err != nil {
		return nil, err
	}
	return g.Manifest()
}

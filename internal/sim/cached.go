package sim

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"nbtinoc/internal/cache"
	"nbtinoc/internal/core"
	"nbtinoc/internal/noc"
	"nbtinoc/internal/traffic"
)

// EngineVersion fingerprints the simulator's observable behaviour and
// is baked into every cache key, so a behavioural change invalidates
// the whole result cache by construction. Bump it whenever the golden
// fixtures under cmd/tables/testdata change — the coupling test
// TestEngineVersionPinsGoldens fails on a fixture change without a
// bump, and on a bump without refreshed pins.
const EngineVersion = "nbtinoc-engine-2"

// PolicySpec is the declarative form of a recovery-policy choice: a
// registry name, or a parameterised rr-no-sensor rotation period (the
// knob RunRRPeriodStudy sweeps). Spec.RunConfig resolves it into the
// policy the network runs.
type PolicySpec struct {
	// Name selects from the core registry; empty plus zero RRPeriod
	// means the always-on baseline.
	Name string `json:"name,omitempty"`
	// RRPeriod, when non-zero, selects an rr-no-sensor policy rotating
	// every RRPeriod cycles; Spec.Validate then requires an empty Name.
	RRPeriod uint64 `json:"rr_period,omitempty"`
}

// GenSpec is the declarative form of a traffic generator: everything
// needed to rebuild it, and nothing that cannot be serialised. Kind is
// "synthetic", "app" or "req-resp", as nbtisim's -workload names them.
type GenSpec struct {
	Kind    string  `json:"kind"`
	Pattern string  `json:"pattern,omitempty"`
	Width   int     `json:"width"`
	Height  int     `json:"height"`
	Rate    float64 `json:"rate,omitempty"`
	// PacketLen is the synthetic packet length in flits.
	PacketLen int `json:"packet_len,omitempty"`
	// VNet is the vnet synthetic packets are injected into.
	VNet int `json:"vnet,omitempty"`
	// HotspotNode / HotspotFraction parameterise the hotspot pattern.
	HotspotNode     int     `json:"hotspot_node,omitempty"`
	HotspotFraction float64 `json:"hotspot_fraction,omitempty"`
	Seed            uint64  `json:"seed"`
}

// Build materialises the generator.
func (g GenSpec) Build() (traffic.Generator, error) {
	switch g.Kind {
	case "app":
		return traffic.NewRandomAppMix(g.Width, g.Height, g.VNet, g.Seed)
	case "req-resp":
		cfg := traffic.DefaultReqResp(g.Width, g.Height, g.Rate, g.Seed)
		return traffic.NewReqResp(cfg)
	case "synthetic":
		pat, err := traffic.ParsePattern(g.Pattern)
		if err != nil {
			return nil, err
		}
		return traffic.NewSynthetic(traffic.SyntheticConfig{
			Pattern:         pat,
			Width:           g.Width,
			Height:          g.Height,
			Rate:            g.Rate,
			PacketLen:       g.PacketLen,
			VNet:            g.VNet,
			Seed:            g.Seed,
			HotspotNode:     noc.NodeID(g.HotspotNode),
			HotspotFraction: g.HotspotFraction,
		})
	default:
		return nil, fmt.Errorf("sim: unknown generator kind %q", g.Kind)
	}
}

// Spec is a fully declarative simulation request: the unit of result
// caching. Everything that influences the outcome is a field here (or
// in the nested serialisable structs), which is what makes the content
// address exact. Its JSON form is the wire format of sweep manifests
// and of the nbtisimd submission endpoint, and the same encoding of
// Net is what SpecKey hashes — so every noc.Config field reaches the
// key by construction, and a serialised spec re-keys to the address it
// was recorded under.
type Spec struct {
	// Net is the network configuration. Its Policy factory must stay
	// nil — the policy is declared by Policy — and SpecKey, RunConfig
	// and Runner refuse a spec that sets it.
	Net     noc.Config  `json:"net"`
	Policy  PolicySpec  `json:"policy"`
	Gen     GenSpec     `json:"gen"`
	Warmup  uint64      `json:"warmup"`
	Measure uint64      `json:"measure"`
	Probes  []PortProbe `json:"probes,omitempty"`
}

// errPolicyFactory refuses a spec carrying a raw policy factory: a func
// has no content address, so caching it could serve another factory's
// result, and it would re-run as something else after serialisation.
var errPolicyFactory = errors.New("sim: spec sets Net.Policy; declare the policy in Spec.Policy instead")

// RunConfig resolves the spec into the RunConfig that Run executes: the
// policy from Policy alone, the generator from Gen. Callers that need
// the live network (traces, heatmaps, aging snapshots) run it
// themselves, adding the RunConfig fields that have no Spec
// counterpart.
func (s Spec) RunConfig() (RunConfig, error) {
	if s.Net.Policy != nil {
		return RunConfig{}, errPolicyFactory
	}
	gen, err := s.Gen.Build()
	if err != nil {
		return RunConfig{}, err
	}
	rc := RunConfig{Net: s.Net, Warmup: s.Warmup, Measure: s.Measure, Gen: gen}
	if period := s.Policy.RRPeriod; period > 0 {
		rc.Net.Policy = func() noc.Policy { return &core.RRNoSensor{RotatePeriod: period} }
	} else {
		rc.PolicyName = s.Policy.Name
	}
	return rc, nil
}

// Compute runs the spec and returns its summary, never consulting any
// cache.
func (s Spec) Compute() (*RunSummary, error) {
	rc, err := s.RunConfig()
	if err != nil {
		return nil, err
	}
	res, err := Run(rc, s.Probes)
	if err != nil {
		return nil, err
	}
	return res.Summary(), nil
}

// specKeyEnvelope is the canonical JSON shape hashed into a cache key.
type specKeyEnvelope struct {
	Engine  string      `json:"engine"`
	Net     noc.Config  `json:"net"`
	Policy  PolicySpec  `json:"policy"`
	Gen     GenSpec     `json:"gen"`
	Warmup  uint64      `json:"warmup"`
	Measure uint64      `json:"measure"`
	Probes  []PortProbe `json:"probes"`
}

// specKeyFor derives the content address of a spec under an explicit
// engine fingerprint (split out so invalidation tests can vary it).
func specKeyFor(engine string, s Spec) (string, error) {
	if s.Net.Policy != nil {
		return "", errPolicyFactory
	}
	probes := s.Probes
	if len(probes) == 0 {
		probes = nil // "probes": [] decodes to the spec an omitted list does
	}
	return cache.KeyOf(specKeyEnvelope{
		Engine:  engine,
		Net:     s.Net,
		Policy:  s.Policy,
		Gen:     s.Gen,
		Warmup:  s.Warmup,
		Measure: s.Measure,
		Probes:  probes,
	})
}

// SpecKey returns the content address of a spec under the current
// engine version.
func SpecKey(s Spec) (string, error) { return specKeyFor(EngineVersion, s) }

// DecodeStrict decodes the one JSON value r holds into v. Unknown
// fields at any depth and any bytes after the value are errors, so a
// misspelled field is refused instead of silently defaulted. Every
// JSON input boundary decodes through it: spec bodies and files,
// grids, manifests and the sweep worker's handoff bodies.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// Runner executes Specs, memoizing through a Store when one is
// attached. A zero Runner always computes.
type Runner struct {
	Store *cache.Store
	// Record, when non-nil, observes every successfully completed
	// Run/TryRun: the spec, its content address, and whether the
	// summary came from the cache. RunJob reads its cached flag through
	// it and perfbench traces a pass's jobs with it. Drivers run specs
	// from worker pools, so Record must be safe for concurrent use.
	Record func(spec Spec, key string, cached bool)
}

// Run returns the spec's summary, from the cache when possible. A spec
// that cannot be keyed — it sets Net.Policy, or a field has no JSON
// encoding — is an error, never computed.
func (r Runner) Run(spec Spec) (*RunSummary, error) {
	sum, _, err := r.run(spec, true)
	return sum, err
}

// RunJob is the job-level entry the simulation service is built on:
// validate the spec (returning the field-tagged SpecErrors report worth
// serialising over HTTP), execute it through the cache, and report
// whether the summary was served from the store — the flag a job view
// exposes as dedup evidence. Any Record hook already installed on the
// runner still fires.
func (r Runner) RunJob(spec Spec) (sum *RunSummary, cached bool, err error) {
	if err := spec.Validate(); err != nil {
		return nil, false, err
	}
	prev := r.Record
	r.Record = func(sp Spec, key string, c bool) {
		cached = c
		if prev != nil {
			prev(sp, key, c)
		}
	}
	sum, err = r.Run(spec)
	return sum, cached, err
}

// TryRun is the non-blocking claim of a work-stealing sweep worker: it
// makes sure the spec's summary is in the store, computing it on a
// miss, without reading a summary already there (Store.TryDo), and it
// never waits on another process's lease. It returns done=false when
// the spec's key is being computed elsewhere right now — the caller
// moves on and revisits the unit later.
func (r Runner) TryRun(spec Spec) (done bool, err error) {
	_, done, err = r.run(spec, false)
	return done, err
}

// run is Run (wait) and TryRun (!wait, no summary): key the spec first,
// in every cache mode, then serve or compute it through Store.Do or
// Store.TryDo — which compute unconditionally on a nil or Off store.
func (r Runner) run(spec Spec, wait bool) (*RunSummary, bool, error) {
	key, err := SpecKey(spec)
	if err != nil {
		return nil, true, err
	}
	compute := func() ([]byte, error) {
		s, err := spec.Compute()
		if err != nil {
			return nil, err
		}
		return json.Marshal(s)
	}
	done, cached := true, false
	var sum *RunSummary
	if wait {
		sum = new(RunSummary)
		cached, err = r.Store.Do(key, func(data []byte) error { return json.Unmarshal(data, sum) }, compute)
	} else {
		done, cached, err = r.Store.TryDo(key, compute)
	}
	if err != nil || !done {
		return nil, done, err
	}
	met := newRunnerMetrics()
	if cached {
		met.cached.Inc()
	} else {
		met.computed.Inc()
	}
	if r.Record != nil {
		r.Record(spec, key, cached)
	}
	return sum, true, nil
}

// RunAll runs every spec through the runner on a Pool of the given
// width (see Pool.Workers) and returns the summaries in spec order, or
// the error of the lowest-indexed failed spec. It is the execution half
// of every table driver: enumerate specs, RunAll, reduce sequentially —
// so the reduction sees the same summaries at any width.
func (r Runner) RunAll(specs []Spec, workers int) ([]*RunSummary, error) {
	sums := make([]*RunSummary, len(specs))
	if err := (Pool{Workers: workers}).Run(len(specs), func(i int) error {
		var err error
		sums[i], err = r.Run(specs[i])
		return err
	}); err != nil {
		return nil, err
	}
	return sums, nil
}

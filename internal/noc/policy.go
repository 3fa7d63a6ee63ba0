package noc

// PolicyInput is the information visible to a pre-VA recovery stage for
// one (output port, vnet) pair — i.e. for the VCs of one downstream
// input port slice. The VC masks carry bit v for VC v of the vnet slice
// (0..NumVCs-1); no bit at or above NumVCs is ever set.
type PolicyInput struct {
	// NumVCs is the number of VCs in the vnet slice.
	NumVCs int
	// Idle has bit v set when the outVCstate mirror considers VC v
	// unallocated (gateable). A clear bit means the VC is owned by a
	// packet and will be kept powered regardless of the decision.
	Idle uint64
	// Powered is the current power state (the upstream mirror).
	Powered uint64
	// MostDegraded is the VC (within the slice) reported by the
	// downstream sensor bank over the Down_Up link, or -1 when the
	// policy runs sensor-less.
	MostDegraded int
	// LeastDegraded is the healthiest VC per the sensor bank — used by
	// the wear-steering policy extension; -1 when unavailable.
	LeastDegraded int
	// NewTraffic is the is_new_traffic_outport_x() input of Algorithms
	// 1 and 2: true when at least one packet buffered at this upstream
	// node wants this output port and has no downstream VC allocated.
	NewTraffic bool
	// Cycle is the current network cycle (for time-based rotation).
	Cycle uint64
}

// Policy is the pre-VA recovery stage run by an upstream output unit,
// one instance per (output port, vnet). DesiredPower returns the mask of
// VCs to keep powered (bit v = VC v of the slice); bits at or above
// NumVCs are ignored. The caller keeps every non-idle VC powered
// afterwards, so a policy can never gate a buffer that holds or expects
// flits.
//
// The contract derived from the paper's observations (Section III-A):
// leave at most one idle VC powered when NewTraffic is true (the VC a new
// packet will be steered to), and gate every idle VC when it is false.
// The Baseline policy intentionally violates this — it models the
// non-NBTI-aware reference NoC with no gating at all.
type Policy interface {
	// Name returns the policy identifier used in reports.
	Name() string
	// DesiredPower returns the wanted power mask of the slice.
	DesiredPower(in PolicyInput) uint64
}

// UsesSensors reports whether the policy consumes Down_Up sensor
// information; used by the area model to decide whether sensor and
// control-link overhead applies. Policies may implement it optionally.
type UsesSensors interface {
	UsesSensors() bool
}

// PolicyUsesSensors returns p's sensor usage, defaulting to false for
// policies that do not implement UsesSensors.
func PolicyUsesSensors(p Policy) bool {
	if u, ok := p.(UsesSensors); ok {
		return u.UsesSensors()
	}
	return false
}

// SteadyPolicy is an optional interface a Policy implements to declare
// that DesiredPower never reads PolicyInput.Cycle while
// PolicyInput.NewTraffic is false — its output is then a pure function
// of the remaining inputs, which only change while the owning unit is
// on the active set. The activity-gated engine may skip the per-cycle
// policy run of a fully idle, settled output unit only when every one
// of its per-vnet policies makes this declaration; policies that keep
// per-call state or rotate on a time basis even without traffic must
// not.
type SteadyPolicy interface {
	SteadyWhenIdle() bool
}

// PolicySteadyWhenIdle returns p's declaration, defaulting to false
// (never skipped) for policies that do not implement SteadyPolicy.
func PolicySteadyWhenIdle(p Policy) bool {
	if s, ok := p.(SteadyPolicy); ok {
		return s.SteadyWhenIdle()
	}
	return false
}

// CycleFreePolicy is a strictly stronger declaration than SteadyPolicy:
// DesiredPower never reads PolicyInput.Cycle and keeps no per-call
// state for ANY NewTraffic value, so its output is a pure function of
// (Idle, Powered, MostDegraded, LeastDegraded, NewTraffic). An output
// unit whose per-vnet policies all make this declaration may elide a
// settled policy run whenever those inputs are bit-identical to the
// previous executed run — even while traffic waits. Time-rotating
// policies (RRNoSensor under traffic) must not implement this.
type CycleFreePolicy interface {
	CycleFree() bool
}

// PolicyCycleFree returns p's declaration, defaulting to false for
// policies that do not implement CycleFreePolicy.
func PolicyCycleFree(p Policy) bool {
	if c, ok := p.(CycleFreePolicy); ok {
		return c.CycleFree()
	}
	return false
}

// StatelessPolicy is an optional interface a Policy implements to
// declare that DesiredPower keeps no per-call state: its output is a
// pure function of its PolicyInput, Cycle included. One instance may
// then serve every (output unit, vnet) of a network. CycleFreePolicy
// implies it.
type StatelessPolicy interface {
	Stateless() bool
}

// PolicyStateless returns p's declaration (or its CycleFreePolicy
// one), defaulting to false for policies that make neither.
func PolicyStateless(p Policy) bool {
	if s, ok := p.(StatelessPolicy); ok && s.Stateless() {
		return true
	}
	return PolicyCycleFree(p)
}

// BaselinePolicy keeps every VC buffer powered at all times: the paper's
// reference NoC that is not NBTI aware. Its duty-cycle is 100% on every
// VC and it anchors the absolute ΔVth-saving comparison.
type BaselinePolicy struct{}

// Name implements Policy.
func (BaselinePolicy) Name() string { return "baseline" }

// DesiredPower implements Policy: all VCs stay on.
func (BaselinePolicy) DesiredPower(PolicyInput) uint64 { return ^uint64(0) }

// SteadyWhenIdle implements SteadyPolicy: the all-on decision never
// reads the cycle.
func (BaselinePolicy) SteadyWhenIdle() bool { return true }

// CycleFree implements CycleFreePolicy: all-on is input-independent.
func (BaselinePolicy) CycleFree() bool { return true }

// NewBaseline is the PolicyFactory for BaselinePolicy.
func NewBaseline() Policy { return BaselinePolicy{} }

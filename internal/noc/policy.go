package noc

import "nbtinoc/internal/metrics"

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

// Policy is the pre-VA recovery stage run by an upstream output unit
// for each (output port, vnet). Like the paper's combinational pre-VA
// logic, DesiredPower must be a pure function of its PolicyInput: a
// network builds one instance per gating domain and calls it for every
// (output unit, vnet) in turn, so a policy that kept per-call state
// would see its callers interleaved. It returns the mask of VCs to keep
// powered (bit v = VC v of the slice); bits at or above NumVCs are
// ignored. The caller keeps every non-idle VC powered afterwards, so a
// policy can never gate a buffer that holds or expects flits.
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
// information; the energy model charges sensor overhead only for such
// policies. Policies may implement it optionally.
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
// policy run of a fully idle, settled output unit only when its policy
// makes this declaration; policies that rotate on a time basis even
// without traffic must not.
type SteadyPolicy interface {
	SteadyWhenIdle() bool
}

// CycleFreePolicy is a strictly stronger declaration than SteadyPolicy:
// DesiredPower never reads PolicyInput.Cycle for ANY NewTraffic value,
// so its output is a function of (Idle, Powered, MostDegraded,
// LeastDegraded, NewTraffic) alone. An output unit whose policy makes
// this declaration may elide a settled policy run whenever those inputs
// are bit-identical to the previous executed run — even while traffic
// waits. Time-rotating policies (RRNoSensor under traffic) must not
// implement this.
type CycleFreePolicy interface {
	CycleFree() bool
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

// policyDomain is one gating domain of a network: the output units that
// run the same recovery policy. It holds the one policy instance they
// all call, the policy's SteadyPolicy and CycleFreePolicy declarations
// read once, the domain's gate and wake event counts, and its metric
// handles (nil when instrumentation is disabled).
type policyDomain struct {
	policy Policy
	// steady and pure are the policy's SteadyWhenIdle and CycleFree
	// declarations.
	steady, pure bool
	// gateEvents and wakeEvents count the power-state transitions (1->0
	// and 0->1) the domain's units commanded.
	gateEvents, wakeEvents uint64
	// mGate and mWake mirror the counts above into the process metrics
	// registry.
	mGate, mWake *metrics.Counter
}

// newPolicyDomain builds factory's one instance (nil means the
// baseline) and resolves the domain's declarations, each false when the
// policy does not implement it, and its metric handles.
func newPolicyDomain(factory PolicyFactory) *policyDomain {
	if factory == nil {
		factory = NewBaseline
	}
	p := factory()
	d := &policyDomain{policy: p}
	if s, ok := p.(SteadyPolicy); ok {
		d.steady = s.SteadyWhenIdle()
	}
	if c, ok := p.(CycleFreePolicy); ok {
		d.pure = c.CycleFree()
	}
	d.mGate, d.mWake = gatingCounters(p.Name())
	return d
}

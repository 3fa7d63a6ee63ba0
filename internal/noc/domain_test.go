package noc_test

import (
	"testing"

	"nbtinoc/internal/core"
	"nbtinoc/internal/noc"
)

// gateIdle gates every idle VC and makes none of the optional
// declarations.
type gateIdle struct{}

func (gateIdle) Name() string                        { return "test-gate-idle" }
func (gateIdle) DesiredPower(noc.PolicyInput) uint64 { return 0 }

// TestNewCallsPolicyOnce checks that a network builds Config.Policy
// exactly once, whether the ejection channels share its gating domain
// or run the always-on baseline, and for a policy that declares
// nothing as for one that declares itself cycle-free.
func TestNewCallsPolicyOnce(t *testing.T) {
	for _, pol := range []noc.Policy{gateIdle{}, core.NewSensorWise()} {
		for _, gateEj := range []bool{false, true} {
			calls := 0
			cfg := noc.DefaultConfig()
			cfg.GateEjection = gateEj
			cfg.Policy = func() noc.Policy {
				calls++
				return pol
			}
			if _, err := noc.New(cfg); err != nil {
				t.Fatal(err)
			}
			if calls != 1 {
				t.Errorf("%s, GateEjection=%v: Config.Policy called %d times, want 1",
					pol.Name(), gateEj, calls)
			}
		}
	}
}

// TestGatingMetricsMatchEventCounts checks that the per-policy gate and
// wake series of a gated 4×4 run equal the network's EventCounts, and
// pins both counts: the run's decisions are those the engine made when
// every output unit held its own policy slice and counters.
func TestGatingMetricsMatchEventCounts(t *testing.T) {
	for _, c := range []struct {
		policy     string
		gateEj     bool
		gate, wake uint64
	}{
		{"sensor-wise", false, 4351, 4120},
		{"rr-no-sensor", true, 5577, 5285},
	} {
		factory, err := core.Lookup(c.policy)
		if err != nil {
			t.Fatal(err)
		}
		cfg := noc.DefaultConfig()
		cfg.Policy = factory
		cfg.GateEjection = c.gateEj
		n, reg := instrumented(t, cfg)
		driveUniform(t, n, 3000)
		ev := n.Events()
		vec := reg.CounterVec(noc.MetricGatingTransitions, "", "policy", "kind")
		gate, wake := vec.With(c.policy, "gate").Value(), vec.With(c.policy, "wake").Value()
		if gate != ev.GateEvents || wake != ev.WakeEvents {
			t.Errorf("%s: metric children gate %d wake %d, EventCounts gate %d wake %d",
				c.policy, gate, wake, ev.GateEvents, ev.WakeEvents)
		}
		if ev.GateEvents != c.gate || ev.WakeEvents != c.wake {
			t.Errorf("%s: %d gate and %d wake events, want %d and %d",
				c.policy, ev.GateEvents, ev.WakeEvents, c.gate, c.wake)
		}
		if b := vec.With("baseline", "gate").Value() + vec.With("baseline", "wake").Value(); b != 0 {
			t.Errorf("%s: the always-on ejection domain counted %d transitions", c.policy, b)
		}
	}
}

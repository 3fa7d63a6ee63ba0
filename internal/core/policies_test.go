package core

import (
	"testing"
	"testing/quick"

	"nbtinoc/internal/noc"
)

// decide runs a policy once over a synthetic input with every VC
// powered.
func decide(p noc.Policy, idle []bool, md int, traffic bool, cycle uint64) []bool {
	n := len(idle)
	return boolsOf(p.DesiredPower(noc.PolicyInput{
		NumVCs:       n,
		Idle:         maskOf(idle),
		Powered:      1<<uint(n) - 1,
		MostDegraded: md,
		NewTraffic:   traffic,
		Cycle:        cycle,
	}), n)
}

// maskOf packs a per-VC flag slice into a VC mask (bit v = VC v).
func maskOf(flags []bool) uint64 {
	var m uint64
	for v, on := range flags {
		if on {
			m |= 1 << uint(v)
		}
	}
	return m
}

// boolsOf unpacks the low n bits of a VC mask into a per-VC slice.
func boolsOf(m uint64, n int) []bool {
	out := make([]bool, n)
	for v := range out {
		out[v] = m>>uint(v)&1 != 0
	}
	return out
}

func countOn(out, idle []bool) int {
	n := 0
	for i := range out {
		if out[i] && idle[i] {
			n++
		}
	}
	return n
}

func TestRRGatesAllWithoutTraffic(t *testing.T) {
	p := NewRRNoSensor()
	out := decide(p, []bool{true, true, true, true}, -1, false, 10)
	for i, on := range out {
		if on {
			t.Errorf("VC %d powered with no traffic", i)
		}
	}
}

func TestRRKeepsExactlyOneWithTraffic(t *testing.T) {
	p := NewRRNoSensor()
	idle := []bool{true, true, true, true}
	out := decide(p, idle, -1, true, 0)
	if countOn(out, idle) != 1 {
		t.Fatalf("rr kept %d idle VCs on, want 1 (%v)", countOn(out, idle), out)
	}
}

func TestRRCandidateRotates(t *testing.T) {
	p := &RRNoSensor{RotatePeriod: 1}
	idle := []bool{true, true, true, true}
	seen := map[int]bool{}
	for cyc := uint64(0); cyc < 4; cyc++ {
		out := decide(p, idle, -1, true, cyc)
		for i, on := range out {
			if on {
				seen[i] = true
			}
		}
	}
	if len(seen) != 4 {
		t.Fatalf("rotation visited %d distinct VCs over 4 cycles, want 4", len(seen))
	}
}

func TestRRRotatePeriod(t *testing.T) {
	p := &RRNoSensor{RotatePeriod: 10}
	idle := []bool{true, true}
	a := decide(p, idle, -1, true, 0)
	b := decide(p, idle, -1, true, 9)
	c := decide(p, idle, -1, true, 10)
	if a[0] != b[0] || a[1] != b[1] {
		t.Error("candidate moved within rotate period")
	}
	if a[0] == c[0] && a[1] == c[1] {
		t.Error("candidate did not move after rotate period")
	}
}

func TestRRSkipsBusyVCs(t *testing.T) {
	p := &RRNoSensor{RotatePeriod: 1}
	idle := []bool{false, false, true, false}
	out := decide(p, idle, -1, true, 0)
	if !out[2] {
		t.Error("rr did not keep the only idle VC")
	}
	if out[0] || out[1] || out[3] {
		t.Error("rr powered a busy VC slot (caller handles busy VCs)")
	}
}

func TestRRAllBusy(t *testing.T) {
	p := NewRRNoSensor()
	out := decide(p, []bool{false, false}, -1, true, 0)
	if out[0] || out[1] {
		t.Error("rr produced a keep with no idle VC")
	}
}

func TestRRNoTrafficVariantAlwaysKeepsOne(t *testing.T) {
	p := NewRRNoSensorNoTraffic()
	idle := []bool{true, true, true}
	out := decide(p, idle, -1, false, 0)
	if countOn(out, idle) != 1 {
		t.Fatalf("non-cooperative rr kept %d on, want 1", countOn(out, idle))
	}
}

func TestSensorWiseGatesAllWithoutTraffic(t *testing.T) {
	p := NewSensorWise()
	out := decide(p, []bool{true, true, true, true}, 1, false, 0)
	for i, on := range out {
		if on {
			t.Errorf("VC %d powered with no traffic", i)
		}
	}
}

func TestSensorWiseProtectsMostDegraded(t *testing.T) {
	p := NewSensorWise()
	idle := []bool{true, true, true, true}
	out := decide(p, idle, 2, true, 0)
	if out[2] {
		t.Error("most degraded VC left powered")
	}
	if countOn(out, idle) != 1 {
		t.Fatalf("sensor-wise kept %d idle VCs on, want 1 (%v)", countOn(out, idle), out)
	}
}

func TestSensorWiseSurvivorIsNotMD(t *testing.T) {
	p := NewSensorWise()
	for md := 0; md < 4; md++ {
		idle := []bool{true, true, true, true}
		out := decide(p, idle, md, true, 0)
		for i, on := range out {
			if on && i == md {
				t.Errorf("md=%d: survivor is the most degraded VC", md)
			}
		}
	}
}

func TestSensorWiseMDBusy(t *testing.T) {
	// When the most degraded VC is busy it cannot be recovered; exactly
	// one other idle VC must survive.
	p := NewSensorWise()
	idle := []bool{true, false, true, true}
	out := decide(p, idle, 1, true, 0)
	if countOn(out, idle) != 1 {
		t.Fatalf("kept %d idle on, want 1", countOn(out, idle))
	}
}

func TestSensorWiseSingleIdleVCWithTraffic(t *testing.T) {
	// count_idle == boolTraffic: the lone idle VC must stay powered even
	// if it is the most degraded one (a new packet needs somewhere to
	// go — Algorithm 2 lines 9-11 require count_idle > boolTraffic).
	p := NewSensorWise()
	idle := []bool{false, true, false, false}
	out := decide(p, idle, 1, true, 0)
	if !out[1] {
		t.Error("lone idle VC gated despite waiting traffic")
	}
}

func TestSensorWiseSingleIdleVCNoTraffic(t *testing.T) {
	p := NewSensorWise()
	idle := []bool{false, true, false, false}
	out := decide(p, idle, 1, false, 0)
	if out[1] {
		t.Error("idle VC kept powered with no traffic")
	}
}

func TestSensorWiseNoTrafficVariant(t *testing.T) {
	p := NewSensorWiseNoTraffic()
	idle := []bool{true, true, true, true}
	out := decide(p, idle, 0, false, 0)
	if countOn(out, idle) != 1 {
		t.Fatalf("no-traffic variant kept %d on, want 1", countOn(out, idle))
	}
	if out[0] {
		t.Error("no-traffic variant kept the most degraded VC")
	}
}

func TestSensorWiseInvalidMD(t *testing.T) {
	p := NewSensorWise()
	idle := []bool{true, true}
	// md = -1 (sensor-less upstream) and md out of range must not panic
	// and must still keep exactly one VC.
	for _, md := range []int{-1, 7} {
		out := decide(p, idle, md, true, 0)
		if countOn(out, idle) != 1 {
			t.Fatalf("md=%d: kept %d on, want 1", md, countOn(out, idle))
		}
	}
}

func TestPolicyNames(t *testing.T) {
	cases := map[string]noc.Policy{
		"rr-no-sensor":            NewRRNoSensor(),
		"rr-no-sensor-no-traffic": NewRRNoSensorNoTraffic(),
		"sensor-wise":             NewSensorWise(),
		"sensor-wise-no-traffic":  NewSensorWiseNoTraffic(),
	}
	for want, p := range cases {
		if p.Name() != want {
			t.Errorf("Name() = %q, want %q", p.Name(), want)
		}
	}
}

func TestUsesSensors(t *testing.T) {
	if noc.PolicyUsesSensors(NewRRNoSensor()) {
		t.Error("rr-no-sensor claims sensors")
	}
	if !noc.PolicyUsesSensors(NewSensorWise()) {
		t.Error("sensor-wise does not claim sensors")
	}
	if !noc.PolicyUsesSensors(NewSensorWiseNoTraffic()) {
		t.Error("sensor-wise-no-traffic does not claim sensors")
	}
	if noc.PolicyUsesSensors(noc.NewBaseline()) {
		t.Error("baseline claims sensors")
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range Names() {
		f, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if name == "baseline" {
			continue
		}
		if got := f().Name(); got != name {
			t.Errorf("factory for %q builds %q", name, got)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown policy accepted")
	}
}

// Property: for every gating policy, any idle/md/traffic combination
// keeps at most one idle VC powered, and zero when the cooperative
// variants see no traffic.
func TestQuickAtMostOneIdlePowered(t *testing.T) {
	policies := []func() noc.Policy{
		NewRRNoSensor, NewRRNoSensorNoTraffic, NewSensorWise, NewSensorWiseNoTraffic,
	}
	f := func(idleBits uint8, mdRaw uint8, traffic bool, cycle uint16) bool {
		for _, mk := range policies {
			p := mk()
			const n = 4
			idle := make([]bool, n)
			for i := 0; i < n; i++ {
				idle[i] = idleBits&(1<<uint(i)) != 0
			}
			md := int(mdRaw%6) - 1 // includes -1 and out-of-range 4
			out := decide(p, idle, md, traffic, uint64(cycle))
			if countOn(out, idle) > 1 {
				return false
			}
			// Desired power must never be asserted on busy slots.
			for i := range out {
				if out[i] && !idle[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

package core

import (
	"testing"

	"nbtinoc/internal/noc"
	"nbtinoc/internal/rng"
)

// decideLD runs the LD policy with an explicit least-degraded input.
func decideLD(p noc.Policy, idle []bool, md, ld int, traffic bool) []bool {
	n := len(idle)
	return boolsOf(p.DesiredPower(noc.PolicyInput{
		NumVCs:        n,
		Idle:          maskOf(idle),
		MostDegraded:  md,
		LeastDegraded: ld,
		NewTraffic:    traffic,
	}), n)
}

func TestLDKeepsLeastDegraded(t *testing.T) {
	p := NewSensorWiseLD()
	idle := []bool{true, true, true, true}
	out := decideLD(p, idle, 2, 1, true)
	if !out[1] {
		t.Error("least degraded VC not kept")
	}
	if countOn(out, idle) != 1 {
		t.Fatalf("kept %d idle VCs, want 1 (%v)", countOn(out, idle), out)
	}
}

func TestLDGatesAllWithoutTraffic(t *testing.T) {
	p := NewSensorWiseLD()
	out := decideLD(p, []bool{true, true, true}, 0, 2, false)
	for i, on := range out {
		if on {
			t.Errorf("VC %d powered with no traffic", i)
		}
	}
}

func TestLDFallsBackWhenLDBusy(t *testing.T) {
	p := NewSensorWiseLD()
	idle := []bool{true, true, false, true} // LD (VC2) is busy
	out := decideLD(p, idle, 0, 2, true)
	if countOn(out, idle) != 1 {
		t.Fatalf("kept %d, want 1", countOn(out, idle))
	}
	if out[0] {
		t.Error("fallback kept the most degraded VC")
	}
}

func TestLDFallsBackWhenLDInvalid(t *testing.T) {
	p := NewSensorWiseLD()
	idle := []bool{true, true}
	out := decideLD(p, idle, 0, -1, true)
	if countOn(out, idle) != 1 {
		t.Fatalf("kept %d, want 1", countOn(out, idle))
	}
}

func TestLDOnlyMDIdle(t *testing.T) {
	// When the only idle VC is the most degraded one, it must still be
	// kept (traffic needs somewhere to go).
	p := NewSensorWiseLD()
	idle := []bool{true, false, false, false}
	out := decideLD(p, idle, 0, 3, true)
	if !out[0] {
		t.Error("lone idle MD VC gated despite traffic")
	}
}

func TestLDNames(t *testing.T) {
	if NewSensorWiseLD().Name() != "sensor-wise-ld" {
		t.Error("wrong name")
	}
	nt := &SensorWiseLD{AssumeTraffic: true}
	if nt.Name() != "sensor-wise-ld-no-traffic" {
		t.Error("wrong no-traffic name")
	}
	if !noc.PolicyUsesSensors(NewSensorWiseLD()) {
		t.Error("LD policy does not claim sensors")
	}
}

func TestLDRegistered(t *testing.T) {
	f, err := Lookup("sensor-wise-ld")
	if err != nil {
		t.Fatal(err)
	}
	if f().Name() != "sensor-wise-ld" {
		t.Error("registry builds wrong policy")
	}
}

// Integration: LD steers new packets onto the healthiest buffer, so the
// least degraded VC carries the most stress and the most degraded the
// least — the full inversion of the PV ranking.
func TestLDInvertsWear(t *testing.T) {
	cfg := noc.DefaultConfig()
	cfg.Width, cfg.Height = 2, 2
	cfg.VCsPerVNet = 4
	cfg.Policy = NewSensorWiseLD
	cfg.PVSeed = 5
	n, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(6)
	for c := 0; c < 30000; c++ {
		for node := 0; node < 4; node++ {
			if src.Bool(0.03) {
				dst := (node + 1 + src.Intn(3)) % 4
				if dst == node {
					dst = (dst + 1) % 4
				}
				if err := n.Inject(noc.NodeID(node), noc.NodeID(dst), 0, 4); err != nil {
					t.Fatal(err)
				}
			}
		}
		n.Step()
	}
	port := noc.East
	md := n.MostDegradedVC(0, port, 0)
	// Find the LD VC by Vth0.
	ld, ldV := 0, 1.0
	for vc := 0; vc < 4; vc++ {
		if v := n.Vth0(0, port, vc); v < ldV {
			ld, ldV = vc, v
		}
	}
	if md == ld {
		t.Skip("degenerate PV draw")
	}
	dMD := n.DutyCycle(0, port, md)
	dLD := n.DutyCycle(0, port, ld)
	if !(dLD > dMD) {
		t.Errorf("LD policy did not steer wear: duty(LD)=%.2f%% <= duty(MD)=%.2f%%", dLD, dMD)
	}
	if n.TotalInjectedPackets() == 0 {
		t.Fatal("no traffic")
	}
}

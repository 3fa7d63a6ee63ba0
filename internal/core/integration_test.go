package core

import (
	"testing"

	"nbtinoc/internal/noc"
	"nbtinoc/internal/rng"
)

// runPolicy drives uniform Bernoulli traffic over a mesh configured with
// the given policy and returns the drained network.
func runPolicy(t *testing.T, factory noc.PolicyFactory, w, h, vcs int,
	rate float64, cycles int, pvSeed, trafficSeed uint64) *noc.Network {
	t.Helper()
	cfg := noc.DefaultConfig()
	cfg.Width, cfg.Height = w, h
	cfg.VCsPerVNet = vcs
	cfg.Policy = factory
	cfg.PVSeed = pvSeed
	n, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(trafficSeed)
	const pktLen = 4
	pInject := rate / pktLen
	nodes := n.Nodes()
	for c := 0; c < cycles; c++ {
		for node := 0; node < nodes; node++ {
			if src.Bool(pInject) {
				dst := src.Intn(nodes - 1)
				if dst >= node {
					dst++
				}
				if err := n.Inject(noc.NodeID(node), noc.NodeID(dst), 0, pktLen); err != nil {
					t.Fatal(err)
				}
			}
		}
		n.Step()
	}
	for i := 0; i < 20000 && !n.Quiescent(); i++ {
		n.Step()
	}
	return n
}

func TestGatingPoliciesLoseNoPackets(t *testing.T) {
	for _, tc := range []struct {
		name    string
		factory noc.PolicyFactory
	}{
		{"rr-no-sensor", NewRRNoSensor},
		{"rr-no-sensor-no-traffic", NewRRNoSensorNoTraffic},
		{"sensor-wise", NewSensorWise},
		{"sensor-wise-no-traffic", NewSensorWiseNoTraffic},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := runPolicy(t, tc.factory, 4, 4, 2, 0.25, 3000, 1, 2)
			if !n.Quiescent() {
				t.Fatalf("failed to drain: %d flits in flight", n.InFlightFlits())
			}
			if n.TotalInjectedPackets() != n.TotalEjectedPackets() {
				t.Fatalf("loss: injected %d, ejected %d",
					n.TotalInjectedPackets(), n.TotalEjectedPackets())
			}
			if n.TotalInjectedPackets() == 0 {
				t.Fatal("no traffic generated")
			}
		})
	}
}

func TestGatingReducesDutyCycleBelowBaseline(t *testing.T) {
	// Any gating policy must put every observed VC strictly below the
	// baseline's 100% at moderate load.
	n := runPolicy(t, NewRRNoSensor, 2, 2, 2, 0.1, 5000, 1, 2)
	port := noc.East
	for vc := 0; vc < 2; vc++ {
		d := n.DutyCycle(0, port, vc)
		if d <= 0 || d >= 100 {
			t.Errorf("rr duty-cycle VC%d = %.1f%%, want in (0, 100)", vc, d)
		}
	}
}

func TestRRSpreadsDutyCycleEvenly(t *testing.T) {
	// Table II/III structure: rr-no-sensor yields near-identical
	// duty-cycles across the VCs of a port.
	n := runPolicy(t, NewRRNoSensor, 2, 2, 4, 0.2, 20000, 1, 2)
	port := noc.East
	min, max := 100.0, 0.0
	for vc := 0; vc < 4; vc++ {
		d := n.DutyCycle(0, port, vc)
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if max-min > 5 {
		t.Errorf("rr spread = %.1f%% (min %.1f, max %.1f), want < 5%%", max-min, min, max)
	}
}

func TestSensorWiseProtectsMostDegradedOnSilicon(t *testing.T) {
	// Core claim: on the same scenario (same PV seed, same traffic), the
	// sensor-wise policy yields a lower duty-cycle on the most degraded
	// VC than rr-no-sensor.
	const pvSeed, trafficSeed = 7, 8
	rr := runPolicy(t, NewRRNoSensor, 2, 2, 2, 0.2, 20000, pvSeed, trafficSeed)
	sw := runPolicy(t, NewSensorWise, 2, 2, 2, 0.2, 20000, pvSeed, trafficSeed)
	port := noc.East
	md := rr.MostDegradedVC(0, port, 0)
	if md != sw.MostDegradedVC(0, port, 0) {
		t.Fatal("most degraded VC differs across policies despite shared PV seed")
	}
	dRR := rr.DutyCycle(0, port, md)
	dSW := sw.DutyCycle(0, port, md)
	if !(dSW < dRR) {
		t.Errorf("sensor-wise MD duty %.2f%% not below rr %.2f%%", dSW, dRR)
	}
}

func TestSensorWiseNoTrafficPinsOneVC(t *testing.T) {
	// Table structure: without traffic information one VC of the port
	// sits near 100% duty-cycle (always waiting for a flit) while the
	// most degraded VC is strongly protected.
	n := runPolicy(t, NewSensorWiseNoTraffic, 2, 2, 2, 0.1, 20000, 7, 8)
	port := noc.East
	md := n.MostDegradedVC(0, port, 0)
	other := 1 - md
	dMD, dOther := n.DutyCycle(0, port, md), n.DutyCycle(0, port, other)
	if dOther < 90 {
		t.Errorf("pinned VC duty = %.1f%%, want >= 90%%", dOther)
	}
	if !(dMD < dOther) {
		t.Errorf("md VC (%.1f%%) not protected vs pinned VC (%.1f%%)", dMD, dOther)
	}
}

func TestCooperationHelps(t *testing.T) {
	// Conclusion claim C1: the cooperative sensor-wise policy beats the
	// non-cooperative variant on the most degraded VC.
	const pvSeed, trafficSeed = 3, 4
	coop := runPolicy(t, NewSensorWise, 2, 2, 2, 0.15, 20000, pvSeed, trafficSeed)
	nonc := runPolicy(t, NewSensorWiseNoTraffic, 2, 2, 2, 0.15, 20000, pvSeed, trafficSeed)
	port := noc.East
	md := coop.MostDegradedVC(0, port, 0)
	dc, dn := coop.DutyCycle(0, port, md), nonc.DutyCycle(0, port, md)
	if !(dc <= dn) {
		t.Errorf("cooperative md duty %.2f%% above non-cooperative %.2f%%", dc, dn)
	}
	// Cooperation must also reduce aggregate stress across the port.
	var sc, sn float64
	for vc := 0; vc < 2; vc++ {
		sc += coop.DutyCycle(0, port, vc)
		sn += nonc.DutyCycle(0, port, vc)
	}
	if !(sc < sn) {
		t.Errorf("cooperative total stress %.2f not below non-cooperative %.2f", sc, sn)
	}
}

func TestDutyCycleGrowsWithLoad(t *testing.T) {
	duty := func(rate float64) float64 {
		n := runPolicy(t, NewRRNoSensor, 2, 2, 2, rate, 15000, 5, 6)
		return n.DutyCycle(0, noc.East, 0)
	}
	d1, d2, d3 := duty(0.1), duty(0.2), duty(0.3)
	if !(d1 < d2 && d2 < d3) {
		t.Errorf("duty-cycle not monotone in load: %.1f, %.1f, %.1f", d1, d2, d3)
	}
}

func TestGatedVCsNeverHoldFlits(t *testing.T) {
	// Figure 1B safety invariant, checked live: a power-gated VC buffer
	// is always empty. (bufferWrite would panic otherwise; this test
	// additionally samples states mid-flight.)
	cfg := noc.DefaultConfig()
	cfg.Width, cfg.Height = 2, 2
	cfg.VCsPerVNet = 2
	cfg.Policy = NewSensorWise
	n, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(9)
	for c := 0; c < 4000; c++ {
		for node := 0; node < 4; node++ {
			if src.Bool(0.06) {
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
		for node := noc.NodeID(0); node < 4; node++ {
			for p := noc.Port(0); p < noc.NumPorts; p++ {
				iu := n.Input(node, p)
				if iu == nil {
					continue
				}
				for vc := 0; vc < n.Config().TotalVCs(); vc++ {
					if !iu.Powered(vc) && iu.Occupancy(n, vc) > 0 {
						t.Fatalf("cycle %d: gated VC %d at node %d port %v holds %d flits",
							n.Cycle(), vc, node, p, iu.Occupancy(n, vc))
					}
				}
			}
		}
	}
}

func TestRecoveryActuallyHappens(t *testing.T) {
	// Under gating with low load, recovery cycles must dominate stress
	// cycles on lightly used ports.
	n := runPolicy(t, NewSensorWise, 2, 2, 2, 0.05, 10000, 1, 2)
	dev := n.Device(0, noc.East, 0)
	if dev.Tracker.RecoveryCycles() == 0 {
		t.Fatal("no recovery cycles recorded under sensor-wise gating")
	}
	total := dev.Tracker.TotalCycles()
	if total == 0 {
		t.Fatal("no cycles recorded")
	}
}

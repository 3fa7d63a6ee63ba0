package noc

import (
	"testing"

	"nbtinoc/internal/rng"
)

// chaosPolicy makes adversarially random power decisions over idle VCs
// every cycle: any subset may be powered, including none even when
// traffic is waiting (which may stall allocation for a while but must
// never lose data or deadlock permanently, because the decision is
// re-drawn every cycle). A network calls its one instance for every
// (output unit, vnet), so all ports draw in turn from one source.
type chaosPolicy struct {
	src *rng.Source
}

func (p *chaosPolicy) Name() string { return "test-chaos" }
func (p *chaosPolicy) DesiredPower(in PolicyInput) uint64 {
	var out uint64
	for i := 0; i < in.NumVCs; i++ {
		if p.src.Bool(0.5) {
			out |= 1 << uint(i)
		}
	}
	return out
}

// TestChaosPolicyNeverBreaksInvariants hammers the network with a
// random gating policy across several seeds and checks end-to-end
// conservation, the gated-buffers-are-empty invariant (sampled live),
// and the internal panics (credit protocol, packet mixing) staying
// silent.
func TestChaosPolicyNeverBreaksInvariants(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		seed := seed
		cfg := DefaultConfig()
		cfg.Width, cfg.Height = 2, 2
		cfg.VCsPerVNet = 2
		cfg.Policy = func() Policy { return &chaosPolicy{src: rng.New(seed * 7777)} }
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		src := rng.New(seed)
		for c := 0; c < 4000; c++ {
			for node := 0; node < 4; node++ {
				if src.Bool(0.03) {
					dst := src.Intn(3)
					if dst >= node {
						dst++
					}
					if err := n.Inject(NodeID(node), NodeID(dst), 0, 4); err != nil {
						t.Fatal(err)
					}
				}
			}
			stepChecked(t, n)
			if c%97 == 0 {
				assertGatedEmpty(t, n)
			}
		}
		// Drain with the chaos policy still active: decisions are
		// re-drawn each cycle, so forward progress is probabilistic but
		// certain over a long horizon.
		for i := 0; i < 200000 && !n.Quiescent(); i++ {
			stepChecked(t, n)
		}
		if !n.Quiescent() {
			t.Fatalf("seed %d: chaos policy starved the network: %d in flight, %d queued",
				seed, n.InFlightFlits(), n.TotalInjectedPackets()-n.TotalEjectedPackets())
		}
		if n.TotalInjectedPackets() != n.TotalEjectedPackets() {
			t.Fatalf("seed %d: loss under chaos: %d vs %d",
				seed, n.TotalInjectedPackets(), n.TotalEjectedPackets())
		}
		assertTableEmpty(t, n)
	}
}

// stepChecked steps n, then checks that its packet table holds exactly
// the packets with a flit in the network.
func stepChecked(t *testing.T, n *Network) {
	t.Helper()
	n.Step()
	if _, err := CheckPacketTable(n); err != nil {
		t.Fatalf("cycle %d: %v", n.Cycle(), err)
	}
}

// assertTableEmpty checks that a drained network's packet table has no
// live slot.
func assertTableEmpty(t *testing.T, n *Network) {
	t.Helper()
	if live, err := CheckPacketTable(n); err != nil || live != 0 {
		t.Fatalf("drained network: %d live packet slots (%v)", live, err)
	}
}

func assertGatedEmpty(t *testing.T, n *Network) {
	t.Helper()
	for node := NodeID(0); int(node) < n.Nodes(); node++ {
		for p := Port(0); p < NumPorts; p++ {
			iu := n.Input(node, p)
			if iu == nil {
				continue
			}
			for vc := 0; vc < n.Config().TotalVCs(); vc++ {
				if !iu.Powered(vc) && iu.Occupancy(n, vc) > 0 {
					t.Fatalf("gated VC %d at node %d port %v holds flits", vc, node, p)
				}
			}
		}
	}
}

// TestChaosWithWakeupLatency repeats the chaos hammer with a
// sleep-transistor ramp, exercising the wake-countdown bookkeeping
// against arbitrary gate/wake sequences.
func TestChaosWithWakeupLatency(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = 2, 2
	cfg.VCsPerVNet = 2
	cfg.WakeupLatency = 2
	cfg.Policy = func() Policy { return &chaosPolicy{src: rng.New(4242)} }
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(99)
	for c := 0; c < 3000; c++ {
		for node := 0; node < 4; node++ {
			if src.Bool(0.02) {
				dst := src.Intn(3)
				if dst >= node {
					dst++
				}
				if err := n.Inject(NodeID(node), NodeID(dst), 0, 4); err != nil {
					t.Fatal(err)
				}
			}
		}
		stepChecked(t, n)
	}
	for i := 0; i < 300000 && !n.Quiescent(); i++ {
		stepChecked(t, n)
	}
	if !n.Quiescent() || n.TotalInjectedPackets() != n.TotalEjectedPackets() {
		t.Fatalf("chaos+wakeup broke delivery: %d vs %d (in flight %d)",
			n.TotalInjectedPackets(), n.TotalEjectedPackets(), n.InFlightFlits())
	}
	assertTableEmpty(t, n)
}

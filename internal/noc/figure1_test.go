package noc

import (
	"testing"

	"nbtinoc/internal/rng"
)

// TestFigure1 verifies that the constructed network realises the
// NBTI-aware microarchitecture of the paper's Figure 1B: per-channel
// Up_Down and Down_Up control links, an outVCstate mirror in every
// upstream output unit, one NBTI sensor per downstream VC buffer with a
// most-degraded comparator, and power gating wired to every router
// input VC. The baseline structure (Fig. 1A) is the same network with
// the always-on policy — verified to never gate.
func TestFigure1(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = 2, 2
	cfg.VCsPerVNet = 4

	t.Run("ControlLinksPerChannel", func(t *testing.T) {
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Channels: per node, NI->router and router->NI, plus one per
		// mesh link direction. 2x2 mesh: 4 horizontal + 4 vertical
		// directed links + 8 local channels = 16.
		wantChannels := 16
		upDown, downUp := 0, 0
		for i := range n.ounits {
			if n.ounits[i].powerOut != nil {
				upDown++
			}
		}
		for i := range n.iunits {
			if n.iunits[i].mdOut != nil {
				downUp++
			}
		}
		if upDown != wantChannels {
			t.Errorf("Up_Down links = %d, want %d", upDown, wantChannels)
		}
		if downUp != wantChannels {
			t.Errorf("Down_Up links = %d, want %d", downUp, wantChannels)
		}
	})

	t.Run("OutVCStateMirror", func(t *testing.T) {
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ou := n.Router(0).Output(East)
		if ou == nil {
			t.Fatal("router 0 has no east output unit")
		}
		for vc := 0; vc < cfg.TotalVCs(); vc++ {
			if ou.StateOf(vc) != VCIdle {
				t.Errorf("outVCstate[%d] not idle at reset", vc)
			}
			if ou.Credits(vc) != cfg.BufferDepth {
				t.Errorf("outVCstate[%d] credits = %d, want %d",
					vc, ou.Credits(vc), cfg.BufferDepth)
			}
		}
	})

	t.Run("OneSensorPerVCBuffer", func(t *testing.T) {
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for node := NodeID(0); node < 4; node++ {
			for p := Port(0); p < NumPorts; p++ {
				iu := n.Router(node).Input(p)
				if iu == nil {
					continue
				}
				if len(iu.banks) != cfg.VNets {
					t.Fatalf("node %d port %v: %d sensor banks, want %d",
						node, p, len(iu.banks), cfg.VNets)
				}
				for vn, bank := range iu.banks {
					if bank.Size() != cfg.VCsPerVNet {
						t.Fatalf("node %d port %v vnet %d: %d sensors, want %d",
							node, p, vn, bank.Size(), cfg.VCsPerVNet)
					}
				}
			}
		}
	})

	t.Run("MostDegradedMarkerReachesUpstream", func(t *testing.T) {
		gated := cfg
		gated.Policy = func() Policy { return mdEcho{} }
		n, err := New(gated)
		if err != nil {
			t.Fatal(err)
		}
		// After a few cycles the Down_Up value at every upstream output
		// unit must equal the argmax-Vth0 VC of its downstream port.
		n.Run(4)
		r1 := n.Router(1) // downstream of router 0's East output
		wantMD := n.MostDegradedVC(1, West, 0)
		ou := n.Router(0).Output(East)
		if got := ou.mdIn.Current(0); got != wantMD {
			t.Errorf("upstream most_degraded marker = %d, want %d", got, wantMD)
		}
		_ = r1
	})

	t.Run("BaselineNeverGates", func(t *testing.T) {
		n, err := New(cfg) // Fig. 1A: no policy
		if err != nil {
			t.Fatal(err)
		}
		src := rng.New(1)
		for c := 0; c < 500; c++ {
			if src.Bool(0.2) {
				_ = n.Inject(0, 3, 0, 4)
			}
			n.Step()
		}
		ev := n.Events()
		if ev.GateEvents != 0 || ev.RecoveryCycles != 0 {
			t.Errorf("baseline gated: %+v", ev)
		}
	})

	t.Run("GatingReachesEveryRouterPort", func(t *testing.T) {
		gated := cfg
		gated.Policy = func() Policy { return gateAll{} }
		n, err := New(gated)
		if err != nil {
			t.Fatal(err)
		}
		n.Run(3)
		for node := NodeID(0); node < 4; node++ {
			for p := Port(0); p < NumPorts; p++ {
				iu := n.Router(node).Input(p)
				if iu == nil {
					continue
				}
				for vc := 0; vc < cfg.TotalVCs(); vc++ {
					if iu.Powered(vc) {
						t.Fatalf("node %d port %v vc %d not gated", node, p, vc)
					}
				}
			}
		}
	})
}

// mdEcho keeps all idle VCs powered; it exists to exercise the Down_Up
// path without gating side effects.
type mdEcho struct{}

func (mdEcho) Name() string                       { return "test-md-echo" }
func (mdEcho) DesiredPower(in PolicyInput) uint64 { return in.Idle }

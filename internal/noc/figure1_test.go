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
		// A wired output unit drives the Up_Down link of its downstream
		// input unit, which drives the Down_Up link back to it; absent
		// edge ports keep zero records.
		upDown, downUp := 0, 0
		for i := range n.ounits {
			ou := &n.ounits[i]
			if ou.depth != 0 && n.iunits[ou.dnUnit()].upUnit() == i {
				upDown++
			}
		}
		for i := range n.iunits {
			iu := &n.iunits[i]
			if iu.depth != 0 && n.ounits[iu.upUnit()].dnUnit() == i {
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
		ou := n.Output(0, East)
		if ou == nil {
			t.Fatal("router 0 has no east output unit")
		}
		for vc := 0; vc < cfg.TotalVCs(); vc++ {
			if ou.StateOf(vc) != VCIdle {
				t.Errorf("outVCstate[%d] not idle at reset", vc)
			}
			if ou.Credits(n, vc) != cfg.BufferDepth {
				t.Errorf("outVCstate[%d] credits = %d, want %d",
					vc, ou.Credits(n, vc), cfg.BufferDepth)
			}
		}
	})

	t.Run("OneSensorPerVCBuffer", func(t *testing.T) {
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ports := 0
		for node := NodeID(0); node < 4; node++ {
			for p := Port(0); p < NumPorts; p++ {
				iu := n.Input(node, p)
				if iu == nil {
					continue
				}
				if got := len(iu.devs(n)); got != cfg.TotalVCs() {
					t.Fatalf("node %d port %v: %d sensed devices, want one per VC (%d)",
						node, p, got, cfg.TotalVCs())
				}
				ports++
			}
		}
		// The NI ejection buffers are sensed too.
		if want := uint64((ports + 4) * cfg.TotalVCs()); n.sensors != want {
			t.Fatalf("a sweep reads %d sensors, want %d", n.sensors, want)
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
		// Router 1's West input is downstream of router 0's East output.
		wantMD := n.MostDegradedVC(1, West, 0)
		ou := n.Output(0, East)
		if got := ou.mdIn.Current(ou.vnets(n), 0); got != wantMD {
			t.Errorf("upstream most_degraded marker = %d, want %d", got, wantMD)
		}
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
				iu := n.Input(node, p)
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

package noc_test

import (
	"testing"

	"nbtinoc/internal/noc"
	"nbtinoc/internal/sim"
	"nbtinoc/internal/traffic"
)

// TestPacketTableBusyMesh checks the packet table after every Step of a
// 4×4 mesh under uniform traffic at 0.3 flits/cycle/node: its live
// slots are exactly the packets with a flit in the network, and none is
// left once the network drains.
func TestPacketTableBusyMesh(t *testing.T) {
	cfg := noc.DefaultConfig()
	n, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := traffic.NewSynthetic(traffic.SyntheticConfig{
		Pattern: traffic.Uniform, Width: cfg.Width, Height: cfg.Height,
		Rate: 0.3, PacketLen: 4, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	emit := func(src, dst noc.NodeID, vnet, l int) {
		if err := n.Inject(src, dst, vnet, l); err != nil {
			t.Fatal(err)
		}
	}
	step := func() int {
		n.Step()
		live, err := noc.CheckPacketTable(n)
		if err != nil {
			t.Fatalf("cycle %d: %v", n.Cycle(), err)
		}
		return live
	}
	peak := 0
	for c := 0; c < 3000; c++ {
		gen.Tick(n.Cycle(), emit)
		peak = max(peak, step())
	}
	for i := 0; i < 100000 && !n.Quiescent(); i++ {
		step()
	}
	if live := step(); !n.Quiescent() || live != 0 {
		t.Fatalf("drained mesh: quiescent %v, %d live packet slots", n.Quiescent(), live)
	}
	if peak == 0 {
		t.Fatal("no packet was ever live")
	}
}

// TestPacketTableMesh32LowRate checks the packet table once at the end
// of the 32×32 low-rate campaign (sensor-wise, uniform 2e-6, 2 000 +
// 2 000 000 cycles), where fast-forward covers most of the run.
func TestPacketTableMesh32LowRate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 32×32 mesh for 2 M cycles")
	}
	cfg := noc.DefaultConfig()
	cfg.Width, cfg.Height = 32, 32
	gen, err := traffic.NewSynthetic(traffic.SyntheticConfig{
		Pattern: traffic.Uniform, Width: 32, Height: 32,
		Rate: 2e-6, PacketLen: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.RunConfig{
		Net: cfg, PolicyName: "sensor-wise",
		Warmup: 2_000, Measure: 2_000_000, Gen: gen,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := noc.CheckPacketTable(res.Net); err != nil {
		t.Fatal(err)
	}
	if res.Net.TotalEjectedPackets() == 0 {
		t.Fatal("no packet delivered")
	}
}

// TestInjectPacketLenBound pins the packet-length ceiling at the
// network boundary: a noc.MaxPacketLen-flit packet is accepted and
// delivered whole, one flit more is refused, never wrapped.
func TestInjectPacketLenBound(t *testing.T) {
	cfg := noc.DefaultConfig()
	cfg.Width, cfg.Height = 2, 1
	n, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Inject(0, 1, 0, noc.MaxPacketLen+1); err == nil {
		t.Fatalf("a %d-flit packet was accepted", noc.MaxPacketLen+1)
	}
	var got []noc.Flit
	n.SetDeliveryHook(func(f noc.Flit, cycle uint64) { got = append(got, f) })
	if err := n.Inject(0, 1, 0, noc.MaxPacketLen); err != nil {
		t.Fatalf("a %d-flit packet was refused: %v", noc.MaxPacketLen, err)
	}
	for i := 0; i < 2*noc.MaxPacketLen && !n.Quiescent(); i++ {
		n.Step()
	}
	ni := n.NI(1).Stats()
	if len(got) != 1 || ni.EjectedFlits != noc.MaxPacketLen {
		t.Fatalf("delivered %d packets, %d flits; want 1 packet of %d flits", len(got), ni.EjectedFlits, noc.MaxPacketLen)
	}
	if f := got[0]; f.Len != noc.MaxPacketLen || f.Seq != noc.MaxPacketLen-1 || f.Type != noc.TailFlit {
		t.Fatalf("tail flit delivered as %+v", f)
	}
}

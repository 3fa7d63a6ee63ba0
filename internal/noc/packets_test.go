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

// allocTracer records the packet ids of the NI VC grants at one node,
// per vnet, in grant order.
type allocTracer struct {
	node  noc.NodeID
	grant [][]uint64
}

func (a *allocTracer) Event(cycle uint64, kind noc.EventKind, node noc.NodeID, port noc.Port, vc int, f noc.Flit) {
	if kind == noc.EvNIAlloc && node == a.node {
		a.grant[f.VNet] = append(a.grant[f.VNet], f.PacketID)
	}
}

// TestSourceQueueBacklog injects a backlog of thousands of packets at
// one NI in a single cycle, alternating two vnets: each vnet's queue
// grants its packets in injection order, MaxQueueLen and QueuedPackets
// read the whole backlog, the packet table holds it, and every packet
// is delivered.
func TestSourceQueueBacklog(t *testing.T) {
	const backlog = 3000
	cfg := noc.DefaultConfig()
	cfg.Width, cfg.Height, cfg.VNets = 2, 1, 2
	n, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := &allocTracer{node: 0, grant: make([][]uint64, cfg.VNets)}
	n.SetTracer(tr)
	for i := 0; i < backlog; i++ {
		if err := n.Inject(0, 1, i%2, 1+i%4); err != nil {
			t.Fatal(err)
		}
	}
	ni := n.NI(0)
	if q, m := ni.QueuedPackets(), ni.Stats().MaxQueueLen; q != backlog || m != backlog {
		t.Fatalf("after the backlog: %d queued, MaxQueueLen %d; want %d", q, m, backlog)
	}
	if live, err := noc.CheckPacketTable(n); err != nil || live != backlog {
		t.Fatalf("packet table after the backlog: %d live, %v", live, err)
	}
	for i := 0; i < 100*backlog && !n.Quiescent(); i++ {
		n.Step()
		if i%97 == 0 {
			if _, err := noc.CheckPacketTable(n); err != nil {
				t.Fatalf("cycle %d: %v", n.Cycle(), err)
			}
		}
	}
	if got := n.TotalEjectedPackets(); got != backlog {
		t.Fatalf("delivered %d packets, want %d", got, backlog)
	}
	if live, err := noc.CheckPacketTable(n); err != nil || live != 0 {
		t.Fatalf("drained packet table: %d live, %v", live, err)
	}
	if m := ni.Stats().MaxQueueLen; m != backlog {
		t.Fatalf("MaxQueueLen %d after the drain, want %d", m, backlog)
	}
	for vn, ids := range tr.grant {
		if len(ids) != backlog/2 {
			t.Fatalf("vnet %d: %d grants, want %d", vn, len(ids), backlog/2)
		}
		for i, id := range ids {
			if want := uint64(2*i + vn); id != want {
				t.Fatalf("vnet %d grant %d went to packet %d, want %d (FIFO order)", vn, i, id, want)
			}
		}
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

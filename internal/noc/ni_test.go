package noc

import "testing"

// flitTracer records every flit the router at node writes into its Local
// input port, plus the cycle of the NI's VC grant.
type flitTracer struct {
	node    NodeID
	granted uint64
	flits   []Flit
}

func (c *flitTracer) Event(cycle uint64, kind EventKind, node NodeID, port Port, vc int, f Flit) {
	switch {
	case kind == EvNIAlloc && node == c.node:
		c.granted = cycle
	case kind == EvBufferWrite && node == c.node && port == Local:
		c.flits = append(c.flits, f)
	}
}

// TestNIFlowEmitsPacketFlits checks that an NI flow launches exactly the
// packet's flit sequence, Packet.Flits, with NetInjectCycle stamped at
// the cycle the flow was granted its VC.
func TestNIFlowEmitsPacketFlits(t *testing.T) {
	for _, length := range []int{1, 4} {
		n, err := New(testConfig(2, 1, 2))
		if err != nil {
			t.Fatal(err)
		}
		tr := &flitTracer{node: 0}
		n.SetTracer(tr)
		n.Run(3)
		inject := n.Cycle()
		if err := n.Inject(0, 1, 0, length); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100 && n.TotalEjectedPackets() == 0; i++ {
			n.Step()
		}
		want := Packet{ID: 0, Src: 0, Dst: 1, VNet: 0, Len: length, InjectCycle: inject}.Flits()
		if len(tr.flits) != len(want) {
			t.Fatalf("len %d: router wrote %d flits, want %d", length, len(tr.flits), len(want))
		}
		for i, got := range tr.flits {
			want[i].NetInjectCycle = tr.granted
			// The link rewrites VC per hop.
			got.VC = 0
			if got != want[i] {
				t.Errorf("len %d flit %d = %+v, want %+v", length, i, got, want[i])
			}
		}
		if tr.granted < inject {
			t.Errorf("len %d: VC granted at cycle %d, before injection at %d", length, tr.granted, inject)
		}
	}
}

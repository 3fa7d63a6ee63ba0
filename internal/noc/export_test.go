package noc

import (
	"fmt"
	"math/bits"
)

// ForceSampling makes n sweep its sensor banks every period even when
// its sensor config is static: the reference the sweep elision is
// checked against. Call it right after New.
func ForceSampling(n *Network) { n.elideSweeps = false }

// SummaryWords returns the length of n's router active-set summary: one
// word per 64 words of per-router bits.
func SummaryWords(n *Network) int { return len(n.rtr.sum) }

// CheckPacketTable verifies n's packet-table bookkeeping: the live slots
// are exactly the packets with a flit in an NI flow, on a link or in a
// buffer, every other slot is on the free list, and it returns the live
// count.
func CheckPacketTable(n *Network) (int, error) {
	t := &n.pkts
	free := make(map[uint32]bool)
	for s := t.free; s != 0; s = t.slots[s-1].nextFree {
		if free[s-1] {
			return 0, fmt.Errorf("free list loops at slot %d", s-1)
		}
		free[s-1] = true
	}
	live := len(t.slots) - len(free)
	held := make(map[uint32]bool)
	for i := range n.nis {
		ni := &n.nis[i]
		for m := ni.flowMask; m != 0; m &= m - 1 {
			held[ni.flows[bits.TrailingZeros64(m)].pkt] = true
		}
	}
	for i := range n.iunits {
		iu := &n.iunits[i]
		for q := i * n.flits.lat; q < (i+1)*n.flits.lat; q++ {
			for _, f := range n.flits.batch(q) {
				held[f.pkt] = true
			}
		}
		if iu.depth == 0 {
			continue // the zero record of an absent edge port
		}
		for v, bufs := 0, iu.bufs(n); v < len(bufs); v++ {
			b := &bufs[v]
			for k := int32(0); k < b.size; k++ {
				held[iu.fifoAt(n, v, (b.head+k)%iu.depth).pkt] = true
			}
		}
	}
	for s := range held {
		if int(s) >= len(t.slots) || free[s] {
			return 0, fmt.Errorf("a flit refers to slot %d, which is not live", s)
		}
	}
	if len(held) != live {
		return 0, fmt.Errorf("%d live slots, but %d packets have a flit in the network", live, len(held))
	}
	return live, nil
}

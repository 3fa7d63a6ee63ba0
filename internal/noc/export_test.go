package noc

import (
	"fmt"
	"math/bits"
)

// ForceSampling makes n sweep its sensors every period even when
// its sensor config is static: the reference the sweep elision is
// checked against. Call it right after New.
func ForceSampling(n *Network) { n.elideSweeps = false }

// SummaryWords returns the length of n's router active-set summary: one
// word per 64 words of per-router bits.
func SummaryWords(n *Network) int { return len(n.rtr.sum) }

// CheckPacketTable verifies n's packet-table bookkeeping: every source
// queue is an acyclic list from its head to its tail of slots holding
// the NI's packets of the queue's vnet, the queues of an NI hold as many
// packets as it counts queued, the live slots are exactly the queued
// packets plus the packets with a flit in an NI flow, on a link or in a
// buffer, no slot is both queued and in flight, and every other slot is
// on the free list. It returns the live count.
func CheckPacketTable(n *Network) (int, error) {
	t := &n.pkts
	free := make(map[uint32]bool)
	for s := t.free; s != 0; s = t.slots[s-1].next {
		if free[s-1] {
			return 0, fmt.Errorf("free list loops at slot %d", s-1)
		}
		free[s-1] = true
	}
	live := len(t.slots) - len(free)
	queued := make(map[uint32]bool)
	for i := range n.nis {
		ni := &n.nis[i]
		count := 0
		for vn, q := range ni.queues(n) {
			last := uint32(0)
			for s := q.head; s != 0; s = t.slots[s-1].next {
				if int(s) > len(t.slots) || queued[s-1] {
					return 0, fmt.Errorf("NI %d vnet %d: queue revisits or overruns at slot %d", i, vn, s-1)
				}
				if p := &t.slots[s-1]; int(p.src) != i || int(p.vnet) != vn {
					return 0, fmt.Errorf("NI %d vnet %d: queued slot %d holds a packet of NI %d vnet %d", i, vn, s-1, p.src, p.vnet)
				}
				queued[s-1] = true
				count++
				last = s
			}
			if last != q.tail {
				return 0, fmt.Errorf("NI %d vnet %d: queue ends at %d, tail says %d", i, vn, last, q.tail)
			}
		}
		if count != ni.queued {
			return 0, fmt.Errorf("NI %d: %d packets queued, %d counted", i, count, ni.queued)
		}
	}
	held := make(map[uint32]bool)
	for i := range n.nis {
		ni := &n.nis[i]
		for m, flows := ni.flowMask, ni.flows(n); m != 0; m &= m - 1 {
			held[flows[bits.TrailingZeros64(m)].pkt] = true
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
		if queued[s] {
			return 0, fmt.Errorf("slot %d is both queued and in flight", s)
		}
	}
	for s := range queued {
		if free[s] {
			return 0, fmt.Errorf("slot %d is both queued and free", s)
		}
	}
	if len(queued)+len(held) != live {
		return 0, fmt.Errorf("%d live slots, but %d packets are queued and %d have a flit in the network",
			live, len(queued), len(held))
	}
	return live, nil
}

package noc

import (
	"fmt"
	"math/bits"
)

// The active set makes one simulated cycle cost proportional to
// activity instead of mesh size: Step sweeps only the units whose
// per-cycle phases can have an effect. Membership is tracked in two
// levels of plain bitmasks: one bit per unit indexed by NodeID, and a
// summary with one bit per non-zero word of the first level, so a Step
// over a 32×32 mesh with a handful of active routers visits one summary
// word and the few member words instead of all sixteen. Each Step phase
// iterates the snapshot's set bits directly (TrailingZeros64, clearing
// the lowest bit), summary word by summary word, in ascending id order,
// so iteration is deterministic by construction (no map ranges anywhere
// near the simulation state) and needs no decoded id list. The summary
// is a slice too, so any mesh size Config.Validate accepts works.
//
// The protocol has three rules:
//
//  1. A unit is woken (bit set in the live mask and its word's bit in
//     the summary) by every event it must observe: a flit or credit
//     launched toward it, a power mask or Down_Up feedback value that
//     differs from what its link already carries, or a packet
//     injection. Wakes during cycle t take effect at t+1 — Step
//     iterates a snapshot taken at the top of the cycle — matching the
//     one-cycle link delays of the modelled hardware.
//  2. An active unit clears its own bit at the end of a cycle when
//     every one of its phases is provably a no-op for every future
//     cycle until an external event arrives (Router.quiescent,
//     NI.quiescent, OutputUnit.quiescent); the summary bit goes with
//     the last member of its word.
//  3. Anything a sleeping unit would have recomputed identically every
//     cycle is either elided because it is a no-op (control-link ticks
//     with cur == next, policy re-runs that resend the same mask) or
//     deferred and batched (NBTI span accounting, sensor sampling at
//     due cycles — and none at all after the first for static sensor
//     configs, whose sweeps can never change an output).

// activeSet is one unit kind's (routers' or NIs') membership: live is
// the first level, sum its summary (bit w set exactly while live[w] is
// non-zero), and snap/snapSum their copies taken at the top of each
// Step. snap words are only meaningful where snapSum has their bit.
type activeSet struct {
	live, sum, snap, snapSum []uint64
}

// newActiveSets returns the router and NI sets over nodes units each,
// with every unit a member; both share one backing allocation.
func newActiveSets(nodes int) (rtr, ni activeSet) {
	words := (nodes + 63) / 64
	sums := (words + 63) / 64
	back := make([]uint64, 4*(words+sums))
	for _, s := range []*activeSet{&rtr, &ni} {
		*s = activeSet{
			live: take(&back, words), snap: take(&back, words),
			sum: take(&back, sums), snapSum: take(&back, sums),
		}
		for id := 0; id < nodes; id++ {
			s.wake(id)
		}
	}
	return rtr, ni
}

// wake puts unit id on the set.
func (s *activeSet) wake(id int) {
	w := id >> 6
	s.live[w] |= 1 << uint(id&63)
	s.sum[w>>6] |= 1 << uint(w&63)
}

// sleep takes unit id off the set.
func (s *activeSet) sleep(id int) {
	w := id >> 6
	if s.live[w] &^= 1 << uint(id&63); s.live[w] == 0 {
		s.sum[w>>6] &^= 1 << uint(w&63)
	}
}

// snapshot copies the live members into snap/snapSum, touching only the
// summarised words, and returns the member count.
func (s *activeSet) snapshot() int {
	count := 0
	for i, sw := range s.sum {
		s.snapSum[i] = sw
		for b := sw; b != 0; b &= b - 1 {
			w := i<<6 + bits.TrailingZeros64(b)
			s.snap[w] = s.live[w]
			count += bits.OnesCount64(s.snap[w])
		}
	}
	return count
}

// each calls visit with the id of every member of the snapshot, in
// ascending id order: the summary's set bits, then the set bits of each
// summarised word. Members may leave the live set during the walk.
func (s *activeSet) each(visit func(id int)) {
	for i, sw := range s.snapSum {
		for sb := sw; sb != 0; sb &= sb - 1 {
			w := i<<6 + bits.TrailingZeros64(sb)
			for b := s.snap[w]; b != 0; b &= b - 1 {
				visit(w<<6 + bits.TrailingZeros64(b))
			}
		}
	}
}

// empty reports whether the set has no member.
func (s *activeSet) empty() bool {
	for _, sw := range s.sum {
		if sw != 0 {
			return false
		}
	}
	return true
}

// has reports whether unit id is on the live set.
func (s *activeSet) has(id int) bool { return s.live[id>>6]>>uint(id&63)&1 != 0 }

// snapped reports whether unit id was on this cycle's snapshot.
func (s *activeSet) snapped(id int) bool {
	w := id >> 6
	return s.snapSum[w>>6]>>uint(w&63)&1 != 0 && s.snap[w]>>uint(id&63)&1 != 0
}

// debugCheckSkipped asserts (under -tags nbtidebug) that every unit the
// just-finished Step skipped — not on the cycle's snapshot and not
// woken during the cycle — is quiescent, i.e. its skipped phases would
// all have been no-ops. A violation means a wake hook is missing.
func (n *Network) debugCheckSkipped() {
	for id := range n.routers {
		if n.rtr.snapped(id) || n.rtr.has(id) {
			continue
		}
		if !n.routers[id].quiescent() {
			panic("noc: skipped router is not quiescent (missing wake)")
		}
	}
	for id := range n.nis {
		if n.ni.snapped(id) || n.ni.has(id) {
			continue
		}
		if !n.nis[id].quiescent(n) {
			panic("noc: skipped NI is not quiescent (missing wake)")
		}
	}
}

// debugCheckHeld asserts (under -tags nbtidebug) that every Down_Up
// link of a static network still holds what an elided sweep would
// publish, i.e. no Vth0 changed behind RestoreAging's back.
func (n *Network) debugCheckHeld() {
	for i := range n.iunits {
		iu := &n.iunits[i]
		if iu.depth == 0 {
			continue // the zero record of an absent edge port
		}
		w := n.ounits[iu.upUnit()].vnets(n)
		for vn := range w {
			md, ld := iu.sweep(n, vn, false)
			if hmd, hld := int(w[vn].nextMD), int(w[vn].nextLD); md != hmd || ld != hld {
				panic(fmt.Sprintf("noc: elided sweep of node %d port %v would publish md=%d ld=%d, held md=%d ld=%d",
					iu.owner, iu.Port(), md, ld, hmd, hld))
			}
		}
	}
}

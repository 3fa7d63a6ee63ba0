package noc

import "fmt"

// The active set makes one simulated cycle cost proportional to
// activity instead of mesh size: Step sweeps only the units whose
// per-cycle phases can have an effect. Membership is tracked in plain
// bitmasks indexed by NodeID; each Step phase iterates the snapshot's
// set bits directly (TrailingZeros64, clearing the lowest bit) in
// ascending id order, so iteration is deterministic by construction (no
// map ranges anywhere near the simulation state) and needs no decoded
// id list.
//
// The protocol has three rules:
//
//  1. A unit is woken (bit set in the live mask) by every event it must
//     observe: a flit or credit launched toward it, a power mask or
//     Down_Up feedback value that differs from what its link already
//     carries, or a packet injection. Wakes during cycle t take effect
//     at t+1 — Step iterates a snapshot taken at the top of the cycle —
//     matching the one-cycle link delays of the modelled hardware.
//  2. An active unit clears its own bit at the end of a cycle when
//     every one of its phases is provably a no-op for every future
//     cycle until an external event arrives (Router.quiescent,
//     NI.quiescent, OutputUnit.quiescent).
//  3. Anything a sleeping unit would have recomputed identically every
//     cycle is either elided because it is a no-op (control-link ticks
//     with cur == next, policy re-runs that resend the same mask) or
//     deferred and batched (NBTI span accounting, sensor sampling at
//     due cycles — and none at all after the first for static sensor
//     configs, whose sweeps can never change an output).

// newFullMask returns a mask of the given word count with bits
// 0..nodes-1 set.
func newFullMask(nodes, words int) []uint64 {
	m := make([]uint64, words)
	for id := 0; id < nodes; id++ {
		m[id>>6] |= 1 << uint(id&63)
	}
	return m
}

// routerWaker returns the wake hook for router id.
func (n *Network) routerWaker(id int) func() {
	word, bit := &n.rtrMask, uint64(1)<<uint(id&63)
	idx := id >> 6
	return func() { (*word)[idx] |= bit }
}

// niWaker returns the wake hook for NI id.
func (n *Network) niWaker(id int) func() {
	word, bit := &n.niMask, uint64(1)<<uint(id&63)
	idx := id >> 6
	return func() { (*word)[idx] |= bit }
}

// wakeNI puts NI id back on the active set.
func (n *Network) wakeNI(id NodeID) {
	n.niMask[int(id)>>6] |= 1 << uint(int(id)&63)
}

// maskHas reports whether bit id is set.
func maskHas(mask []uint64, id int) bool {
	return mask[id>>6]&(1<<uint(id&63)) != 0
}

// debugCheckSkipped asserts (under -tags nbtidebug) that every unit the
// just-finished Step skipped — not on the cycle's snapshot and not
// woken during the cycle — is quiescent, i.e. its skipped phases would
// all have been no-ops. A violation means a wake hook is missing.
func (n *Network) debugCheckSkipped() {
	for id := range n.routers {
		if maskHas(n.rtrSnap, id) || maskHas(n.rtrMask, id) {
			continue
		}
		if !n.routers[id].quiescent() {
			panic("noc: skipped router is not quiescent (missing wake)")
		}
	}
	for id := range n.nis {
		if maskHas(n.niSnap, id) || maskHas(n.niMask, id) {
			continue
		}
		if !n.nis[id].quiescent() {
			panic("noc: skipped NI is not quiescent (missing wake)")
		}
	}
}

// debugCheckHeld asserts (under -tags nbtidebug) that every sensor bank
// of a static network still holds what an elided sweep would compute,
// i.e. no Vth0 changed behind RestoreAging's back.
func (n *Network) debugCheckHeld() {
	check := func(iu *InputUnit) {
		for _, b := range iu.banks {
			md, ld := b.Evaluate()
			if hmd, hld := b.Held(); md != hmd || ld != hld {
				panic(fmt.Sprintf("noc: elided sweep of node %d port %v would publish md=%d ld=%d, held md=%d ld=%d",
					iu.owner, iu.port, md, ld, hmd, hld))
			}
		}
	}
	for i := range n.routers {
		for _, iu := range n.routers[i].in {
			if iu != nil {
				check(iu)
			}
		}
	}
	for i := range n.nis {
		check(n.nis[i].ej)
	}
}

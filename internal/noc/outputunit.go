package noc

import (
	"fmt"
	"math/bits"
)

// outVC is the per-VC remainder of the upstream outVCstate that doesn't
// pack into a bitmask: the credit count and the sleep-transistor wake-up
// ramp counter. Allocation state, tail-sent, and the power mirror live
// in the owning OutputUnit's actMask/tailMask/pwrMask bitsets.
type outVC struct {
	credits int32
	// wakeLeft counts the remaining sleep-transistor wake-up cycles
	// after a gated VC is commanded back on; the VC is powered (and
	// stressed) but not allocatable until it reaches zero.
	wakeLeft int32
}

// outVNet is the per-vnet state of an output unit: its Down_Up link
// entry — the most and least degraded VC (indices within the vnet
// slice, below 64) in effect upstream and pending — and its VA start
// pointer. allocPtr rotates the allocation start so that, when a policy
// leaves several idle VCs powered (baseline), allocation spreads across
// them.
type outVNet struct {
	curMD, nextMD, curLD, nextLD int8
	allocPtr                     int8
}

// OutputUnit is the upstream end of a channel: it owns the outVCstate
// for the downstream input port, performs the downstream VC allocation,
// runs the pre-VA recovery policy, and transmits flits. Per-VC state is
// packed into bitmasks (bit v = flattened VC v) so allocation scans and
// quiescence checks are single mask operations.
//
// The record is plain data. Its per-VC and per-vnet records are windows of the network's arenas at its own slot index
// (unit), its downstream input unit is the slot (dn, dnSlot) that the
// mesh topology assigns, and its gating domain follows from its slot;
// the methods take the network to reach them.
type OutputUnit struct {
	// actMask marks VCs in the mirrored VCActive state; tailMask marks
	// active VCs whose tail flit has been sent (awaiting credit drain);
	// pwrMask mirrors the power state most recently commanded
	// downstream (VA only considers powered idle VCs); wakeMask marks
	// VCs still inside their wake-up ramp (wakeLeft > 0).
	actMask, tailMask, pwrMask, wakeMask uint64
	// creditMask has bit v set while the VC's credit count is above
	// zero, so the hot canSend check reads only unit-header masks
	// instead of chasing the per-VC credit counter's cache line.
	creditMask uint64
	// linkFreeAt is the first cycle the (possibly serialized) link is
	// free again after the previous flit's phits. Declared among the
	// masks so canSend stays within the unit-header cache lines.
	linkFreeAt uint64
	// lastNT records the packed NewTraffic mask the last executed
	// runPolicy saw. A steady policy's output is only guaranteed
	// reproducible between two quiet (lastNT == 0) calls; a pure
	// (cycle-free) policy's between any two calls with equal masks.
	lastNT uint64
	// flitsSent counts link traversals.
	flitsSent uint64
	// creditIn receives freed-slot notifications from downstream. Like
	// every channel's receiving end it is embedded in its reader (the
	// downstream input unit writes it) so the per-cycle receive pass
	// stays on unit-resident cache lines.
	creditIn pipeline
	// owner is the node of the unit's router or NI; dn is the node of
	// its downstream input unit.
	owner, dn NodeID
	// vc0 is the index of the unit's first VC in the outvcs arena: its
	// unit slot times TotalVCs, derived once at construction.
	vc0 int32
	// depth is the downstream buffer depth: the credits of a drained VC.
	depth int32
	// slot is the unit's pseudo-port: the router output port, or ejPort
	// for an NI's injection side. dnSlot is the downstream input unit's
	// slot: the downstream router's input port, or ejPort for an NI's
	// ejection buffers. A slot below NumPorts is a router port.
	slot, dnSlot uint8
	// mdIn is the Down_Up control channel, embedded for the same reason
	// as creditIn (the downstream input unit writes it).
	mdIn mdLink
	// settled is recomputed by every runPolicy call: true when the call
	// caused no power transition, no wake-up ramp progress, and re-sent
	// the previous mask — i.e. re-running it with unchanged inputs is a
	// no-op.
	settled bool
	// polDirty marks that an input of the policy decision changed since
	// the last runPolicy call: a VC allocation or retirement (Idle[]), or
	// a ticked Down_Up value (MostDegraded/LeastDegraded). While clear —
	// and only for a steady, settled unit seeing no new traffic now or at
	// its last run — the decision inputs are bit-identical to the last
	// executed call, so the call is elided.
	polDirty bool
}

// initOutputUnit initialises the output unit at slot (owner, slot),
// feeding the input unit at (dn, dnSlot) whose VC buffers hold depth
// flits each, over its arena windows: every VC idle, powered and with
// depth credits.
func (n *Network) initOutputUnit(owner NodeID, slot int, dn NodeID, dnSlot int, depth int) {
	u := unitIndex(int(owner), slot)
	ou := &n.ounits[u]
	*ou = OutputUnit{
		owner: owner, dn: dn, slot: uint8(slot), dnSlot: uint8(dnSlot),
		vc0:      int32(flatIndex(u, n.total, 0)),
		depth:    int32(depth),
		pwrMask:  n.vcAll,
		polDirty: true,
	}
	for i, vcs := 0, ou.vcs(n); i < len(vcs); i++ {
		vcs[i] = outVC{credits: int32(depth)}
	}
	if depth > 0 {
		ou.creditMask = n.vcAll
	}
}

// unit returns the unit's slot index in the network's unit arenas.
func (ou *OutputUnit) unit() int { return unitIndex(int(ou.owner), int(ou.slot)) }

// dnUnit returns the slot index of the downstream input unit.
func (ou *OutputUnit) dnUnit() int { return unitIndex(int(ou.dn), int(ou.dnSlot)) }

// vcs returns the unit's per-VC records and vnets its per-vnet records:
// windows of the network's arenas at the unit's slot.
func (ou *OutputUnit) vcs(n *Network) []outVC {
	return n.outvcs[ou.vc0 : int(ou.vc0)+n.total]
}

func (ou *OutputUnit) vnets(n *Network) []outVNet {
	return window(n.outvnets, ou.unit(), n.cfg.VNets)
}

// domain returns the gating domain whose one policy instance the unit
// calls for every vnet, and which counts its transitions: the ejection
// domain for a router's Local output, the network's policy domain
// otherwise.
func (ou *OutputUnit) domain(n *Network) *policyDomain {
	if ou.slot == uint8(Local) {
		return n.ejPol
	}
	return n.pol
}

// router returns the owning router, whose policy and residency summaries
// the unit keeps exact, or nil for an NI's injection side, whose policy
// runs are not port-gated.
func (ou *OutputUnit) router(n *Network) *Router {
	if ou.slot >= uint8(NumPorts) {
		return nil
	}
	return &n.routers[ou.owner]
}

// vnetMask returns the mask selecting vnet's VCsPerVNet contiguous bits.
func vnetMask(cfg *Config, vnet int) uint64 {
	return vcAllMask(cfg.VCsPerVNet) << uint(vnet*cfg.VCsPerVNet)
}

// Port returns the output port this unit serves (Local for an NI's
// injection side).
func (ou *OutputUnit) Port() Port {
	if ou.slot >= uint8(NumPorts) {
		return Local
	}
	return Port(ou.slot)
}

// FlitsSent returns the number of flits launched onto the link.
func (ou *OutputUnit) FlitsSent() uint64 { return ou.flitsSent }

// Credits returns the available credits of flattened VC vc of the unit,
// which lives in network n.
func (ou *OutputUnit) Credits(n *Network, vc int) int { return int(ou.vcs(n)[vc].credits) }

// StateOf returns the mirrored allocation state of flattened VC vc.
func (ou *OutputUnit) StateOf(vc int) VCState {
	if ou.actMask>>uint(vc)&1 != 0 {
		return VCActive
	}
	return VCIdle
}

// PoweredMirror reports whether VC vc is powered per the last mask sent.
func (ou *OutputUnit) PoweredMirror(vc int) bool { return ou.pwrMask>>uint(vc)&1 != 0 }

// creditTick consumes this cycle's returned credits and retires VCs
// whose packets have fully drained downstream (tail sent and all
// credits back), returning them to idle for reallocation.
func (ou *OutputUnit) creditTick(n *Network) {
	vcs := ou.vcs(n)
	for _, vc := range n.credits.receive(&ou.creditIn, ou.unit()) {
		v := &vcs[vc]
		v.credits++
		bit := uint64(1) << vc
		ou.creditMask |= bit
		if v.credits > ou.depth {
			panic(fmt.Sprintf("noc: credit overflow on node %d port %v vc %d",
				ou.owner, ou.Port(), vc))
		}
		if ou.actMask&ou.tailMask&bit != 0 && v.credits == ou.depth {
			ou.actMask &^= bit
			ou.tailMask &^= bit
			ou.polDirty = true
			if r := ou.router(n); r != nil {
				r.polPorts |= 1 << ou.slot
				if ou.actMask == 0 {
					r.busyOut &^= 1 << ou.slot
				}
			}
		}
	}
}

// freeVCs returns the mask of VCs in the vnet slice that allocVC could
// claim: idle, powered, and with a finished wake-up ramp.
func (ou *OutputUnit) freeVCs(cfg *Config, vnet int) uint64 {
	return ^ou.actMask & ou.pwrMask &^ ou.wakeMask & vnetMask(cfg, vnet)
}

// hasFreeVC reports whether the vnet slice contains an idle, powered VC
// that allocVC would claim.
func (ou *OutputUnit) hasFreeVC(cfg *Config, vnet int) bool {
	return ou.freeVCs(cfg, vnet) != 0
}

// allocVC implements the VA stage for one new packet on the given vnet:
// it claims an idle, powered downstream VC and returns its flattened
// index, or -1 when none is available. The search starts at a rotating
// pointer; under gating policies at most one candidate exists (the
// designated keep VC), so the rotation only matters for the baseline.
func (ou *OutputUnit) allocVC(n *Network, vnet int) int {
	free := ou.freeVCs(&n.cfg, vnet)
	if free == 0 {
		return -1
	}
	v := n.cfg.VCsPerVNet
	shift := uint(vnet * v)
	// Rotating-priority pick within the vnet slice: first set bit at or
	// after allocPtr, wrapping to the lowest set bit — identical to the
	// modular scan from allocPtr.
	local := free >> shift
	i := bits.TrailingZeros64(local)
	ptr := &ou.vnets(n)[vnet].allocPtr
	start := int(*ptr)
	if hi := local >> uint(start); hi != 0 {
		i = start + bits.TrailingZeros64(hi)
	}
	idx := int(shift) + i
	ou.actMask |= 1 << uint(idx)
	ou.tailMask &^= 1 << uint(idx)
	*ptr = int8((i + 1) % v)
	ou.polDirty = true
	if r := ou.router(n); r != nil {
		r.polPorts |= 1 << ou.slot
		r.busyOut |= 1 << ou.slot
	}
	return idx
}

// canSend reports whether a flit may be sent on flattened VC vc at the
// given cycle: the VC must be owned, a credit available, and the
// serialized link free.
func (ou *OutputUnit) canSend(vc int, cycle uint64) bool {
	return (ou.actMask&ou.creditMask)>>uint(vc)&1 != 0 && cycle >= ou.linkFreeAt
}

// sendFlit transmits f on flattened VC vc (the ST stage) starting at
// the given cycle, consuming one credit and occupying the link for
// PhitsPerFlit cycles. The link carries f with its VC rewritten for the
// downstream port.
func (ou *OutputUnit) sendFlit(n *Network, f flit, vc int, cycle uint64) {
	bit := uint64(1) << uint(vc)
	v := &ou.vcs(n)[vc]
	if ou.actMask&bit == 0 {
		panic("noc: send on unallocated VC")
	}
	if v.credits <= 0 {
		panic("noc: send without credit")
	}
	if cycle < ou.linkFreeAt {
		panic("noc: send on busy serialized link")
	}
	ou.linkFreeAt = cycle + uint64(n.cfg.PhitsPerFlit)
	if v.credits--; v.credits == 0 {
		ou.creditMask &^= bit
	}
	if f.typ.IsTail() {
		ou.tailMask |= bit
	}
	f.vc = uint8(vc)
	// Launch the flit and arm the downstream's receive pass: the
	// downstream router's flit summary (an NI's receive pass is not
	// port-gated) and its active-set entry.
	dn := ou.dnUnit()
	n.flits.send(&n.iunits[dn].flitIn, dn, f)
	if ou.dnSlot < uint8(NumPorts) {
		n.routers[ou.dn].flitPorts |= 1 << ou.dnSlot
	}
	ou.flitsSent++
	n.unitMet.flits.Inc()
	n.wakeUnit(ou.dn, ou.dnSlot)
}

// runPolicy executes the pre-VA recovery stage for every vnet and sends
// the composed power mask over the Up_Down link. Bit vn of newTraffic is
// the is_new_traffic_outport_x() input for vnet vn.
func (ou *OutputUnit) runPolicy(n *Network, newTraffic uint64, cycle uint64) {
	d := ou.domain(n)
	p := d.policy
	v, vnets := n.cfg.VCsPerVNet, n.cfg.VNets
	vnAll := vcAllMask(v)
	md := ou.vnets(n)
	var want uint64
	for vn := 0; vn < vnets; vn++ {
		base := uint(vn * v)
		want |= (p.DesiredPower(PolicyInput{
			NumVCs:        v,
			Idle:          ^ou.actMask >> base & vnAll,
			Powered:       ou.pwrMask >> base & vnAll,
			MostDegraded:  ou.mdIn.Current(md, vn),
			LeastDegraded: ou.mdIn.CurrentLD(md, vn),
			NewTraffic:    newTraffic>>uint(vn)&1 != 0,
			Cycle:         cycle,
		}) & vnAll) << base
	}
	// Transition pass over the whole port at once. A VC stays on when
	// desired or active; wake-up ramps (wakeMask) only ever cover powered
	// VCs, so fresh wakes, ramp progress and gatings are disjoint bit
	// sets and only those bits need per-VC work.
	on := want | ou.actMask
	wakes := on &^ ou.pwrMask
	gates := ou.pwrMask &^ on
	ramp := on & ou.wakeMask
	transition := wakes|gates|ramp != 0
	newWake := ou.wakeMask & on
	if transition {
		vcs := ou.vcs(n)
		for m := wakes; m != 0; m &= m - 1 {
			idx := bits.TrailingZeros64(m)
			// 0 -> 1 transition: the sleep transistor starts its wake-up ramp.
			vcs[idx].wakeLeft = int32(n.cfg.WakeupLatency)
			if n.cfg.WakeupLatency > 0 {
				newWake |= 1 << uint(idx)
			}
		}
		for m := ramp; m != 0; m &= m - 1 {
			idx := bits.TrailingZeros64(m)
			if vcs[idx].wakeLeft--; vcs[idx].wakeLeft == 0 {
				newWake &^= 1 << uint(idx)
			}
		}
		for m := gates; m != 0; m &= m - 1 {
			vcs[bits.TrailingZeros64(m)].wakeLeft = 0
		}
	}
	if wakes|gates != 0 {
		nw, ng := uint64(bits.OnesCount64(wakes)), uint64(bits.OnesCount64(gates))
		d.wakeEvents += nw
		d.gateEvents += ng
		d.mWake.Add(nw)
		d.mGate.Add(ng)
	}
	ou.pwrMask = on
	ou.wakeMask = newWake
	power := &n.iunits[ou.dnUnit()].power
	if on != power.next {
		transition = true
		if ou.dnSlot < uint8(NumPorts) {
			n.routers[ou.dn].powPorts |= 1 << ou.dnSlot
		}
		// The downstream must tick the changed mask into effect.
		n.wakeUnit(ou.dn, ou.dnSlot)
	}
	ou.settled = !transition
	ou.polDirty = false
	ou.lastNT = newTraffic
	power.Send(on)
}

// policyHolds reports whether this cycle's runPolicy call can be
// elided exactly: the last executed call was settled (no transitions,
// previous mask re-sent — which also implies every wake-up ramp has
// drained, so wakeMask == 0) and no decision input — Idle[], the
// Down_Up values, is_new_traffic — changed since. Under a cycle-free
// (pure) policy the elision is valid for any unchanged traffic mask;
// under a merely steady one only between two quiet calls, since
// SteadyPolicy licenses cycle-independence only while NewTraffic is
// false (RRNoSensor rotates on the cycle once traffic waits). The
// elided call would recompute the identical mask and Send it into an
// unchanged link, so skipping both is invisible.
func (ou *OutputUnit) policyHolds(d *policyDomain, newTraffic uint64) bool {
	if !ou.settled || ou.polDirty {
		return false
	}
	if d.pure {
		return newTraffic == ou.lastNT
	}
	return d.steady && ou.lastNT == 0 && newTraffic == 0
}

// quiescent reports whether skipping this unit's per-cycle work
// (creditTick, runPolicy, the power send) is provably a no-op: the
// policy is declared steady while idle, the previous run changed
// nothing, no credits are in flight, the Down_Up mirror is stable, and
// every VC is idle with its wake-up ramp finished.
// A settled run also guarantees every wake-up ramp has finished: a VC
// with wakeLeft > 0 that stays on decrements it (a transition), and a
// gated VC has it forced to zero, so settled implies wakeLeft == 0
// everywhere and only the allocation states need checking — which the
// actMask does in O(1).
func (ou *OutputUnit) quiescent(d *policyDomain) bool {
	if !d.steady || !ou.settled || ou.actMask != 0 {
		return false
	}
	return ou.creditIn.InFlight() == 0 && ou.mdIn.settled()
}

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

// OutputUnit is the upstream end of a channel: it owns the outVCstate
// for the downstream input port, performs the downstream VC allocation,
// runs the pre-VA recovery policy, and transmits flits. Per-VC state is
// packed into bitmasks (bit v = flattened VC v) so allocation scans and
// quiescence checks are single mask operations.
type OutputUnit struct {
	owner NodeID
	port  Port
	cfg   *Config
	depth int
	//nbtilint:arena
	vcs []outVC
	// actMask marks VCs in the mirrored VCActive state; tailMask marks
	// active VCs whose tail flit has been sent (awaiting credit drain);
	// pwrMask mirrors the power state most recently commanded
	// downstream (VA only considers powered idle VCs); wakeMask marks
	// VCs still inside their wake-up ramp (wakeLeft > 0).
	actMask, tailMask, pwrMask, wakeMask uint64
	// creditMask has bit v set while vcs[v].credits > 0, so the hot
	// canSend check reads only unit-header masks instead of chasing the
	// per-VC credit counter's cache line.
	creditMask uint64
	// linkFreeAt is the first cycle the (possibly serialized) link is
	// free again after the previous flit's phits. Declared among the
	// masks so canSend stays within the unit-header cache lines.
	linkFreeAt uint64
	// creditIn receives freed-slot notifications from downstream. Like
	// every channel's receiving end it is embedded in its reader (the
	// downstream writes through its creditOut pointer) so the per-cycle
	// receive pass stays on unit-resident cache lines.
	creditIn Pipeline[int]
	// mdIn is the Down_Up control channel, embedded for the same reason
	// (the downstream writes through its mdOut pointer).
	mdIn mdLink
	// flitOut carries flits to the downstream input unit (points at the
	// downstream's embedded flitIn pipeline).
	flitOut *Pipeline[flit]
	// powerOut is the Up_Down control channel (points at the downstream's
	// embedded power link).
	powerOut *powerLink
	// pol is the gating domain whose one policy instance this unit
	// calls for every vnet, and which counts its transitions.
	pol *policyDomain
	// allocPtr rotates the VA start position per vnet so that, when a
	// policy leaves several idle VCs powered (baseline), allocation
	// spreads across them.
	allocPtr []int
	// flitsSent counts link traversals.
	flitsSent uint64
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
	// lastNT records the packed NewTraffic mask the last executed
	// runPolicy saw. A steady policy's output is only guaranteed
	// reproducible between two quiet (lastNT == 0) calls; a pure
	// (cycle-free) policy's between any two calls with equal masks.
	lastNT uint64
	// wakeDown re-activates the downstream unit on the network
	// active-set when this unit emits something downstream must observe
	// (a flit, a changed power mask); the zero waker outside a network.
	wakeDown waker
	// dnFlit/dnPow point at the downstream ROUTER's flitPorts and
	// powPorts summaries (dnBit is this channel's port bit there): flit
	// and changed-power sends arm the downstream port so its next
	// receive pass processes them. nil when the downstream is an NI
	// (whose receive pass is not port-gated) or outside a network.
	dnFlit, dnPow *uint64
	dnBit         uint64
	// ownPol/ownAct point at the OWNING router's polPorts and busyOut
	// summaries (ownPolBit is this unit's port bit in both); the polDirty
	// writers arm ownPol so the policy sweep revisits the port, and
	// allocVC/creditTick keep ownAct tracking actMask's empty <->
	// non-empty transitions. nil for NI-owned units, whose policy runs
	// are not port-gated.
	ownPol, ownAct *uint64
	ownPolBit      uint64
}

// initOutputUnit initialises the zero output unit ou in place over
// caller-owned vcs backing storage (TotalVCs entries, typically a
// subslice of the network's flat arena) in gating domain pol, taking
// every per-unit slice from st.
func initOutputUnit(ou *OutputUnit, owner NodeID, port Port, cfg *Config,
	vcs []outVC, depth int, pol *policyDomain, st *unitStore) {
	total := cfg.TotalVCs()
	ou.owner, ou.port, ou.cfg, ou.depth = owner, port, cfg, depth
	ou.vcs = vcs[:total:total]
	for i := range ou.vcs {
		ou.vcs[i] = outVC{credits: int32(depth)}
	}
	if depth > 0 {
		ou.creditMask = vcAllMask(total)
	}
	ou.creditIn.slots = take(&st.creditSlots, cfg.LinkLatency)
	ou.mdIn.curMD, ou.mdIn.nextMD = take(&st.ints, cfg.VNets), take(&st.ints, cfg.VNets)
	ou.mdIn.curLD, ou.mdIn.nextLD = take(&st.ints, cfg.VNets), take(&st.ints, cfg.VNets)
	ou.pwrMask = vcAllMask(total)
	ou.allocPtr = take(&st.ints, cfg.VNets)
	ou.pol = pol
	ou.polDirty = true
}

// vnetMask returns the mask selecting vnet's VCsPerVNet contiguous bits.
func (ou *OutputUnit) vnetMask(vnet int) uint64 {
	return vcAllMask(ou.cfg.VCsPerVNet) << uint(vnet*ou.cfg.VCsPerVNet)
}

// Port returns the output port this unit serves.
func (ou *OutputUnit) Port() Port { return ou.port }

// FlitsSent returns the number of flits launched onto the link.
func (ou *OutputUnit) FlitsSent() uint64 { return ou.flitsSent }

// PolicyName returns the name of the recovery policy.
func (ou *OutputUnit) PolicyName() string { return ou.pol.policy.Name() }

// Credits returns the available credits of flattened VC vc.
func (ou *OutputUnit) Credits(vc int) int { return int(ou.vcs[vc].credits) }

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
func (ou *OutputUnit) creditTick() {
	for _, vc := range ou.creditIn.Receive() {
		v := &ou.vcs[vc]
		v.credits++
		ou.creditMask |= uint64(1) << uint(vc)
		if int(v.credits) > ou.depth {
			panic(fmt.Sprintf("noc: credit overflow on node %d port %v vc %d",
				ou.owner, ou.port, vc))
		}
		bit := uint64(1) << uint(vc)
		if ou.actMask&ou.tailMask&bit != 0 && int(v.credits) == ou.depth {
			ou.actMask &^= bit
			ou.tailMask &^= bit
			ou.polDirty = true
			if ou.ownPol != nil {
				*ou.ownPol |= ou.ownPolBit
				if ou.actMask == 0 {
					*ou.ownAct &^= ou.ownPolBit
				}
			}
		}
	}
}

// freeVCs returns the mask of VCs in the vnet slice that allocVC could
// claim: idle, powered, and with a finished wake-up ramp.
func (ou *OutputUnit) freeVCs(vnet int) uint64 {
	return ^ou.actMask & ou.pwrMask &^ ou.wakeMask & ou.vnetMask(vnet)
}

// hasFreeVC reports whether the vnet slice contains an idle, powered VC
// that allocVC would claim.
func (ou *OutputUnit) hasFreeVC(vnet int) bool {
	return ou.freeVCs(vnet) != 0
}

// allocVC implements the VA stage for one new packet on the given vnet:
// it claims an idle, powered downstream VC and returns its flattened
// index, or -1 when none is available. The search starts at a rotating
// pointer; under gating policies at most one candidate exists (the
// designated keep VC), so the rotation only matters for the baseline.
func (ou *OutputUnit) allocVC(vnet int) int {
	free := ou.freeVCs(vnet)
	if free == 0 {
		return -1
	}
	v := ou.cfg.VCsPerVNet
	shift := uint(vnet * v)
	// Rotating-priority pick within the vnet slice: first set bit at or
	// after allocPtr, wrapping to the lowest set bit — identical to the
	// modular scan from allocPtr.
	local := free >> shift
	i := bits.TrailingZeros64(local)
	start := ou.allocPtr[vnet]
	if hi := local >> uint(start); hi != 0 {
		i = start + bits.TrailingZeros64(hi)
	}
	idx := int(shift) + i
	ou.actMask |= 1 << uint(idx)
	ou.tailMask &^= 1 << uint(idx)
	ou.allocPtr[vnet] = (i + 1) % v
	ou.polDirty = true
	if ou.ownPol != nil {
		*ou.ownPol |= ou.ownPolBit
		*ou.ownAct |= ou.ownPolBit
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
func (ou *OutputUnit) sendFlit(f flit, vc int, cycle uint64) {
	bit := uint64(1) << uint(vc)
	v := &ou.vcs[vc]
	if ou.actMask&bit == 0 {
		panic("noc: send on unallocated VC")
	}
	if v.credits <= 0 {
		panic("noc: send without credit")
	}
	if cycle < ou.linkFreeAt {
		panic("noc: send on busy serialized link")
	}
	ou.linkFreeAt = cycle + uint64(ou.cfg.PhitsPerFlit)
	if v.credits--; v.credits == 0 {
		ou.creditMask &^= bit
	}
	if f.typ.IsTail() {
		ou.tailMask |= bit
	}
	f.vc = uint8(vc)
	ou.flitOut.Send(f)
	if ou.dnFlit != nil {
		*ou.dnFlit |= ou.dnBit
	}
	ou.flitsSent++
	ou.pol.mFlits.Inc()
	ou.wakeDown.wake()
}

// runPolicy executes the pre-VA recovery stage for every vnet and sends
// the composed power mask over the Up_Down link. Bit vn of newTraffic is
// the is_new_traffic_outport_x() input for vnet vn.
func (ou *OutputUnit) runPolicy(newTraffic uint64, cycle uint64) {
	d := ou.pol
	p := d.policy
	v, vnets := ou.cfg.VCsPerVNet, ou.cfg.VNets
	vnAll := vcAllMask(v)
	var want uint64
	for vn := 0; vn < vnets; vn++ {
		base := uint(vn * v)
		want |= (p.DesiredPower(PolicyInput{
			NumVCs:        v,
			Idle:          ^ou.actMask >> base & vnAll,
			Powered:       ou.pwrMask >> base & vnAll,
			MostDegraded:  ou.mdIn.Current(vn),
			LeastDegraded: ou.mdIn.CurrentLD(vn),
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
	for m := wakes; m != 0; m &= m - 1 {
		idx := bits.TrailingZeros64(m)
		// 0 -> 1 transition: the sleep transistor starts its wake-up ramp.
		ou.vcs[idx].wakeLeft = int32(ou.cfg.WakeupLatency)
		if ou.cfg.WakeupLatency > 0 {
			newWake |= 1 << uint(idx)
		}
	}
	for m := ramp; m != 0; m &= m - 1 {
		idx := bits.TrailingZeros64(m)
		if ou.vcs[idx].wakeLeft--; ou.vcs[idx].wakeLeft == 0 {
			newWake &^= 1 << uint(idx)
		}
	}
	for m := gates; m != 0; m &= m - 1 {
		ou.vcs[bits.TrailingZeros64(m)].wakeLeft = 0
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
	if on != ou.powerOut.next {
		transition = true
		if ou.dnPow != nil {
			*ou.dnPow |= ou.dnBit
		}
		// The downstream must tick the changed mask into effect.
		ou.wakeDown.wake()
	}
	ou.settled = !transition
	ou.polDirty = false
	ou.lastNT = newTraffic
	ou.powerOut.Send(on)
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
func (ou *OutputUnit) policyHolds(newTraffic uint64) bool {
	if !ou.settled || ou.polDirty {
		return false
	}
	if ou.pol.pure {
		return newTraffic == ou.lastNT
	}
	return ou.pol.steady && ou.lastNT == 0 && newTraffic == 0
}

// quiescent reports whether skipping this unit's per-cycle work
// (creditTick, runPolicy, the powerOut send) is provably a no-op: the
// policy is declared steady while idle, the previous run changed
// nothing, no credits are in flight, the Down_Up mirror is stable, and
// every VC is idle with its wake-up ramp finished.
// A settled run also guarantees every wake-up ramp has finished: a VC
// with wakeLeft > 0 that stays on decrements it (a transition), and a
// gated VC has it forced to zero, so settled implies wakeLeft == 0
// everywhere and only the allocation states need checking — which the
// actMask does in O(1).
func (ou *OutputUnit) quiescent() bool {
	if !ou.pol.steady || !ou.settled || ou.actMask != 0 {
		return false
	}
	return ou.creditIn.InFlight() == 0 && ou.mdIn.settled()
}

package noc

import "math/bits"

// saGrant records one switch-allocation winner, executed by the ST stage
// in the following cycle.
type saGrant struct {
	vc              int32 // flattened input VC
	outVC           int32 // flattened downstream VC
	inPort, outPort uint8
}

// Router is a 3-stage pipelined virtual-channel router:
//
//	stage 1  BW/RC — arriving flits are written into their input VC;
//	               heads compute their output port
//	stage 2  VA/SA — heads obtain a downstream VC (from this router's
//	               output units, which own the downstream outVCstate);
//	               buffered flits with credits arbitrate for the crossbar
//	stage 3  ST   — winners traverse the switch onto the output links
//
// plus the pre-VA recovery stage of the paper, which runs after VA each
// cycle on every output unit.
//
// The allocation stages sweep the input units' packed VC bitmasks
// (vaPendMask, activeMask, occMask) rather than scanning every VC, so
// cycle cost tracks the number of live VCs.
//
// The record is plain data: its input and output units sit in the
// network's unit arenas at the router's node and port, its VA arbiters
// in the network's arbiter arena, and its methods take the network.
type Router struct {
	id NodeID
	// nGrants counts the SA winners in grants; steadyAll caches whether
	// every output unit's policy declares SteadyWhenIdle (a static
	// property fixed at wiring time). Both sit beside the summaries, so
	// the quiescence check reads the record's first cache lines only.
	nGrants   uint8
	steadyAll bool
	coord     Coord
	// ports has bit p set for every port with a channel: Local and the
	// mesh directions that have a neighbour. The unit records of the
	// other ports are zero and never touched.
	ports uint64
	// occPorts/pendPorts summarise the input units: bit p is set while
	// input port p has a non-zero occMask / vaPendMask. The allocation
	// stages sweep only the set bits, so idle ports cost nothing. The
	// input units maintain the bits at every empty <-> non-empty
	// transition.
	occPorts, pendPorts uint64
	// Receive-side work summaries, one mask per cause (bit = port):
	// flits in flight (flitPorts), credits in flight (credPorts), an
	// unsettled Down_Up link (mdPorts), and an unsettled Up_Down link or
	// pending applyPower (powPorts). The writers arm the bits (upstream
	// output units on flit and power sends, downstream input units on
	// credit and sensor sends, local popFlit on tail retire); phaseRecv
	// clears them once the cause drains. Splitting by cause means an
	// armed port only touches the unit memory its work actually lives on
	// — a credit in flight does not drag the MD-link or power-link cache
	// lines in.
	flitPorts, credPorts, mdPorts, powPorts uint64
	// polPorts marks output ports whose pre-VA policy run may not be
	// elidable on a quiet cycle: the last run left the unit unsettled, a
	// decision input changed since (polDirty — armed by allocVC, the
	// creditTick retire, and the Down_Up tick), or the last executed run
	// saw traffic. A cleared bit proves policyHolds(0) for that port, so
	// stagePolicy sweeps only polPorts plus the ports with traffic now.
	polPorts uint64
	// busyIn/busyOut summarise residency: bit p is set while input port p
	// has a non-empty activeMask / output port p a non-empty actMask,
	// maintained by the units at every empty <-> non-empty transition.
	// Together with the receive and policy summaries they make the
	// quiescence check a handful of mask reads instead of a per-port
	// unit walk.
	busyIn, busyOut uint64

	// stFlits, vaGrants and saGrants count pipeline events for the
	// energy model and reports.
	stFlits, vaGrants, saGrants uint64

	// saVCArb picks, per input port, which of its VCs bids for the
	// crossbar this cycle.
	saVCArb [NumPorts]RoundRobin
	// saPortArb picks, per output port, the winning input port.
	saPortArb [NumPorts]RoundRobin

	// grants[:nGrants] are the SA winners executed by ST next cycle: at
	// most one per output port.
	grants [NumPorts]saGrant

	// saReq holds, per input port, the packed mask of VCs bidding for
	// the crossbar this cycle, and saCand the VC the port bids with
	// (scratch, reused every cycle).
	saReq  [NumPorts]uint64
	saCand [NumPorts]int32
}

// initRouter initialises router id, whose ports are the set bits of
// ports, and its VA arbiters; its units are initialised by the network
// wiring.
func (n *Network) initRouter(id NodeID, ports uint64) {
	total := n.total
	r := &n.routers[id]
	*r = Router{id: id, coord: n.coords[id], ports: ports}
	for p := Port(0); p < NumPorts; p++ {
		for i, arbs := 0, r.vaArbs(n, p); i < len(arbs); i++ {
			arbs[i] = RoundRobin{n: int(NumPorts) * total}
		}
		r.saVCArb[p] = RoundRobin{n: total}
		r.saPortArb[p] = RoundRobin{n: int(NumPorts)}
	}
}

// vaArbs returns the VA arbiters of output port p, one per vnet, which
// arbitrate among the flattened input VCs requesting a downstream VC: a
// window of the network's arbiter arena.
func (r *Router) vaArbs(n *Network, p Port) []RoundRobin {
	return window(n.vaArbs, flatIndex(int(r.id), int(NumPorts), int(p)), n.cfg.VNets)
}

// units returns the router's input and output unit records, indexed by
// port: the windows of the network's unit arenas at the router's node
// (the NI-side slot at index NumPorts belongs to the NI). A stage takes
// them once and indexes them per port.
func (r *Router) units(n *Network) ([]InputUnit, []OutputUnit) {
	return window(n.iunits, int(r.id), unitSlots), window(n.ounits, int(r.id), unitSlots)
}

// ID returns the router's node id.
func (r *Router) ID() NodeID { return r.id }

// Coord returns the router's mesh coordinate.
func (r *Router) Coord() Coord { return r.coord }

// phaseRecv is the receive half of a cycle for this router, fused into
// one sweep per port: it ticks the control links the router reads (the
// Up_Down masks of its input ports, the Down_Up feedback of its output
// ports — each link is ticked by its reader, so a skipped quiescent
// reader leaves a link alone only when cur == next), consumes returned
// credits, performs BW/RC for arriving flits and enacts the power
// masks. The pass only receives from channels — it never sends — so the
// engine may run every unit's receive pass, in any order, before any
// unit's compute pass without reordering link traffic.
func (r *Router) phaseRecv(n *Network, cycle uint64) {
	// One loop per cause, each sweeping only its armed ports, so the pass
	// touches exactly the unit memory a sender armed and same-type work
	// (all Down_Up ticks, all credit drains, ...) shares its code path and
	// cache lines. Different ports' units belong to disjoint channels, so
	// only the per-port orderings of the dense pass matter and both are
	// preserved: the Up_Down tick and the buffer writes of a port precede
	// its applyPower. The one-entry control links settle on Tick (their
	// bits clear unconditionally); the multi-cycle flit/credit pipelines
	// keep their bit until empty.
	ins, outs := r.units(n)
	for pm := r.mdPorts & r.ports; pm != 0; pm &= pm - 1 {
		p := Port(bits.TrailingZeros64(pm))
		if ou := &outs[p]; ou.mdIn.Tick(ou.vnets(n)) {
			ou.polDirty = true
			r.polPorts |= 1 << uint(p)
		}
	}
	r.mdPorts = 0
	for pm := r.credPorts; pm != 0; pm &= pm - 1 {
		p := Port(bits.TrailingZeros64(pm))
		ou := &outs[p]
		if ou.creditIn.n != 0 {
			ou.creditTick(n)
		}
		if ou.creditIn.n == 0 {
			r.credPorts &^= 1 << uint(p)
		}
	}
	for pm := r.flitPorts; pm != 0; pm &= pm - 1 {
		p := Port(bits.TrailingZeros64(pm))
		iu := &ins[p]
		for _, f := range n.flits.receive(&iu.flitIn, iu.unit()) {
			route := Local
			if f.typ.IsHead() {
				route = n.cfg.Routing.Route(r.coord, n.coords[n.pkts.slots[f.pkt].dst])
			}
			iu.bufferWrite(n, f, cycle, route)
			if n.tracer != nil {
				n.trace(EvBufferWrite, r.id, p, int(f.vc), n.pkts.export(f))
			}
		}
		if iu.flitIn.n == 0 {
			r.flitPorts &^= 1 << uint(p)
		}
	}
	for pm := r.powPorts; pm != 0; pm &= pm - 1 {
		iu := &ins[bits.TrailingZeros64(pm)]
		if iu.power.Tick() {
			iu.pwrDirty = true
		}
		iu.applyPower(n, cycle)
	}
	r.powPorts = 0
}

// phaseCompute is the send half of a cycle: ST executes last cycle's
// switch grants, VA/SA compute this cycle's allocations, and the pre-VA
// recovery policies publish next cycle's power commands. Everything it
// pushes into a channel is delivered by a receive pass at least one
// cycle later.
func (r *Router) phaseCompute(n *Network, cycle uint64) {
	r.stageST(n, cycle)
	r.stageVA(n, cycle)
	r.stageSA(n, cycle)
	r.stagePolicy(n, cycle)
}

// stageST executes last cycle's switch grants: winners leave their input
// buffers, traverse the crossbar and are launched onto the output links.
func (r *Router) stageST(n *Network, cycle uint64) {
	ins, outs := r.units(n)
	for _, g := range r.grants[:r.nGrants] {
		f := ins[g.inPort].popFlit(n, int(g.vc), cycle)
		outs[g.outPort].sendFlit(n, f, int(g.outVC), cycle)
		r.stFlits++
		n.noteProgress()
		if n.tracer != nil {
			f.vc = uint8(g.outVC)
			n.trace(EvSTraverse, r.id, Port(g.outPort), int(g.outVC), n.pkts.export(f))
		}
	}
	r.nGrants = 0
}

// vaCand is one input VC requesting a downstream VC this cycle.
type vaCand struct {
	inP  Port
	vc   int
	outP Port
	vn   int
	flat int
}

// stageVA grants downstream VCs to packets whose head flits completed
// buffer write. One grant per (output port, vnet) per cycle; the
// candidate set is restricted to idle *powered* downstream VCs, so the
// recovery policies steer which VC a new packet lands on.
//
// Requesters are gathered by sweeping each input port's vaPendMask
// (almost always zero or one bit) into the network's vaCands scratch,
// then arbitrated per (output port, vnet) with the rotating-priority
// rule of a round-robin arbiter.
func (r *Router) stageVA(n *Network, cycle uint64) {
	if r.pendPorts == 0 {
		return
	}
	total := n.total
	ins, outs := r.units(n)
	cands := n.vaCands[:0]
	for pm := r.pendPorts; pm != 0; pm &= pm - 1 {
		inP := Port(bits.TrailingZeros64(pm))
		iu := &ins[inP]
		bufs := iu.bufs(n)
		// A VA request needs a ready head flit, so VCs with an empty
		// buffer (head not yet arrived) cannot bid.
		for m := iu.vaPendMask & iu.occMask; m != 0; m &= m - 1 {
			vc := bits.TrailingZeros64(m)
			if !bufs[vc].headReady(cycle) {
				continue
			}
			cands = append(cands, vaCand{
				inP:  inP,
				vc:   vc,
				outP: bufs[vc].route(),
				vn:   vc / n.cfg.VCsPerVNet,
				flat: flatIndex(int(inP), total, vc),
			})
		}
	}
	n.vaCands = cands
	flat := int(NumPorts) * total
	for i := 0; i < len(cands); i++ {
		c := cands[i]
		if c.flat < 0 {
			continue // already arbitrated as part of an earlier group
		}
		arb := &r.vaArbs(n, c.outP)[c.vn]
		// Rotating-priority selection among all candidates of this
		// (output port, vnet) group; remaining group members are marked
		// consumed.
		best, bestDist := i, (c.flat-arb.next+flat)%flat
		for j := i + 1; j < len(cands); j++ {
			cj := cands[j]
			if cj.flat < 0 || cj.outP != c.outP || cj.vn != c.vn {
				continue
			}
			if d := (cj.flat - arb.next + flat) % flat; d < bestDist {
				best, bestDist = j, d
			}
		}
		for j := i; j < len(cands); j++ {
			if cands[j].flat >= 0 && cands[j].outP == c.outP && cands[j].vn == c.vn {
				if j != best {
					cands[j].flat = -1
				}
			}
		}
		w := cands[best]
		cands[best].flat = -1
		ou := &outs[c.outP]
		if r.ports>>uint(c.outP)&1 == 0 || !ou.hasFreeVC(&n.cfg, w.vn) {
			continue
		}
		arb.next = (w.flat + 1) % flat
		outVC := ou.allocVC(n, w.vn)
		if outVC < 0 {
			panic("noc: hasFreeVC/allocVC disagree")
		}
		iu := &ins[w.inP]
		iu.buf(n, w.vc).outVC = int32(outVC)
		iu.vaPendMask &^= 1 << uint(w.vc)
		if iu.vaPendMask == 0 {
			r.pendPorts &^= iu.portBit()
		}
		r.vaGrants++
		if n.tracer != nil {
			n.trace(EvVAGrant, r.id, w.inP, w.vc, n.pkts.export(iu.peek(n, w.vc)))
		}
	}
}

// stageSA performs separable switch allocation: each input port bids one
// ready VC; each output port grants one input port. Winners are queued
// for next cycle's ST.
func (r *Router) stageSA(n *Network, cycle uint64) {
	// Input stage: pick a candidate VC per input port. VCs with a
	// granted downstream VC are exactly activeMask &^ vaPendMask; of
	// those, a bid needs a ready head flit and a sendable downstream VC.
	// Only ports with occupied VCs (occPorts) can field a bid.
	var candPorts uint64
	ins, outs := r.units(n)
	for pm := r.occPorts; pm != 0; pm &= pm - 1 {
		inP := Port(bits.TrailingZeros64(pm))
		iu := &ins[inP]
		bufs := iu.bufs(n)
		// A bid needs a buffered head flit, so restricting the sweep to
		// occupied VCs is exact and skips the common wormhole case of a
		// resident packet waiting on upstream flits.
		var req uint64
		for m := iu.activeMask &^ iu.vaPendMask & iu.occMask; m != 0; m &= m - 1 {
			vc := bits.TrailingZeros64(m)
			b := &bufs[vc]
			if b.headReady(cycle) && outs[b.route()].canSend(int(b.outVC), cycle+1) {
				req |= 1 << uint(vc)
			}
		}
		if req != 0 {
			r.saReq[inP] = req
			r.saCand[inP] = int32(r.saVCArb[inP].PeekMask(req))
			candPorts |= 1 << uint(inP)
		}
	}
	if candPorts == 0 {
		return
	}
	// Output stage: grant one input port per output port. Request masks
	// (bit = input port) are built only for output ports that some
	// candidate targets; the grant sweep below still visits output ports
	// in ascending order, so arbitration matches the dense all-ports
	// scan exactly. saReq/saCand entries are only read for candPorts
	// bits, so stale values from earlier cycles are never observed.
	var portReq [NumPorts]uint64
	var outPorts uint64
	for pm := candPorts; pm != 0; pm &= pm - 1 {
		inP := Port(bits.TrailingZeros64(pm))
		outP := ins[inP].buf(n, int(r.saCand[inP])).route()
		portReq[outP] |= 1 << uint(inP)
		outPorts |= 1 << uint(outP)
	}
	for pm := outPorts & r.ports; pm != 0; pm &= pm - 1 {
		outP := Port(bits.TrailingZeros64(pm))
		winner := r.saPortArb[outP].GrantMask(portReq[outP])
		if winner < 0 {
			continue
		}
		inP := Port(winner)
		vc := r.saCand[inP]
		// Advance the winning input port's VC arbiter.
		r.saVCArb[inP].GrantMask(r.saReq[inP])
		r.grants[r.nGrants] = saGrant{
			vc:      vc,
			outVC:   ins[inP].buf(n, int(vc)).outVC,
			inPort:  uint8(inP),
			outPort: uint8(outP),
		}
		r.nGrants++
		r.saGrants++
	}
}

// stagePolicy computes is_new_traffic per (output port, vnet) and runs
// the pre-VA recovery policy of every output unit — the paper's
// cooperative step, executed in the upstream router.
func (r *Router) stagePolicy(n *Network, cycle uint64) {
	// nt[p] packs is_new_traffic per vnet (bit vn) for output port p;
	// ntPorts marks the ports with any traffic bit set. Only ports with
	// pending VA requests (pendPorts) contribute.
	var nt [NumPorts]uint64
	var ntPorts uint64
	ins, outs := r.units(n)
	for pm := r.pendPorts; pm != 0; pm &= pm - 1 {
		iu := &ins[bits.TrailingZeros64(pm)]
		bufs := iu.bufs(n)
		for m := iu.vaPendMask; m != 0; m &= m - 1 {
			vc := bits.TrailingZeros64(m)
			p := bufs[vc].route()
			nt[p] |= 1 << uint(vc/n.cfg.VCsPerVNet)
			ntPorts |= 1 << uint(p)
		}
	}
	// A port outside both masks proves policyHolds(0): its unit is
	// settled with no input change since the last quiet run, so the
	// elided call would re-send the identical mask into an unchanged
	// link. Ports are re-armed by the polDirty writers and by traffic.
	for pm := r.polPorts | ntPorts; pm != 0; pm &= pm - 1 {
		p := Port(bits.TrailingZeros64(pm))
		bit := uint64(1) << uint(p)
		if r.ports&bit == 0 {
			r.polPorts &^= bit
			continue
		}
		ou := &outs[p]
		d := ou.domain(n)
		if !ou.policyHolds(d, nt[p]) {
			ou.runPolicy(n, nt[p], cycle)
		}
		if ou.settled && !ou.polDirty && ou.lastNT == 0 && (d.pure || d.steady) {
			r.polPorts &^= bit
		} else {
			r.polPorts |= bit
		}
	}
}

// samplePhase runs at sensor-sampling cycles: it flushes the open NBTI
// spans (so closed-loop sensors observe current duty-cycles) and lets
// every input port's sensors publish their comparator outputs over the
// Down_Up links. Between sampling cycles the links hold the values, so
// the per-cycle publish of the original engine was a no-op and is
// elided entirely.
func (r *Router) samplePhase(n *Network, cycle uint64) {
	ins, _ := r.units(n)
	for pm := r.ports; pm != 0; pm &= pm - 1 {
		iu := &ins[bits.TrailingZeros64(pm)]
		iu.flushNBTI(n, cycle)
		iu.publishMostDegraded(n)
	}
}

// quiescent reports whether every per-cycle phase of this router is
// provably a no-op, so it can leave the active set: no pending switch
// grants, no flit in flight toward any input port, every input VC idle
// and empty under a settled power mask, and every output unit idle with
// a settled, steady policy. Each conjunct is read off a summary mask —
// an unarmed receive bit proves the underlying channel drained or
// settled, a cleared polPorts bit proves the unit settled after a quiet
// run, and the busy masks prove every VC idle (activeMask == 0 implies
// empty buffers: a buffered flit requires the active state, which only
// the tail's departure clears).
func (r *Router) quiescent() bool {
	return r.nGrants == 0 && r.steadyAll &&
		r.flitPorts|r.credPorts|r.mdPorts|r.powPorts|r.polPorts == 0 &&
		r.busyIn|r.busyOut == 0
}

// CrossbarTraversals returns the number of ST events executed.
func (r *Router) CrossbarTraversals() uint64 { return r.stFlits }

// VAGrants returns the number of downstream VCs allocated by this
// router.
func (r *Router) VAGrants() uint64 { return r.vaGrants }

// SAGrants returns the number of switch allocations performed.
func (r *Router) SAGrants() uint64 { return r.saGrants }

// bufferedFlits returns the number of flits buffered in the router.
func (r *Router) bufferedFlits(n *Network) int {
	k := 0
	ins, _ := r.units(n)
	for pm := r.ports; pm != 0; pm &= pm - 1 {
		k += ins[bits.TrailingZeros64(pm)].bufferedFlits(n)
	}
	return k
}

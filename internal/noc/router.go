package noc

import "math/bits"

// saGrant records one switch-allocation winner, executed by the ST stage
// in the following cycle.
type saGrant struct {
	inPort  Port
	vc      int // flattened input VC
	outPort Port
	outVC   int // flattened downstream VC
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
type Router struct {
	id    NodeID
	coord Coord
	cfg   *Config
	net   *Network
	// in/out may contain nil entries for mesh-edge directions.
	in  [NumPorts]*InputUnit
	out [NumPorts]*OutputUnit
	// coords is the network's NodeID -> Coord table, shared by every
	// router so RC is a load instead of a div/mod per head flit.
	coords []Coord
	// occPorts/pendPorts summarise the input units: bit p is set while
	// in[p] has a non-zero occMask / vaPendMask. The allocation stages
	// sweep only the set bits, so idle ports cost nothing. The input
	// units maintain the bits through their occPorts/pendPorts back
	// pointers at every empty <-> non-empty transition.
	occPorts, pendPorts uint64
	// Receive-side work summaries, one mask per cause (bit = port):
	// flits in flight (flitPorts), credits in flight (credPorts), an
	// unsettled Down_Up link (mdPorts), and an unsettled Up_Down link or
	// pending applyPower (powPorts). The writers arm the bits (upstream
	// output units through dnFlit/dnPow on flit and power sends,
	// downstream input units through upCred/upMD on credit and sensor
	// sends, local popFlit on tail retire); phaseRecv clears them once
	// the cause drains. Splitting by cause means an armed port only
	// touches the unit memory its work actually lives on — a credit in
	// flight does not drag the MD-link or power-link cache lines in.
	flitPorts, credPorts, mdPorts, powPorts uint64
	// polPorts marks output ports whose pre-VA policy run may not be
	// elidable on a quiet cycle: the last run left the unit unsettled, a
	// decision input changed since (polDirty — armed by allocVC, the
	// creditTick retire, and the Down_Up tick), or the last executed run
	// saw traffic. A cleared bit proves policyHolds(0) for that port, so
	// stagePolicy sweeps only polPorts plus the ports with traffic now.
	polPorts uint64
	// busyIn/busyOut summarise residency: bit p is set while in[p] has a
	// non-empty activeMask / out[p] a non-empty actMask, maintained by
	// the units at every empty <-> non-empty transition. Together with
	// the receive and policy summaries they make the quiescence check a
	// handful of mask reads instead of a per-port unit walk.
	busyIn, busyOut uint64
	// steadyAll caches whether every output unit's policy declares
	// SteadyWhenIdle (a static property fixed at wiring time).
	steadyAll bool

	// vaArb arbitrates, per output port and vnet, among the flattened
	// input VCs requesting a downstream VC.
	vaArb [NumPorts][]RoundRobin
	// saVCArb picks, per input port, which of its VCs bids for the
	// crossbar this cycle.
	saVCArb [NumPorts]RoundRobin
	// saPortArb picks, per output port, the winning input port.
	saPortArb [NumPorts]RoundRobin

	// grants are the SA winners executed by ST next cycle.
	grants []saGrant

	// stFlits, vaGrants and saGrants count pipeline events for the
	// energy model and reports.
	stFlits, vaGrants, saGrants uint64

	// scratch buffers (reused every cycle; never escape).
	vaCands []vaCand
	// saReq holds, per input port, the packed mask of VCs bidding for
	// the crossbar this cycle.
	saReq  [NumPorts]uint64
	saCand [NumPorts]int
}

// initRouter initialises the zero router shell r in place, carving its
// VA arbiters from st; input/output units are attached by the network
// wiring.
func initRouter(r *Router, id NodeID, coord Coord, cfg *Config, st *unitStore) {
	r.id, r.coord, r.cfg = id, coord, cfg
	total := cfg.TotalVCs()
	flat := int(NumPorts) * total
	for p := range r.vaArb {
		r.vaArb[p] = take(&st.arbs, cfg.VNets)
		for vn := range r.vaArb[p] {
			r.vaArb[p][vn] = RoundRobin{n: flat}
		}
		r.saVCArb[p] = RoundRobin{n: total}
		r.saPortArb[p] = RoundRobin{n: int(NumPorts)}
	}
}

// ID returns the router's node id.
func (r *Router) ID() NodeID { return r.id }

// Coord returns the router's mesh coordinate.
func (r *Router) Coord() Coord { return r.coord }

// Input returns the input unit at port p (nil on mesh edges).
func (r *Router) Input(p Port) *InputUnit { return r.in[p] }

// Output returns the output unit at port p (nil on mesh edges).
func (r *Router) Output(p Port) *OutputUnit { return r.out[p] }

// phaseRecv is the receive half of a cycle for this router, fused into
// one sweep per port: it ticks the control links the router reads (the
// Up_Down masks of its input ports, the Down_Up feedback of its output
// ports — each link is ticked by its reader, so a skipped quiescent
// reader leaves a link alone only when cur == next), consumes returned
// credits, performs BW/RC for arriving flits and enacts the power
// masks. The pass only receives from channels — it never sends — so the
// engine may run every unit's receive pass, in any order, before any
// unit's compute pass without reordering link traffic.
func (r *Router) phaseRecv(cycle uint64) {
	// One loop per cause, each sweeping only its armed ports, so the pass
	// touches exactly the unit memory a sender armed and same-type work
	// (all Down_Up ticks, all credit drains, ...) shares its code path and
	// cache lines. Different ports' units belong to disjoint channels, so
	// only the per-port orderings of the dense pass matter and both are
	// preserved: the Up_Down tick and the buffer writes of a port precede
	// its applyPower. The one-entry control links settle on Tick (their
	// bits clear unconditionally); the multi-cycle flit/credit pipelines
	// keep their bit until empty.
	for pm := r.mdPorts; pm != 0; pm &= pm - 1 {
		p := Port(bits.TrailingZeros64(pm))
		if ou := r.out[p]; ou != nil && ou.mdIn.Tick() {
			ou.polDirty = true
			r.polPorts |= 1 << uint(p)
		}
	}
	r.mdPorts = 0
	for pm := r.credPorts; pm != 0; pm &= pm - 1 {
		p := Port(bits.TrailingZeros64(pm))
		ou := r.out[p]
		if ou.creditIn.n != 0 {
			ou.creditTick()
		}
		if ou.creditIn.n == 0 {
			r.credPorts &^= 1 << uint(p)
		}
	}
	for pm := r.flitPorts; pm != 0; pm &= pm - 1 {
		p := Port(bits.TrailingZeros64(pm))
		iu := r.in[p]
		for _, f := range iu.flitIn.Receive() {
			route := Local
			if f.typ.IsHead() {
				route = r.cfg.Routing.Route(r.coord, r.coords[r.net.pkts.slots[f.pkt].dst])
			}
			iu.bufferWrite(f, cycle, route)
			if r.net.tracer != nil {
				r.net.trace(EvBufferWrite, r.id, p, int(f.vc), r.net.pkts.export(f))
			}
		}
		if iu.flitIn.n == 0 {
			r.flitPorts &^= 1 << uint(p)
		}
	}
	for pm := r.powPorts; pm != 0; pm &= pm - 1 {
		p := Port(bits.TrailingZeros64(pm))
		iu := r.in[p]
		if iu.power.Tick() {
			iu.pwrDirty = true
		}
		iu.applyPower(cycle)
	}
	r.powPorts = 0
}

// phaseCompute is the send half of a cycle: ST executes last cycle's
// switch grants, VA/SA compute this cycle's allocations, and the pre-VA
// recovery policies publish next cycle's power commands. Everything it
// pushes into a channel is delivered by a receive pass at least one
// cycle later.
func (r *Router) phaseCompute(cycle uint64) {
	r.stageST(cycle)
	r.stageVA(cycle)
	r.stageSA(cycle)
	r.stagePolicy(cycle)
}

// stageST executes last cycle's switch grants: winners leave their input
// buffers, traverse the crossbar and are launched onto the output links.
func (r *Router) stageST(cycle uint64) {
	for _, g := range r.grants {
		f := r.in[g.inPort].popFlit(g.vc, cycle)
		r.out[g.outPort].sendFlit(f, g.outVC, cycle)
		r.stFlits++
		r.net.noteProgress()
		if r.net.tracer != nil {
			f.vc = uint8(g.outVC)
			r.net.trace(EvSTraverse, r.id, g.outPort, g.outVC, r.net.pkts.export(f))
		}
	}
	r.grants = r.grants[:0]
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
// (almost always zero or one bit), then arbitrated per (output port,
// vnet) with the rotating-priority rule of a round-robin arbiter.
func (r *Router) stageVA(cycle uint64) {
	if r.pendPorts == 0 {
		return
	}
	total := r.cfg.TotalVCs()
	r.vaCands = r.vaCands[:0]
	for pm := r.pendPorts; pm != 0; pm &= pm - 1 {
		inP := Port(bits.TrailingZeros64(pm))
		iu := r.in[inP]
		// A VA request needs a ready head flit, so VCs with an empty
		// buffer (head not yet arrived) cannot bid.
		for m := iu.vaPendMask & iu.occMask; m != 0; m &= m - 1 {
			vc := bits.TrailingZeros64(m)
			if !iu.headReady(vc, cycle) {
				continue
			}
			r.vaCands = append(r.vaCands, vaCand{
				inP:  inP,
				vc:   vc,
				outP: iu.vcs[vc].route(),
				vn:   vc / r.cfg.VCsPerVNet,
				flat: flatIndex(int(inP), total, vc),
			})
		}
	}
	flat := int(NumPorts) * total
	for i := 0; i < len(r.vaCands); i++ {
		c := r.vaCands[i]
		if c.flat < 0 {
			continue // already arbitrated as part of an earlier group
		}
		ou := r.out[c.outP]
		arb := &r.vaArb[c.outP][c.vn]
		// Rotating-priority selection among all candidates of this
		// (output port, vnet) group; remaining group members are marked
		// consumed.
		best, bestDist := i, (c.flat-arb.next+flat)%flat
		for j := i + 1; j < len(r.vaCands); j++ {
			cj := r.vaCands[j]
			if cj.flat < 0 || cj.outP != c.outP || cj.vn != c.vn {
				continue
			}
			if d := (cj.flat - arb.next + flat) % flat; d < bestDist {
				best, bestDist = j, d
			}
		}
		for j := i; j < len(r.vaCands); j++ {
			if r.vaCands[j].flat >= 0 && r.vaCands[j].outP == c.outP && r.vaCands[j].vn == c.vn {
				if j != best {
					r.vaCands[j].flat = -1
				}
			}
		}
		w := r.vaCands[best]
		r.vaCands[best].flat = -1
		if ou == nil || !ou.hasFreeVC(w.vn) {
			continue
		}
		arb.next = (w.flat + 1) % flat
		outVC := ou.allocVC(w.vn)
		if outVC < 0 {
			panic("noc: hasFreeVC/allocVC disagree")
		}
		iu := r.in[w.inP]
		iu.vcs[w.vc].outVC = int32(outVC)
		iu.vaPendMask &^= 1 << uint(w.vc)
		if iu.vaPendMask == 0 && iu.pendPorts != nil {
			*iu.pendPorts &^= iu.portBit
		}
		r.vaGrants++
		if r.net.tracer != nil {
			r.net.trace(EvVAGrant, r.id, w.inP, w.vc, r.net.pkts.export(iu.peek(w.vc)))
		}
	}
}

// stageSA performs separable switch allocation: each input port bids one
// ready VC; each output port grants one input port. Winners are queued
// for next cycle's ST.
func (r *Router) stageSA(cycle uint64) {
	// Input stage: pick a candidate VC per input port. VCs with a
	// granted downstream VC are exactly activeMask &^ vaPendMask; of
	// those, a bid needs a ready head flit and a sendable downstream VC.
	// Only ports with occupied VCs (occPorts) can field a bid.
	var candPorts uint64
	for pm := r.occPorts; pm != 0; pm &= pm - 1 {
		inP := Port(bits.TrailingZeros64(pm))
		iu := r.in[inP]
		// A bid needs a buffered head flit, so restricting the sweep to
		// occupied VCs is exact and skips the common wormhole case of a
		// resident packet waiting on upstream flits.
		var req uint64
		for m := iu.activeMask &^ iu.vaPendMask & iu.occMask; m != 0; m &= m - 1 {
			vc := bits.TrailingZeros64(m)
			b := &iu.vcs[vc]
			if iu.headReady(vc, cycle) && r.out[b.route()].canSend(int(b.outVC), cycle+1) {
				req |= 1 << uint(vc)
			}
		}
		if req != 0 {
			r.saReq[inP] = req
			r.saCand[inP] = r.saVCArb[inP].PeekMask(req)
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
		outP := r.in[inP].vcs[r.saCand[inP]].route()
		portReq[outP] |= 1 << uint(inP)
		outPorts |= 1 << uint(outP)
	}
	for pm := outPorts; pm != 0; pm &= pm - 1 {
		outP := Port(bits.TrailingZeros64(pm))
		if r.out[outP] == nil {
			continue
		}
		winner := r.saPortArb[outP].GrantMask(portReq[outP])
		if winner < 0 {
			continue
		}
		inP := Port(winner)
		vc := r.saCand[inP]
		// Advance the winning input port's VC arbiter.
		r.saVCArb[inP].GrantMask(r.saReq[inP])
		r.grants = append(r.grants, saGrant{
			inPort:  inP,
			vc:      vc,
			outPort: outP,
			outVC:   int(r.in[inP].vcs[vc].outVC),
		})
		r.saGrants++
	}
}

// stagePolicy computes is_new_traffic per (output port, vnet) and runs
// the pre-VA recovery policy of every output unit — the paper's
// cooperative step, executed in the upstream router.
func (r *Router) stagePolicy(cycle uint64) {
	// nt[p] packs is_new_traffic per vnet (bit vn) for output port p;
	// ntPorts marks the ports with any traffic bit set. Only ports with
	// pending VA requests (pendPorts) contribute.
	var nt [NumPorts]uint64
	var ntPorts uint64
	for pm := r.pendPorts; pm != 0; pm &= pm - 1 {
		iu := r.in[bits.TrailingZeros64(pm)]
		for m := iu.vaPendMask; m != 0; m &= m - 1 {
			vc := bits.TrailingZeros64(m)
			p := iu.vcs[vc].route()
			nt[p] |= 1 << uint(vc/r.cfg.VCsPerVNet)
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
		ou := r.out[p]
		if ou == nil {
			r.polPorts &^= bit
			continue
		}
		if !ou.policyHolds(nt[p]) {
			ou.runPolicy(nt[p], cycle)
		}
		if ou.settled && !ou.polDirty && ou.lastNT == 0 && (ou.pol.pure || ou.pol.steady) {
			r.polPorts &^= bit
		} else {
			r.polPorts |= bit
		}
	}
}

// samplePhase runs at sensor-sampling cycles: it flushes the open NBTI
// spans (so closed-loop sensors observe current duty-cycles) and lets
// every input port's sensor banks publish their comparator outputs over
// the Down_Up links. Between sampling cycles the banks hold their
// values, so the per-cycle publish of the original engine was a no-op
// and is elided entirely.
func (r *Router) samplePhase(cycle uint64) {
	for p := Port(0); p < NumPorts; p++ {
		if iu := r.in[p]; iu != nil {
			iu.flushNBTI(cycle)
			iu.publishMostDegraded(cycle)
		}
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
	return len(r.grants) == 0 && r.steadyAll &&
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
func (r *Router) bufferedFlits() int {
	n := 0
	for p := Port(0); p < NumPorts; p++ {
		if r.in[p] != nil {
			n += r.in[p].bufferedFlits()
		}
	}
	return n
}

package noc

import (
	"fmt"
	"math/bits"
)

// NIStats aggregates per-node traffic statistics.
type NIStats struct {
	// InjectedPackets counts packets accepted into the source queues.
	InjectedPackets uint64
	// InjectedFlits counts flits launched into the network.
	InjectedFlits uint64
	// EjectedPackets and EjectedFlits count received traffic.
	EjectedPackets uint64
	EjectedFlits   uint64
	// LatencySum accumulates packet latency (source-queue entry to tail
	// ejection) for ejected packets.
	LatencySum uint64
	// NetLatencySum accumulates network latency (head launch to tail
	// ejection).
	NetLatencySum uint64
	// MaxQueueLen is the high-water mark of the source queues.
	MaxQueueLen int
}

// AvgLatency returns the mean packet latency in cycles, or 0 when no
// packet has been ejected.
func (s NIStats) AvgLatency() float64 {
	if s.EjectedPackets == 0 {
		return 0
	}
	return float64(s.LatencySum) / float64(s.EjectedPackets)
}

// AvgNetLatency returns the mean network latency in cycles.
func (s NIStats) AvgNetLatency() float64 {
	if s.EjectedPackets == 0 {
		return 0
	}
	return float64(s.NetLatencySum) / float64(s.EjectedPackets)
}

// niFlow is a packet in flight from an NI on the flattened local-port
// VC it was allocated: the packet's table slot and length plus the
// sequence number of the next flit to launch. stageSend builds each
// flit from it, so opening a flow allocates nothing.
type niFlow struct {
	pkt       uint32
	next, len uint16
}

// flit returns the flow's next flit.
func (fl *niFlow) flit() flit {
	return flit{pkt: fl.pkt, seq: fl.next, typ: flitType(int(fl.next), int(fl.len))}
}

// niQueue is one NI source queue, per node and vnet: a FIFO of
// packet-table slots threaded through the slots' next links. head and
// tail are 1 + the first and last queued slot, 0 while the queue is
// empty, so the zero queue is ready.
type niQueue struct {
	head, tail uint32
}

// NI is a tile's network interface. On the injection side it is the
// *upstream* of the router's Local input port: it owns an output unit
// (with outVCstate and a recovery policy) and performs VA for new
// packets, so the local port participates in NBTI gating exactly like
// router-to-router channels. On the ejection side it hosts the always-on
// ejection buffers fed by the router's Local output port.
//
// The record is plain data. Its two units sit at the NI-side slot
// (ejPort) of its node in the network's unit arenas, its flows and
// source queues in the network's flow and queue arenas at its node, and
// its methods take the network; each phase takes the unit records once.
type NI struct {
	id    NodeID
	ejArb RoundRobin
	// queued counts packets across all source queues, so the per-cycle
	// quiescence check is O(1) instead of a sweep over the queues.
	queued  int
	flowArb RoundRobin
	// flowMask marks VCs whose flow still has unlaunched flits, so
	// stageSend sweeps only live flows (and skips entirely when zero).
	flowMask uint64

	stats NIStats
}

// ID returns the NI's node id.
func (ni *NI) ID() NodeID { return ni.id }

// Stats returns a copy of the NI's statistics.
func (ni *NI) Stats() NIStats { return ni.stats }

// QueuedPackets returns the number of packets waiting in source queues.
func (ni *NI) QueuedPackets() int { return ni.queued }

// units returns the NI's injection-side output unit (upstream of the
// router's Local input port) and its ejection buffers (downstream of the
// router's Local output port, whose embedded flitIn is the router→NI
// flit pipeline).
func (ni *NI) units(n *Network) (*OutputUnit, *InputUnit) {
	u := unitIndex(int(ni.id), ejPort)
	return &n.ounits[u], &n.iunits[u]
}

// flows returns the NI's flows, one per flattened local-port VC, and
// queues its per-vnet source queues: windows of the network's arenas at
// the NI's node.
func (ni *NI) flows(n *Network) []niFlow { return window(n.flows, int(ni.id), n.total) }

func (ni *NI) queues(n *Network) []niQueue { return window(n.queues, int(ni.id), n.cfg.VNets) }

// pendingFlits returns flits buffered in open flows (allocated but not
// yet launched).
func (ni *NI) pendingFlits(n *Network) int {
	flows, k := ni.flows(n), 0
	for m := ni.flowMask; m != 0; m &= m - 1 {
		fl := &flows[bits.TrailingZeros64(m)]
		k += int(fl.len) - int(fl.next)
	}
	return k
}

// inject stores a packet of length flits for dst on vnet in a fresh
// packet-table slot, stamped with the network's next packet id and the
// current cycle, appends the slot to the vnet's source queue and
// returns it.
func (ni *NI) inject(n *Network, dst NodeID, vnet, length int) (uint32, error) {
	if vnet < 0 || vnet >= n.cfg.VNets {
		return 0, fmt.Errorf("noc: packet vnet %d out of range", vnet)
	}
	if length < 1 || length > MaxPacketLen {
		return 0, fmt.Errorf("noc: packet length %d outside [1, %d]", length, MaxPacketLen)
	}
	slot := n.pkts.take(packet{
		id: n.nextPacketID, inject: n.cycle,
		src: ni.id, dst: dst, vnet: uint16(vnet), len: uint16(length),
	})
	n.pkts.enqueue(&ni.queues(n)[vnet], slot)
	ni.queued++
	ni.stats.InjectedPackets++
	if ni.queued > ni.stats.MaxQueueLen {
		ni.stats.MaxQueueLen = ni.queued
	}
	return slot, nil
}

// pickEject returns the first VC of mask (ascending bit order) whose
// head flit is ready, or -1.
func pickEject(bufs []vcBuffer, mask, cycle uint64) int {
	for ; mask != 0; mask &= mask - 1 {
		if vc := bits.TrailingZeros64(mask); bufs[vc].headReady(cycle) {
			return vc
		}
	}
	return -1
}

// drainEject consumes up to EjectRate flits from the ejection buffers
// ej, completing packets and recording latency. The rotating scan sweeps
// the occupied-VC mask from the arbiter pointer upward, then wraps —
// identical to the modular scan over all VCs.
func (ni *NI) drainEject(n *Network, ej *InputUnit, cycle uint64) {
	if ej.occMask == 0 {
		return
	}
	bufs := ej.bufs(n)
	for k := 0; k < n.cfg.EjectRate; k++ {
		occ := ej.occMask
		low := uint64(1)<<uint(ni.ejArb.next) - 1
		vc := pickEject(bufs, occ&^low, cycle)
		if vc < 0 {
			vc = pickEject(bufs, occ&low, cycle)
		}
		if vc < 0 {
			return
		}
		ni.ejArb.next = (vc + 1) % len(bufs)
		f := ej.popFlit(n, vc, cycle)
		ni.stats.EjectedFlits++
		n.noteProgress()
		if n.tracer != nil {
			n.trace(EvEject, ni.id, Local, vc, n.pkts.export(f))
		}
		if f.typ.IsTail() {
			p := &n.pkts.slots[f.pkt]
			lat, netLat := cycle-p.inject, cycle-p.netInject
			ni.stats.EjectedPackets++
			ni.stats.LatencySum += lat
			ni.stats.NetLatencySum += netLat
			n.latency.Add(lat)
			if n.deliverHook != nil {
				n.deliverHook(n.pkts.export(f), cycle)
			}
			n.pkts.release(f.pkt)
		}
	}
}

// pickFlow returns the first VC of mask (ascending bit order) that out
// can send on this cycle, or -1.
func pickFlow(out *OutputUnit, mask, cycle uint64) int {
	for ; mask != 0; mask &= mask - 1 {
		if vc := bits.TrailingZeros64(mask); out.canSend(vc, cycle) {
			return vc
		}
	}
	return -1
}

// stageSend launches at most one flit from an open flow through out (the
// NI's ST).
func (ni *NI) stageSend(n *Network, out *OutputUnit, cycle uint64) {
	if ni.flowMask == 0 {
		return
	}
	low := uint64(1)<<uint(ni.flowArb.next) - 1
	picked := pickFlow(out, ni.flowMask&^low, cycle)
	if picked < 0 {
		picked = pickFlow(out, ni.flowMask&low, cycle)
	}
	if picked < 0 {
		return
	}
	ni.flowArb.next = (picked + 1) % n.total
	fl := &ni.flows(n)[picked]
	out.sendFlit(n, fl.flit(), picked, cycle)
	fl.next++
	ni.stats.InjectedFlits++
	n.noteProgress()
	if fl.next == fl.len {
		*fl = niFlow{}
		ni.flowMask &^= 1 << uint(picked)
	}
}

// stageVA allocates a local-port VC of out to the head packet of each
// vnet queue (at most one per vnet per cycle), mirroring the router VA
// rate: the packet leaves its queue in O(1) and its slot, stamped with
// the cycle it enters the network, opens the VC's flow.
func (ni *NI) stageVA(n *Network, out *OutputUnit, cycle uint64) {
	if ni.queued == 0 {
		return
	}
	qs := ni.queues(n)
	for vn := range qs {
		q := &qs[vn]
		if q.head == 0 || !out.hasFreeVC(&n.cfg, vn) {
			continue
		}
		vc := out.allocVC(n, vn)
		if vc < 0 {
			continue
		}
		slot := n.pkts.dequeue(q)
		ni.queued--
		p := &n.pkts.slots[slot]
		p.netInject = cycle
		fl := &ni.flows(n)[vc]
		*fl = niFlow{pkt: slot, len: p.len}
		ni.flowMask |= 1 << uint(vc)
		if n.tracer != nil {
			// The granted VC is not the flit's yet: it is traced with VC 0.
			n.trace(EvNIAlloc, ni.id, Local, vc, n.pkts.export(fl.flit()))
		}
	}
}

// stagePolicy runs the injection-side pre-VA recovery policy of out:
// new traffic exists for a vnet (bit vn of the packed mask) whenever a
// packet waits in its source queue.
func (ni *NI) stagePolicy(n *Network, out *OutputUnit, cycle uint64) {
	var nt uint64
	if ni.queued > 0 {
		for vn, q := range ni.queues(n) {
			if q.head != 0 {
				nt |= 1 << uint(vn)
			}
		}
	}
	if !out.policyHolds(n.pol, nt) {
		out.runPolicy(n, nt, cycle)
	}
}

// phaseRecv is the receive half of a cycle for this NI: it ticks the
// control links the NI reads (the ejection side's Up_Down mask, the
// injection side's Down_Up feedback), consumes returned credits,
// buffers arriving ejection flits and enacts the power mask. Like
// Router.phaseRecv it never sends into a channel.
func (ni *NI) phaseRecv(n *Network, cycle uint64) {
	out, ej := ni.units(n)
	if ej.power.Tick() {
		ej.pwrDirty = true
	}
	if out.mdIn.Tick(out.vnets(n)) {
		out.polDirty = true
	}
	if out.creditIn.n != 0 {
		out.creditTick(n)
	}
	for _, f := range n.flits.receive(&ej.flitIn, ej.unit()) {
		ej.bufferWrite(n, f, cycle, Local)
	}
	ej.applyPower(n, cycle)
}

// phaseCompute is the send half of a cycle: drain the ejection buffers,
// launch at most one flit from an open flow, allocate local-port VCs to
// queued packets, and run the injection-side recovery policy.
func (ni *NI) phaseCompute(n *Network, cycle uint64) {
	out, ej := ni.units(n)
	ni.drainEject(n, ej, cycle)
	ni.stageSend(n, out, cycle)
	ni.stageVA(n, out, cycle)
	ni.stagePolicy(n, out, cycle)
}

// samplePhase flushes the ejection buffers' NBTI spans and publishes
// their most-degraded VC at sensor-sampling cycles (the router's Local
// output unit is the consumer; with the default always-on policy the
// value is unused).
func (ni *NI) samplePhase(n *Network, cycle uint64) {
	_, ej := ni.units(n)
	ej.flushNBTI(n, cycle)
	ej.publishMostDegraded(n)
}

// quiescent reports whether every per-cycle phase of this NI is
// provably a no-op: nothing queued or mid-flow on the injection side,
// nothing buffered or in flight on the ejection side, and the
// injection output unit idle under a settled, steady policy.
func (ni *NI) quiescent(n *Network) bool {
	if ni.queued > 0 || ni.flowMask != 0 {
		return false
	}
	out, ej := ni.units(n)
	if ej.flitIn.InFlight() > 0 || !ej.power.settled() || ej.activeMask != 0 {
		return false
	}
	return out.quiescent(n.pol)
}

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

// NI is a tile's network interface. On the injection side it is the
// *upstream* of the router's Local input port: it owns an output unit
// (with outVCstate and a recovery policy) and performs VA for new
// packets, so the local port participates in NBTI gating exactly like
// router-to-router channels. On the ejection side it hosts the always-on
// ejection buffers fed by the router's Local output port.
type NI struct {
	id  NodeID
	cfg *Config
	net *Network
	// out is the injection-side output unit (downstream: router local
	// input port).
	out *OutputUnit
	// ej holds the ejection buffers (downstream of the router's Local
	// output port); its embedded flitIn is the router→NI flit pipeline.
	ej    *InputUnit
	ejArb RoundRobin

	srcQ [][]Packet // per-vnet source queues
	// queued counts packets across all source queues, so the per-cycle
	// quiescence check is O(1) instead of a sweep over the queue slices.
	queued int
	//nbtilint:arena
	flows   []niFlow // per flattened local-port VC
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

// Ejection returns the NI's ejection input unit.
func (ni *NI) Ejection() *InputUnit { return ni.ej }

// InjectionOutput returns the NI's injection-side output unit.
func (ni *NI) InjectionOutput() *OutputUnit { return ni.out }

// QueuedPackets returns the number of packets waiting in source queues.
func (ni *NI) QueuedPackets() int { return ni.queued }

// pendingFlits returns flits buffered in open flows (allocated but not
// yet launched).
func (ni *NI) pendingFlits() int {
	n := 0
	for m := ni.flowMask; m != 0; m &= m - 1 {
		fl := &ni.flows[bits.TrailingZeros64(m)]
		n += int(fl.len) - int(fl.next)
	}
	return n
}

// inject appends a packet to its vnet source queue.
func (ni *NI) inject(p Packet) error {
	if p.VNet < 0 || p.VNet >= ni.cfg.VNets {
		return fmt.Errorf("noc: packet vnet %d out of range", p.VNet)
	}
	if p.Len < 1 || p.Len > MaxPacketLen {
		return fmt.Errorf("noc: packet length %d outside [1, %d]", p.Len, MaxPacketLen)
	}
	ni.srcQ[p.VNet] = append(ni.srcQ[p.VNet], p)
	ni.queued++
	ni.stats.InjectedPackets++
	if q := ni.QueuedPackets(); q > ni.stats.MaxQueueLen {
		ni.stats.MaxQueueLen = q
	}
	return nil
}

// deliverEject writes flits arriving from the router into the ejection
// buffers.
func (ni *NI) deliverEject(cycle uint64) {
	n := ni.net
	for _, f := range n.flits.receive(&ni.ej.flitIn, ni.ej.unit()) {
		ni.ej.bufferWrite(n, f, cycle, Local)
	}
}

// pickEject returns the first VC of mask (ascending bit order) whose
// head flit is ready, or -1.
func (ni *NI) pickEject(bufs []vcBuffer, mask, cycle uint64) int {
	for ; mask != 0; mask &= mask - 1 {
		if vc := bits.TrailingZeros64(mask); bufs[vc].headReady(cycle) {
			return vc
		}
	}
	return -1
}

// drainEject consumes up to EjectRate flits from the ejection buffers,
// completing packets and recording latency. The rotating scan sweeps the
// occupied-VC mask from the arbiter pointer upward, then wraps —
// identical to the modular scan over all VCs.
func (ni *NI) drainEject(cycle uint64) {
	if ni.ej.occMask == 0 {
		return
	}
	bufs := ni.ej.bufs(ni.net)
	for k := 0; k < ni.cfg.EjectRate; k++ {
		occ := ni.ej.occMask
		low := uint64(1)<<uint(ni.ejArb.next) - 1
		vc := ni.pickEject(bufs, occ&^low, cycle)
		if vc < 0 {
			vc = ni.pickEject(bufs, occ&low, cycle)
		}
		if vc < 0 {
			return
		}
		ni.ejArb.next = (vc + 1) % len(bufs)
		f := ni.ej.popFlit(ni.net, vc, cycle)
		ni.stats.EjectedFlits++
		ni.net.noteProgress()
		if ni.net.tracer != nil {
			ni.net.trace(EvEject, ni.id, Local, vc, ni.net.pkts.export(f))
		}
		if f.typ.IsTail() {
			p := &ni.net.pkts.slots[f.pkt]
			lat, netLat := cycle-p.inject, cycle-p.netInject
			ni.stats.EjectedPackets++
			ni.stats.LatencySum += lat
			ni.stats.NetLatencySum += netLat
			ni.net.latency.Add(lat)
			if ni.net.deliverHook != nil {
				ni.net.deliverHook(ni.net.pkts.export(f), cycle)
			}
			ni.net.pkts.release(f.pkt)
		}
	}
}

// pickFlow returns the first VC of mask (ascending bit order) that can
// send this cycle, or -1.
func (ni *NI) pickFlow(mask, cycle uint64) int {
	for ; mask != 0; mask &= mask - 1 {
		if vc := bits.TrailingZeros64(mask); ni.out.canSend(vc, cycle) {
			return vc
		}
	}
	return -1
}

// stageSend launches at most one flit from an open flow (the NI's ST).
func (ni *NI) stageSend(cycle uint64) {
	if ni.flowMask == 0 {
		return
	}
	low := uint64(1)<<uint(ni.flowArb.next) - 1
	picked := ni.pickFlow(ni.flowMask&^low, cycle)
	if picked < 0 {
		picked = ni.pickFlow(ni.flowMask&low, cycle)
	}
	if picked < 0 {
		return
	}
	ni.flowArb.next = (picked + 1) % ni.net.total
	fl := &ni.flows[picked]
	f := fl.flit()
	ni.out.sendFlit(ni.net, f, picked, cycle)
	fl.next++
	ni.stats.InjectedFlits++
	ni.net.noteProgress()
	if fl.next == fl.len {
		*fl = niFlow{}
		ni.flowMask &^= 1 << uint(picked)
	}
}

// stageVA allocates a local-port VC to the head packet of each vnet
// queue (at most one per vnet per cycle), mirroring the router VA rate.
func (ni *NI) stageVA(cycle uint64) {
	for vn := 0; vn < ni.cfg.VNets; vn++ {
		if len(ni.srcQ[vn]) == 0 || !ni.out.hasFreeVC(ni.cfg, vn) {
			continue
		}
		vc := ni.out.allocVC(ni.net, vn)
		if vc < 0 {
			continue
		}
		pkt := ni.srcQ[vn][0]
		copy(ni.srcQ[vn], ni.srcQ[vn][1:])
		ni.srcQ[vn] = ni.srcQ[vn][:len(ni.srcQ[vn])-1]
		ni.queued--
		slot := ni.net.pkts.take(packet{
			id: pkt.ID, inject: pkt.InjectCycle, netInject: cycle,
			src: ni.id, dst: pkt.Dst, vnet: uint16(pkt.VNet), len: uint16(pkt.Len),
		})
		ni.flows[vc] = niFlow{pkt: slot, len: uint16(pkt.Len)}
		ni.flowMask |= 1 << uint(vc)
		if ni.net.tracer != nil {
			// The granted VC is not the flit's yet: it is traced with VC 0.
			ni.net.trace(EvNIAlloc, ni.id, Local, vc, ni.net.pkts.export(ni.flows[vc].flit()))
		}
	}
}

// stagePolicy runs the injection-side pre-VA recovery policy: new
// traffic exists for a vnet (bit vn of the packed mask) whenever a
// packet waits in its source queue.
func (ni *NI) stagePolicy(cycle uint64) {
	var nt uint64
	if ni.queued > 0 {
		for vn := 0; vn < ni.cfg.VNets; vn++ {
			if len(ni.srcQ[vn]) > 0 {
				nt |= 1 << uint(vn)
			}
		}
	}
	if !ni.out.policyHolds(ni.net.pol, nt) {
		ni.out.runPolicy(ni.net, nt, cycle)
	}
}

// phaseRecv is the receive half of a cycle for this NI: it ticks the
// control links the NI reads (the ejection side's Up_Down mask, the
// injection side's Down_Up feedback), consumes returned credits,
// buffers arriving ejection flits and enacts the power mask. Like
// Router.phaseRecv it never sends into a channel.
func (ni *NI) phaseRecv(cycle uint64) {
	if ni.ej.power.Tick() {
		ni.ej.pwrDirty = true
	}
	if ni.out.mdIn.Tick(ni.out.vnets(ni.net)) {
		ni.out.polDirty = true
	}
	if ni.out.creditIn.n != 0 {
		ni.out.creditTick(ni.net)
	}
	ni.deliverEject(cycle)
	ni.ej.applyPower(ni.net, cycle)
}

// phaseCompute is the send half of a cycle: drain the ejection buffers,
// launch at most one flit from an open flow, allocate local-port VCs to
// queued packets, and run the injection-side recovery policy.
func (ni *NI) phaseCompute(cycle uint64) {
	ni.drainEject(cycle)
	ni.stageSend(cycle)
	ni.stageVA(cycle)
	ni.stagePolicy(cycle)
}

// samplePhase flushes the ejection buffers' NBTI spans and publishes
// their most-degraded VC at sensor-sampling cycles (the router's Local
// output unit is the consumer; with the default always-on policy the
// value is unused).
func (ni *NI) samplePhase(cycle uint64) {
	ni.ej.flushNBTI(ni.net, cycle)
	ni.ej.publishMostDegraded(ni.net, cycle)
}

// quiescent reports whether every per-cycle phase of this NI is
// provably a no-op: nothing queued or mid-flow on the injection side,
// nothing buffered or in flight on the ejection side, and the
// injection output unit idle under a settled, steady policy.
func (ni *NI) quiescent() bool {
	if ni.queued > 0 || ni.flowMask != 0 || ni.ej.flitIn.InFlight() > 0 ||
		!ni.ej.power.settled() || ni.ej.activeMask != 0 {
		return false
	}
	return ni.out.quiescent(ni.net.pol)
}

package noc

import (
	"fmt"
	"math/bits"

	"nbtinoc/internal/metrics"
	"nbtinoc/internal/nbti"
	"nbtinoc/internal/rng"
	"nbtinoc/internal/sensor"
)

// vcBuffer is the allocation and accounting state of one
// virtual-channel buffer of an input unit. It is plain data (32 bytes,
// no pointers): the VC's flit ring and NBTI device are found by index
// in the network's FIFO and device arenas, and its power state lives in
// the unit's poweredMask, so the network's buffer arena is a span the
// garbage collector never scans.
type vcBuffer struct {
	// acc is the last cycle whose stress/recovery has been charged to
	// the device tracker. Accounting is span-batched: between state
	// transitions the (powered, busy) pair is constant, so the whole
	// span [acc+1, transition cycle-1] is charged in one call at the
	// moment the state changes (and on demand at read points).
	acc uint64
	// lastArrive is the cycle of the latest buffer write (BW). With the
	// buffer size it tells whether the head flit has finished BW (see
	// headReady), so a buffered flit carries no arrival cycle and the
	// VA/SA sweeps never dereference the FIFO slot.
	lastArrive uint64
	// head and size locate the buffered flits in the VC's ring.
	head, size int32
	// outVC is the downstream VC allocated by this router's VA for the
	// resident packet's next hop; -1 while unallocated or not needed
	// (ejection).
	outVC int32
	state VCState
	// outPort is the output port computed by RC for the resident packet
	// (a Port, stored narrow; see route).
	outPort uint8
}

// route returns the output port computed by RC.
func (b *vcBuffer) route() Port { return Port(b.outPort) }

func (b *vcBuffer) len() int { return int(b.size) }

// InputUnit is the set of VC buffers of one input port, downstream end
// of a channel. It receives flits and the Up_Down power commands, sends
// credits back, and hosts the NBTI sensors and comparators that drive
// the Down_Up link. Per-VC status is tracked in packed bitmasks (bit v =
// flattened VC v) so the router stages sweep set bits instead of
// scanning every VC.
//
// The record is plain data. Its per-VC buffers, FIFO rings, devices and
// sensor noise sources are windows of the network's arenas at its own
// slot index (unit), and its upstream output unit is the slot (up,
// upSlot) that the mesh topology assigns; the methods take the network
// to reach them.
type InputUnit struct {
	// occMask marks VCs with at least one buffered flit; activeMask
	// marks VCs hosting a resident packet (state VCActive — a superset
	// of occMask); vaPendMask marks VCs holding a routed head that still
	// needs a downstream VC (state VCActive, outVC -1). The router
	// stages iterate the set bits, so ports contribute cost proportional
	// to their live VCs.
	occMask, activeMask, vaPendMask uint64
	// poweredMask is the buffers' supply state: a clear bit is a power
	// gated VC (NBTI recovery).
	poweredMask uint64
	// power is the downstream end of the Up_Down channel carrying the
	// desired power mask; the upstream output unit writes it.
	power powerLink
	// writes and reads count buffer write/read events (flits in/out),
	// feeding the energy model.
	writes, reads uint64
	// flitIn is the inbound flit pipeline. The receiving end of every
	// channel is embedded in its reader so the per-cycle receive pass
	// touches only unit-resident cache lines; the upstream output unit
	// writes it.
	flitIn pipeline
	// owner is the node of the unit's router or NI; up is the node of
	// its upstream output unit.
	owner, up NodeID
	// vc0 is the index of the unit's first VC in the per-VC arenas (its
	// unit slot times TotalVCs) and fifo0 the offset of its flit rings
	// in its node group's FIFO storage: the two windows the hot path
	// indexes, derived once from the slot at construction.
	vc0, fifo0 int32
	// depth is the flit capacity of each VC buffer.
	depth int32
	// slot is the unit's pseudo-port: the router input port, or ejPort
	// for an NI's ejection buffers. upSlot is the upstream output unit's
	// slot: the upstream router's output port, or ejPort for an NI's
	// injection side. A slot below NumPorts is a router port, whose
	// router keeps the port-summary masks the unit maintains.
	slot, upSlot uint8
	// pwrDirty marks that the next applyPower call can act: the Up_Down
	// mask ticked to a new value or a VC left the active state. While
	// clear, applyPower is a provable no-op and returns immediately.
	pwrDirty bool
}

// unitMetrics are the unit instruments, resolved once per network and
// shared by all of its units: flit launches, credit returns and NBTI
// span flushes.
type unitMetrics struct {
	flits, credits *metrics.Counter
	spans          nbti.SpanMetrics
}

// newUnitMetrics resolves the unit instruments from the process default
// registry.
func newUnitMetrics() unitMetrics {
	return unitMetrics{
		flits: flitsRoutedCounter(), credits: creditsReturnedCounter(),
		spans: nbti.NewSpanMetrics(),
	}
}

// initInputUnit initialises the input unit at slot (owner, slot), fed by
// the output unit at (up, upSlot), over its arena windows: every VC
// powered and idle, with the initial threshold voltages vth0.
func (n *Network) initInputUnit(owner NodeID, slot int, up NodeID, upSlot int, depth int, vth0 []float64) {
	total := n.total
	if len(vth0) != total {
		panic(fmt.Sprintf("noc: %d Vth0 samples for %d VCs", len(vth0), total))
	}
	u := unitIndex(int(owner), slot)
	iu := &n.iunits[u]
	*iu = InputUnit{
		owner: owner, up: up, slot: uint8(slot), upSlot: uint8(upSlot),
		vc0:         int32(flatIndex(u, total, 0)),
		fifo0:       int32(n.fifoBase(int(owner), slot)),
		depth:       int32(depth),
		power:       powerLink{cur: ^uint64(0), next: ^uint64(0)},
		poweredMask: n.vcAll,
		pwrDirty:    true,
	}
	devs, bufs := iu.devs(n), iu.bufs(n)
	for i := range bufs {
		devs[i] = nbti.Device{Vth0: vth0[i]}
		bufs[i].outVC = -1
	}
}

// vcAllMask returns the mask with the total low bits set.
func vcAllMask(total int) uint64 {
	if total >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(total) - 1
}

// unit returns the unit's slot index in the network's unit arenas.
func (iu *InputUnit) unit() int { return unitIndex(int(iu.owner), int(iu.slot)) }

// upUnit returns the slot index of the upstream output unit.
func (iu *InputUnit) upUnit() int { return unitIndex(int(iu.up), int(iu.upSlot)) }

// bufs returns the unit's VC buffers and devs their NBTI devices (their
// critical PMOS networks): windows of the network's arenas at the
// unit's slot.
func (iu *InputUnit) bufs(n *Network) []vcBuffer {
	return n.vcbufs[iu.vc0 : int(iu.vc0)+n.total]
}

func (iu *InputUnit) devs(n *Network) []nbti.Device {
	return n.devices[iu.vc0 : int(iu.vc0)+n.total]
}

// buf returns VC vc's buffer.
func (iu *InputUnit) buf(n *Network, vc int) *vcBuffer { return &n.vcbufs[int(iu.vc0)+vc] }

// fifoAt returns position pos of VC vc's flit ring: each VC owns depth
// consecutive slots of the unit's FIFO storage, in VC order.
func (iu *InputUnit) fifoAt(n *Network, vc int, pos int32) *flit {
	return &n.fifos[int(iu.owner)/fifoGroup][int(iu.fifo0)+flatIndex(vc, int(iu.depth), int(pos))]
}

// router returns the owning router, whose port summaries the unit keeps
// exact, or nil for an NI's ejection buffers.
func (iu *InputUnit) router(n *Network) *Router {
	if iu.slot >= uint8(NumPorts) {
		return nil
	}
	return &n.routers[iu.owner]
}

// portBit is the unit's bit in its router's port summaries.
func (iu *InputUnit) portBit() uint64 { return 1 << iu.slot }

// push appends f to VC vc, whose buffer is b.
func (iu *InputUnit) push(n *Network, vc int, b *vcBuffer, f flit) {
	if b.size == iu.depth {
		panic("noc: VC buffer overflow (credit protocol violated)")
	}
	pos := b.head + b.size
	if pos >= iu.depth {
		pos -= iu.depth
	}
	*iu.fifoAt(n, vc, pos) = f
	b.size++
}

// peek returns the head flit of VC vc.
func (iu *InputUnit) peek(n *Network, vc int) flit {
	b := iu.buf(n, vc)
	if b.size == 0 {
		panic("noc: peek on empty VC buffer")
	}
	return *iu.fifoAt(n, vc, b.head)
}

// pop removes and returns the head flit of VC vc, whose buffer is b.
func (iu *InputUnit) pop(n *Network, vc int, b *vcBuffer) flit {
	if b.size == 0 {
		panic("noc: pop on empty VC buffer")
	}
	f := *iu.fifoAt(n, vc, b.head)
	b.head++
	if b.head == iu.depth {
		b.head = 0
	}
	b.size--
	return f
}

// flushVC charges VC vc's open accounting span up to and including cycle
// upTo with the buffer's current (powered, busy) state. Callers flush
// with upTo = cycle-1 immediately before mutating the supply state or
// the empty/non-empty status, so every cycle is charged with its
// end-of-cycle state exactly as the per-cycle accounting did.
func (iu *InputUnit) flushVC(n *Network, vc int, upTo uint64) {
	b := iu.buf(n, vc)
	if upTo <= b.acc {
		return
	}
	k := upTo - b.acc
	b.acc = upTo
	tr := &n.devices[int(iu.vc0)+vc].Tracker
	if iu.poweredMask>>uint(vc)&1 != 0 {
		busy := uint64(0)
		if b.size > 0 {
			busy = k
		}
		tr.Stress(k, busy)
		n.unitMet.spans.Stress(k)
	} else {
		tr.Recover(k)
		n.unitMet.spans.Recover(k)
	}
}

// attachSensors seeds the read-noise sources of the unit's sensors in
// the noise arena: per vnet, one source splits off src and each of the
// vnet's sensors one off that. A noiseless network has no sources and
// draws nothing.
func (iu *InputUnit) attachSensors(n *Network, src *rng.Source) {
	if n.noise == nil {
		return
	}
	for vn := 0; vn < n.cfg.VNets; vn++ {
		var vnSrc rng.Source
		src.SplitInto(&vnSrc)
		noise := window(n.noise, flatIndex(iu.unit(), n.cfg.VNets, vn), n.cfg.VCsPerVNet)
		for i := range noise {
			vnSrc.SplitInto(&noise[i])
		}
	}
}

// sweep samples the sensors of vnet vn's VCs and returns the
// comparators' most and least degraded VC (indices within the vnet
// slice). A noisy sweep draws each sensor's read noise from the noise
// arena; otherwise the sensors read noiselessly.
func (iu *InputUnit) sweep(n *Network, vn int, noisy bool) (md, ld int) {
	i, per := flatIndex(iu.unit(), n.cfg.VNets, vn), n.cfg.VCsPerVNet
	var noise []rng.Source
	if noisy && n.noise != nil {
		noise = window(n.noise, i, per)
	}
	return sensor.Sweep(window(n.devices, i, per), noise, &n.cfg.Sensor, &n.cfg.NBTI)
}

// Port returns the input port this unit serves (Local for an NI's
// ejection buffers).
func (iu *InputUnit) Port() Port {
	if iu.slot >= uint8(NumPorts) {
		return Local
	}
	return Port(iu.slot)
}

// device returns the NBTI device of flattened VC vc, with the open
// accounting span flushed so the tracker is current.
func (iu *InputUnit) device(n *Network, vc int) *nbti.Device {
	iu.flushVC(n, vc, n.cycle)
	return &iu.devs(n)[vc]
}

// Powered reports the current power state of flattened VC vc.
func (iu *InputUnit) Powered(vc int) bool { return iu.poweredMask>>uint(vc)&1 != 0 }

// VCStateOf returns the allocation state of flattened VC vc of the unit,
// which lives in network n.
func (iu *InputUnit) VCStateOf(n *Network, vc int) VCState { return iu.buf(n, vc).state }

// Occupancy returns the number of buffered flits in flattened VC vc of
// the unit, which lives in network n.
func (iu *InputUnit) Occupancy(n *Network, vc int) int { return iu.buf(n, vc).len() }

// bufferWrite performs the BW stage for an arriving flit. route gives
// the output port for head flits (RC); it is ignored for body/tail.
// A unit receives at most one flit per cycle: its one upstream output
// unit sends at most one per cycle (sendFlit's linkFreeAt), which
// headReady relies on.
func (iu *InputUnit) bufferWrite(n *Network, f flit, cycle uint64, route Port) {
	bit := uint64(1) << f.vc
	vc := iu.buf(n, int(f.vc))
	if iu.poweredMask&bit == 0 {
		panic(fmt.Sprintf("noc: flit arrived at gated VC %d of node %d port %v",
			f.vc, iu.owner, iu.Port()))
	}
	if nbtiDebug && vc.size > 0 && vc.lastArrive == cycle {
		panic(fmt.Sprintf("noc: two flits written into VC %d of node %d port %v in cycle %d",
			f.vc, iu.owner, iu.Port(), cycle))
	}
	r := iu.router(n)
	if f.typ.IsHead() {
		if vc.state != VCIdle {
			panic(fmt.Sprintf("noc: head flit into busy VC %d of node %d port %v (packet mixing)",
				f.vc, iu.owner, iu.Port()))
		}
		vc.state = VCActive
		vc.outPort = uint8(route)
		vc.outVC = -1
		iu.vaPendMask |= bit
		iu.activeMask |= bit
		if r != nil {
			r.pendPorts |= iu.portBit()
			r.busyIn |= iu.portBit()
		}
	} else if vc.state != VCActive {
		panic("noc: body/tail flit into idle VC")
	}
	if vc.size == 0 {
		// Empty -> busy transition: close the idle-stress span.
		iu.flushVC(n, int(f.vc), cycle-1)
		iu.occMask |= bit
		if r != nil {
			r.occPorts |= iu.portBit()
		}
	}
	iu.push(n, int(f.vc), vc, f)
	vc.lastArrive = cycle
	iu.writes++
}

// popFlit removes the head flit of vc (the ST stage of the downstream
// router or the NI ejection drain), returns it, and sends a credit back
// upstream. When the tail leaves, the VC returns to idle.
func (iu *InputUnit) popFlit(n *Network, vc int, cycle uint64) flit {
	bit := uint64(1) << uint(vc)
	b := iu.buf(n, vc)
	r := iu.router(n)
	if b.size == 1 {
		// Busy -> empty transition: close the busy-stress span.
		iu.flushVC(n, vc, cycle-1)
		iu.occMask &^= bit
		if iu.occMask == 0 && r != nil {
			r.occPorts &^= iu.portBit()
		}
	}
	f := iu.pop(n, vc, b)
	iu.reads++
	if f.typ.IsTail() {
		if b.outVC == -1 {
			// Only ejection VCs retire without a VA grant; router VCs
			// left vaPending at the grant.
			iu.vaPendMask &^= bit
			if iu.vaPendMask == 0 && r != nil {
				r.pendPorts &^= iu.portBit()
			}
		}
		b.state = VCIdle
		b.outVC = -1
		iu.activeMask &^= bit
		// The VC may now be gated by the current mask.
		iu.pwrDirty = true
		if r != nil {
			r.powPorts |= iu.portBit()
			if iu.activeMask == 0 {
				r.busyIn &^= iu.portBit()
			}
		}
	}
	// Return the credit and arm the upstream's receive pass: the
	// upstream router's credit summary (an NI's receive pass is not
	// port-gated) and its active-set entry.
	up := iu.upUnit()
	n.credits.send(&n.ounits[up].creditIn, up, uint8(vc))
	if iu.upSlot < uint8(NumPorts) {
		n.routers[iu.up].credPorts |= 1 << iu.upSlot
	}
	n.unitMet.credits.Inc()
	n.wakeUnit(iu.up, iu.upSlot)
	return f
}

// headReady reports whether vc has a flit at its FIFO head that finished
// its buffer-write stage before the given cycle (the one-cycle BW stage:
// a flit arriving at cycle t can be allocated/switched at t+1). A VC
// takes at most one flit per cycle (see bufferWrite), so with two or
// more buffered the head arrived before the latest write, hence before
// this cycle; a lone flit is the latest write itself.
func (b *vcBuffer) headReady(cycle uint64) bool {
	return b.size > 1 || b.size == 1 && b.lastArrive < cycle
}

// applyPower enacts this cycle's Up_Down mask. The mask is authoritative
// for idle VCs; busy VCs are always powered (and the mask, being derived
// from the upstream outVCstate, always keeps them on — asserted here).
// The whole update is three mask operations plus one span flush per
// supply transition.
func (iu *InputUnit) applyPower(n *Network, cycle uint64) {
	if !iu.pwrDirty {
		// Neither the mask nor any VC's active state changed since the
		// last application (flit arrivals cannot change a VC's supply
		// state: they require it powered already), so every on/powered
		// pair is unchanged.
		return
	}
	iu.pwrDirty = false
	mask := iu.power.Current() & n.vcAll
	busy := iu.activeMask | iu.occMask
	if bad := busy &^ mask; bad != 0 {
		panic(fmt.Sprintf("noc: power mask gates busy VC %d of node %d port %v",
			bits.TrailingZeros64(bad), iu.owner, iu.Port()))
	}
	on := mask | busy
	// Flush transitioning VCs (ascending, as the per-VC sweep did) under
	// their pre-transition supply state, then commit the new mask.
	for diff := on ^ iu.poweredMask; diff != 0; diff &= diff - 1 {
		iu.flushVC(n, bits.TrailingZeros64(diff), cycle-1)
	}
	iu.poweredMask = on
}

// flushNBTI closes the open accounting span of every VC up to and
// including upTo — the read-side barrier used before any tracker access.
func (iu *InputUnit) flushNBTI(n *Network, upTo uint64) {
	for vc := 0; vc < n.total; vc++ {
		iu.flushVC(n, vc, upTo)
	}
}

// publishMostDegraded samples the unit's sensors and sends the per-vnet
// most and least degraded VC over the Down_Up link, which holds them
// until the next sample. A change in either comparator output
// re-activates the upstream unit so it observes the new value after the
// one-cycle link delay.
func (iu *InputUnit) publishMostDegraded(n *Network) {
	ou := &n.ounits[iu.upUnit()]
	w := ou.vnets(n)
	for vn := range w {
		md, ld := iu.sweep(n, vn, true)
		if int(w[vn].nextMD) != md || int(w[vn].nextLD) != ld {
			n.wakeUnit(iu.up, iu.upSlot)
		}
		ou.mdIn.Send(w, vn, md, ld)
	}
	if iu.upSlot < uint8(NumPorts) && !ou.mdIn.settled() {
		n.routers[iu.up].mdPorts |= 1 << iu.upSlot
	}
}

// Writes returns the number of buffer-write events (flits received).
func (iu *InputUnit) Writes() uint64 { return iu.writes }

// Reads returns the number of buffer-read events (flits drained).
func (iu *InputUnit) Reads() uint64 { return iu.reads }

// bufferedFlits returns the total number of flits held across all VCs.
func (iu *InputUnit) bufferedFlits(n *Network) int {
	k := 0
	for _, b := range iu.bufs(n) {
		k += int(b.size)
	}
	return k
}

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
// in the owning InputUnit's fifo and devs windows, and its power state
// lives in the unit's poweredMask, so the network's buffer arena is a
// span the garbage collector never scans.
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

// slot returns the FIFO-window index of position pos of VC vc's ring:
// each VC owns depth consecutive slots, in VC order.
func (iu *InputUnit) slot(vc int, pos int32) int {
	return flatIndex(vc, int(iu.depth), int(pos))
}

func (iu *InputUnit) push(vc int, f flit) {
	b := &iu.vcs[vc]
	if b.size == iu.depth {
		panic("noc: VC buffer overflow (credit protocol violated)")
	}
	pos := b.head + b.size
	if pos >= iu.depth {
		pos -= iu.depth
	}
	iu.fifo[iu.slot(vc, pos)] = f
	b.size++
}

// peek returns the head flit of VC vc.
func (iu *InputUnit) peek(vc int) flit {
	b := &iu.vcs[vc]
	if b.size == 0 {
		panic("noc: peek on empty VC buffer")
	}
	return iu.fifo[iu.slot(vc, b.head)]
}

// pop removes and returns the head flit of VC vc.
func (iu *InputUnit) pop(vc int) flit {
	f := iu.peek(vc)
	b := &iu.vcs[vc]
	b.head++
	if b.head == iu.depth {
		b.head = 0
	}
	b.size--
	return f
}

// InputUnit is the set of VC buffers of one input port, downstream end
// of a channel. It receives flits and the Up_Down power commands, sends
// credits back, and hosts the NBTI sensor banks that drive the Down_Up
// link. Per-VC status is tracked in packed bitmasks (bit v = flattened
// VC v) so the router stages sweep set bits instead of scanning every
// VC.
type InputUnit struct {
	owner NodeID
	port  Port
	cfg   *Config
	//nbtilint:arena
	vcs []vcBuffer
	// fifo holds the VCs' flit rings, depth slots each in VC order;
	// devs holds the VCs' NBTI devices (their critical PMOS networks).
	// Both are windows of the network's flat arenas.
	//nbtilint:arena
	fifo []flit
	//nbtilint:arena
	devs []nbti.Device
	// flitIn is the inbound flit pipeline. The receiving end of every
	// channel is embedded in its reader so the per-cycle receive pass
	// touches only unit-resident cache lines; the upstream holds a
	// pointer (OutputUnit.flitOut).
	flitIn Pipeline[flit]
	// power is the downstream end of the Up_Down channel carrying the
	// desired power mask; the upstream writes through powerOut.
	power powerLink
	// creditOut returns freed buffer slots to the upstream output unit
	// (points at the upstream's embedded creditIn pipeline).
	creditOut *Pipeline[int]
	// mdOut is the Down_Up channel publishing the most degraded VC
	// (points at the upstream's embedded mdIn link).
	mdOut *mdLink
	// banks are the per-vnet sensor banks (nil when sensors disabled).
	//nbtilint:arena
	banks []sensor.Bank
	// writes and reads count buffer write/read events (flits in/out),
	// feeding the energy model.
	writes, reads uint64
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
	// vcAll has one bit per existing VC (TotalVCs low bits).
	vcAll uint64
	// pwrDirty marks that the next applyPower call can act: the Up_Down
	// mask ticked to a new value or a VC left the active state. While
	// clear, applyPower is a provable no-op and returns immediately.
	pwrDirty bool
	// depth is the flit capacity of each VC buffer.
	depth int32
	// occPorts/pendPorts/actPorts point at the owning router's
	// port-summary masks (nil for NI ejection units); portBit is this
	// unit's bit. The unit keeps each summary
	// exact across every empty <-> non-empty transition of occMask /
	// vaPendMask / activeMask.
	occPorts, pendPorts, actPorts *uint64
	portBit                       uint64
	// ownPow points at the owning router's powPorts summary (shares
	// portBit); popFlit arms it when a tail retire leaves a pending
	// applyPower. upCred/upMD point at the UPSTREAM router's credPorts
	// and mdPorts summaries (upBit is this channel's port bit there):
	// credit and Down_Up sends arm the upstream port so its next
	// receive pass processes them. All nil when the respective consumer
	// is not a port-gated router.
	ownPow, upCred, upMD *uint64
	upBit                uint64
	// clk points at the owning network's cycle counter so read accessors
	// can flush open accounting spans transparently; nil outside a
	// network (bare unit tests flush explicitly).
	clk *uint64
	// wakeUp re-activates the upstream unit on the network active-set
	// when this unit emits something the upstream must observe (a
	// credit, a changed Down_Up value); the zero waker outside a network.
	wakeUp waker
	// met points at the network's instruments for credit returns and
	// NBTI span flushes; all-nil handles when instrumentation is
	// disabled.
	met *unitMetrics
}

// unitMetrics are the input-unit instruments, resolved once per network
// and shared by all of its input units.
type unitMetrics struct {
	credits *metrics.Counter
	spans   nbti.SpanMetrics
}

// newUnitMetrics resolves the input-unit instruments from the process
// default registry.
func newUnitMetrics() unitMetrics {
	return unitMetrics{credits: creditsReturnedCounter(), spans: nbti.NewSpanMetrics()}
}

// initInputUnit initialises the zero input unit iu in place over
// caller-owned backing storage: vcs (TotalVCs buffers), fifo
// (TotalVCs*depth flits) and devs (TotalVCs devices), all typically
// subslices of the network's flat arenas, plus the flit pipeline's slot
// ring carved from st. vth0 supplies the per-VC initial threshold
// voltages; met the shared instruments.
func initInputUnit(iu *InputUnit, owner NodeID, port Port, cfg *Config,
	vcs []vcBuffer, fifo []flit, devs []nbti.Device, depth int, vth0 []float64,
	met *unitMetrics, st *unitStore) {
	total := cfg.TotalVCs()
	if len(vth0) != total {
		panic(fmt.Sprintf("noc: %d Vth0 samples for %d VCs", len(vth0), total))
	}
	iu.owner, iu.port, iu.cfg, iu.met = owner, port, cfg, met
	iu.vcs = vcs[:total:total]
	iu.fifo = window(fifo, 0, total*depth)
	iu.devs = devs[:total:total]
	iu.depth = int32(depth)
	iu.vcAll = vcAllMask(total)
	iu.power = powerLink{cur: ^uint64(0), next: ^uint64(0)}
	iu.flitIn.slots = take(&st.flitSlots, cfg.LinkLatency+cfg.PhitsPerFlit-1)
	for i := range iu.vcs {
		iu.devs[i] = nbti.Device{Vth0: vth0[i]}
		iu.vcs[i].outVC = -1
	}
	iu.poweredMask = iu.vcAll
	iu.pwrDirty = true
}

// vcAllMask returns the mask with the total low bits set.
func vcAllMask(total int) uint64 {
	if total >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(total) - 1
}

// flushVC charges VC vc's open accounting span up to and including cycle
// upTo with the buffer's current (powered, busy) state. Callers flush
// with upTo = cycle-1 immediately before mutating the supply state or
// the empty/non-empty status, so every cycle is charged with its
// end-of-cycle state exactly as the per-cycle accounting did.
func (iu *InputUnit) flushVC(vc int, upTo uint64) {
	b := &iu.vcs[vc]
	if upTo <= b.acc {
		return
	}
	n := upTo - b.acc
	b.acc = upTo
	tr := &iu.devs[vc].Tracker
	if iu.poweredMask>>uint(vc)&1 != 0 {
		busy := uint64(0)
		if b.size > 0 {
			busy = n
		}
		tr.Stress(n, busy)
		iu.met.spans.Stress(n)
	} else {
		tr.Recover(n)
		iu.met.spans.Recover(n)
	}
}

// attachSensors instantiates one sensor bank per vnet over the unit's
// device window, carving banks and noise sources from st. With read
// noise each bank splits one source off src and each of its sensors one
// off that (src may be nil for noiseless configs).
func (iu *InputUnit) attachSensors(cfg *sensor.Config, st *unitStore, src *rng.Source) error {
	per := iu.cfg.VCsPerVNet
	iu.banks = take(&st.banks, iu.cfg.VNets)
	for vn := range iu.banks {
		var noise []rng.Source
		if cfg.NoiseSigma > 0 {
			var bankSrc rng.Source
			src.SplitInto(&bankSrc)
			noise = take(&st.noise, per)
			for i := range noise {
				bankSrc.SplitInto(&noise[i])
			}
		}
		if err := iu.banks[vn].Init(window(iu.devs, vn, per), noise, &iu.cfg.NBTI, cfg); err != nil {
			return err
		}
	}
	return nil
}

// Port returns the input port this unit serves.
func (iu *InputUnit) Port() Port { return iu.port }

// NumVCs returns the flattened VC count.
func (iu *InputUnit) NumVCs() int { return len(iu.vcs) }

// Device returns the NBTI device of flattened VC vc, with the open
// accounting span flushed so the tracker is current. The device's Vth0
// is construction- or RestoreAging-time state: static sensor banks hold
// the ranking they took of it (see Network.nextSample), so callers must
// not rewrite it in place.
func (iu *InputUnit) Device(vc int) *nbti.Device {
	iu.flushVC(vc, *iu.clk)
	return &iu.devs[vc]
}

// Powered reports the current power state of flattened VC vc.
func (iu *InputUnit) Powered(vc int) bool { return iu.poweredMask>>uint(vc)&1 != 0 }

// VCStateOf returns the allocation state of flattened VC vc.
func (iu *InputUnit) VCStateOf(vc int) VCState { return iu.vcs[vc].state }

// Occupancy returns the number of buffered flits in flattened VC vc.
func (iu *InputUnit) Occupancy(vc int) int { return iu.vcs[vc].len() }

// bufferWrite performs the BW stage for an arriving flit. route gives
// the output port for head flits (RC); it is ignored for body/tail.
// A unit receives at most one flit per cycle: its one upstream output
// unit sends at most one per cycle (sendFlit's linkFreeAt), which
// headReady relies on.
func (iu *InputUnit) bufferWrite(f flit, cycle uint64, route Port) {
	bit := uint64(1) << f.vc
	vc := &iu.vcs[f.vc]
	if iu.poweredMask&bit == 0 {
		panic(fmt.Sprintf("noc: flit arrived at gated VC %d of node %d port %v",
			f.vc, iu.owner, iu.port))
	}
	if nbtiDebug && vc.size > 0 && vc.lastArrive == cycle {
		panic(fmt.Sprintf("noc: two flits written into VC %d of node %d port %v in cycle %d",
			f.vc, iu.owner, iu.port, cycle))
	}
	if f.typ.IsHead() {
		if vc.state != VCIdle {
			panic(fmt.Sprintf("noc: head flit into busy VC %d of node %d port %v (packet mixing)",
				f.vc, iu.owner, iu.port))
		}
		vc.state = VCActive
		vc.outPort = uint8(route)
		vc.outVC = -1
		iu.vaPendMask |= bit
		iu.activeMask |= bit
		if iu.pendPorts != nil {
			*iu.pendPorts |= iu.portBit
			*iu.actPorts |= iu.portBit
		}
	} else if vc.state != VCActive {
		panic("noc: body/tail flit into idle VC")
	}
	if vc.size == 0 {
		// Empty -> busy transition: close the idle-stress span.
		iu.flushVC(int(f.vc), cycle-1)
		iu.occMask |= bit
		if iu.occPorts != nil {
			*iu.occPorts |= iu.portBit
		}
	}
	iu.push(int(f.vc), f)
	vc.lastArrive = cycle
	iu.writes++
}

// popFlit removes the head flit of vc (the ST stage of the downstream
// router or the NI ejection drain), returns it, and sends a credit back
// upstream. When the tail leaves, the VC returns to idle.
func (iu *InputUnit) popFlit(vc int, cycle uint64) flit {
	bit := uint64(1) << uint(vc)
	b := &iu.vcs[vc]
	if b.size == 1 {
		// Busy -> empty transition: close the busy-stress span.
		iu.flushVC(vc, cycle-1)
		iu.occMask &^= bit
		if iu.occMask == 0 && iu.occPorts != nil {
			*iu.occPorts &^= iu.portBit
		}
	}
	f := iu.pop(vc)
	iu.reads++
	if f.typ.IsTail() {
		if b.outVC == -1 {
			// Only ejection VCs retire without a VA grant; router VCs
			// left vaPending at the grant.
			iu.vaPendMask &^= bit
			if iu.vaPendMask == 0 && iu.pendPorts != nil {
				*iu.pendPorts &^= iu.portBit
			}
		}
		b.state = VCIdle
		b.outVC = -1
		iu.activeMask &^= bit
		// The VC may now be gated by the current mask.
		iu.pwrDirty = true
		if iu.ownPow != nil {
			*iu.ownPow |= iu.portBit
			if iu.activeMask == 0 {
				*iu.actPorts &^= iu.portBit
			}
		}
	}
	iu.creditOut.Send(vc)
	if iu.upCred != nil {
		*iu.upCred |= iu.upBit
	}
	iu.met.credits.Inc()
	iu.wakeUp.wake()
	return f
}

// headReady reports whether vc has a flit at its FIFO head that finished
// its buffer-write stage before the given cycle (the one-cycle BW stage:
// a flit arriving at cycle t can be allocated/switched at t+1). A VC
// takes at most one flit per cycle (see bufferWrite), so with two or
// more buffered the head arrived before the latest write, hence before
// this cycle; a lone flit is the latest write itself.
func (iu *InputUnit) headReady(vc int, cycle uint64) bool {
	b := &iu.vcs[vc]
	return b.size > 1 || b.size == 1 && b.lastArrive < cycle
}

// applyPower enacts this cycle's Up_Down mask. The mask is authoritative
// for idle VCs; busy VCs are always powered (and the mask, being derived
// from the upstream outVCstate, always keeps them on — asserted here).
// The whole update is three mask operations plus one span flush per
// supply transition.
func (iu *InputUnit) applyPower(cycle uint64) {
	if !iu.pwrDirty {
		// Neither the mask nor any VC's active state changed since the
		// last application (flit arrivals cannot change a VC's supply
		// state: they require it powered already), so every on/powered
		// pair is unchanged.
		return
	}
	iu.pwrDirty = false
	mask := iu.power.Current() & iu.vcAll
	busy := iu.activeMask | iu.occMask
	if bad := busy &^ mask; bad != 0 {
		panic(fmt.Sprintf("noc: power mask gates busy VC %d of node %d port %v",
			bits.TrailingZeros64(bad), iu.owner, iu.port))
	}
	on := mask | busy
	// Flush transitioning VCs (ascending, as the per-VC sweep did) under
	// their pre-transition supply state, then commit the new mask.
	for diff := on ^ iu.poweredMask; diff != 0; diff &= diff - 1 {
		iu.flushVC(bits.TrailingZeros64(diff), cycle-1)
	}
	iu.poweredMask = on
}

// flushNBTI closes the open accounting span of every VC up to and
// including upTo — the read-side barrier used before any tracker access.
func (iu *InputUnit) flushNBTI(upTo uint64) {
	for i := range iu.vcs {
		iu.flushVC(i, upTo)
	}
}

// publishMostDegraded runs the sensor banks and sends the per-vnet most
// degraded VC over the Down_Up link. A change in either comparator
// output re-activates the upstream unit so it observes the new value
// after the one-cycle link delay.
func (iu *InputUnit) publishMostDegraded(cycle uint64) {
	if iu.banks == nil {
		return
	}
	for vn := range iu.banks {
		bank := &iu.banks[vn]
		md, ld := bank.MostDegraded(cycle), bank.LeastDegraded(cycle)
		if iu.mdOut.nextMD[vn] != md || iu.mdOut.nextLD[vn] != ld {
			iu.wakeUp.wake()
		}
		iu.mdOut.Send(vn, md, ld)
	}
	if iu.upMD != nil && !iu.mdOut.settled() {
		*iu.upMD |= iu.upBit
	}
}

// Writes returns the number of buffer-write events (flits received).
func (iu *InputUnit) Writes() uint64 { return iu.writes }

// Reads returns the number of buffer-read events (flits drained).
func (iu *InputUnit) Reads() uint64 { return iu.reads }

// bufferedFlits returns the total number of flits held across all VCs.
func (iu *InputUnit) bufferedFlits() int {
	n := 0
	for i := range iu.vcs {
		n += int(iu.vcs[i].size)
	}
	return n
}

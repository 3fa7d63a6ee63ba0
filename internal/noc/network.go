package noc

import (
	"fmt"
	"math"
	"math/bits"

	"nbtinoc/internal/nbti"
	"nbtinoc/internal/pv"
	"nbtinoc/internal/rng"
)

// Network is a complete mesh NoC instance: routers, network interfaces
// and all flit/credit/control channels, advanced one cycle at a time.
//
// All hot per-(router, port, vc) state lives in flat contiguous arenas
// owned by the network — routers, input/output units, VC buffers, flit
// FIFOs, NBTI devices, sensor noise sources, link rings, control-link
// values and packet slots are value slices. The packed index scheme is
//
//	unit slot = node*(NumPorts+1) + port   (port NumPorts = NI side)
//	vc slot   = unit slot*TotalVCs + vc
//
// so the active-set sweep walks memory nearly linearly instead of
// chasing per-unit heap objects. The router, unit and NI records are
// plain data: each finds its per-VC state, its neighbours and its router
// by index in these arenas, so every large arena is a span the garbage
// collector never scans.
//
// A network is confined to a single goroutine: units reach into each
// other's state with no synchronisation. The netshare analyzer enforces
// the confinement (the marker below is its root declaration), and
// sim.Pool's one-network-per-job pattern is the blessed way to use many
// networks in parallel.
//
//nbtilint:network single-goroutine simulation state root
type Network struct {
	cfg Config
	//nbtilint:arena
	routers []Router
	//nbtilint:arena
	nis []NI

	// Unit and VC-state arenas; see the packed index scheme above.
	// Channel endpoint state (flit/credit pipelines, Up_Down and Down_Up
	// links) is embedded in the unit that reads it — the writing end
	// finds it by its peer's slot — so the per-cycle receive pass touches
	// only the reader's own cache lines.
	//nbtilint:arena
	iunits []InputUnit
	//nbtilint:arena
	ounits []OutputUnit
	// The per-VC arenas hold pointer-free records, so the garbage
	// collector allocates them as no-scan spans and never walks them.
	//nbtilint:arena
	vcbufs []vcBuffer
	//nbtilint:arena
	outvcs []outVC
	//nbtilint:arena
	devices []nbti.Device
	// fifos holds the flit storage in groups of fifoGroup nodes; see
	// New.
	fifos [][]flit
	// flows holds each NI's flows, one per local-port VC, and queues its
	// per-vnet source queues, both per node.
	//nbtilint:arena
	flows []niFlow
	//nbtilint:arena
	queues []niQueue
	// noise holds one read-noise source per sensor, indexed like the
	// devices they read; nil for a noiseless sensor config.
	//nbtilint:arena
	noise []rng.Source
	// outvnets holds each output unit's per-vnet records, per unit slot:
	// among them the Down_Up link values, the one home of the sensors'
	// comparator outputs.
	//nbtilint:arena
	outvnets []outVNet
	// vaArbs holds each router's VA arbiters, per (output port, vnet).
	//nbtilint:arena
	vaArbs []RoundRobin
	// flits and credits are the ring storage of the flit and credit
	// pipelines, one ring per unit slot (each pipeline's ring sits at
	// the slot of the unit that reads it).
	flits   pipeRing[flit]
	credits pipeRing[uint8]
	// pkts holds the header of every packet between Inject and tail
	// ejection; source queues and flits carry its slot.
	pkts packetTable
	// coords is the NodeID -> Coord table, so RC is a load instead of a
	// div/mod per head flit.
	//nbtilint:arena
	coords []Coord
	// vaCands is the VA stage's candidate scratch, sized at construction
	// for the most requests one router can field.
	vaCands []vaCand
	// total is Config.TotalVCs, the VCs of a port, and vcAll has one bit
	// per VC (total low bits). Hot paths read the cached count: calling
	// the Config value method through the network copies the whole
	// Config.
	total int
	vcAll uint64

	// pol is the gating domain of Config.Policy; ejPol that of the
	// router→NI ejection channels, which is pol itself under
	// GateEjection and an always-on baseline domain otherwise.
	pol, ejPol *policyDomain

	cycle        uint64
	nextPacketID uint64
	vmap         *pv.VCMap

	// rtr and ni are the two-level active sets (activeset.go): bit id is
	// set while the unit must be stepped. Units clear their own bit when
	// quiescent; wake hooks (flit sends, mask/feedback changes,
	// injections) set it. Step snapshots both at the top of the cycle so
	// units woken mid-cycle join the sweep the following cycle, matching
	// the one-cycle link delays, and each phase iterates the snapshot's
	// set bits directly (ascending NodeID — a deterministic order by
	// construction).
	rtr, ni activeSet
	// nextSample is the next cycle whose sensor sweep executes, the
	// sensors' one clock; between samples the Down_Up links hold the
	// comparator outputs, so the publish phase is skipped. With a static
	// sensor config (sensor.Config.Static) every sweep after the first
	// is a provable no-op: each reading is its device's Vth0, so the
	// comparator outputs cannot change and the Down_Up links settle
	// after the first publish. elideSweeps networks
	// therefore set nextSample to sampleNever after each executed sweep;
	// RestoreAging, the only in-package writer of Vth0, re-arms it.
	// Skipping the sweep's span flush is exact too: splitting a span adds
	// the same integers, and every tracker reader flushes first.
	nextSample uint64
	// elideSweeps is set for static sensor configs. Tests clear it right
	// after New to obtain the reference that sweeps every period.
	elideSweeps bool
	// heldSample is the next modelled sample cycle whose elided sweep is
	// not yet accounted: the modelled hardware still samples, so the
	// sample counter advances arithmetically through it (and nbtidebug
	// builds re-check the held outputs there). sampleNever while sweeps
	// execute, or when nothing consumes it (no registry, normal build).
	heldSample uint64
	// sensors is the number of sensors one sweep reads.
	sensors uint64

	// deliverHook, when set, is invoked once per delivered packet (at
	// tail-flit ejection) — the attachment point for closed-loop traffic
	// generators such as request/response protocols.
	deliverHook func(f Flit, cycle uint64)
	// tracer, when set, receives flit-level pipeline events.
	tracer Tracer
	// met and unitMet hold the observability handles resolved at
	// construction (unitMet is shared by every unit); all-nil (one
	// branch per site) when instrumentation is disabled.
	met     netMetrics
	unitMet unitMetrics
	// latency is the full-latency (queue entry to tail ejection)
	// histogram of the packets ejected since the last traffic-stats
	// reset, across all NIs.
	latency LatencyHistogram
	// ffCycles counts cycles covered by RunUntil bulk jumps instead of
	// executed Steps (always maintained; the registry counter mirrors it
	// when instrumentation is on).
	ffCycles uint64
	// lastProgress is the most recent cycle in which any flit moved
	// (switch traversal, NI send, or ejection); it feeds the stall
	// watchdog used to flag livelocked policy configurations.
	lastProgress uint64
}

// ejPort is the pseudo-port index used for the NI-side unit slot of each
// node: the ejection input buffers and the injection output unit, and
// the index used when sampling their process variation.
const ejPort = int(NumPorts)

// sampleNever is the nextSample/heldSample value of a sweep that is not
// scheduled.
const sampleNever = math.MaxUint64

// fifoGroup is the number of nodes whose flit storage shares one
// allocation.
const fifoGroup = 64

// unitSlots is the per-node unit-arena stride: the five router ports
// plus the NI-side slot.
const unitSlots = int(NumPorts) + 1

// New builds a network from the configuration. The same PVSeed yields
// the same initial Vth values regardless of the policy, as the paper's
// methodology requires. Construction allocates no per-unit objects:
// every per-unit record and window lives in a flat arena sized for the
// whole network, so the count grows only with the flit storage groups
// (one per fifoGroup nodes).
func New(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.TotalVCs() > 64 {
		return nil, fmt.Errorf("noc: %d VCs per port exceeds the 64-bit power mask", cfg.TotalVCs())
	}
	n := &Network{cfg: cfg, met: newNetMetrics(), unitMet: newUnitMetrics()}
	nodes := cfg.Nodes()
	total, vnets := cfg.TotalVCs(), cfg.VNets
	n.total, n.vcAll = total, vcAllMask(total)
	n.vmap = pv.SampleNetwork(cfg.PV, cfg.PVSeed, nodes, unitSlots, total)

	// Unit arenas: slots for absent edge ports stay zero values (the
	// uniform stride keeps indexing branch-free; the waste is small).
	slots := nodes * unitSlots
	n.iunits = make([]InputUnit, slots)
	n.ounits = make([]OutputUnit, slots)
	n.vcbufs = make([]vcBuffer, slots*total)
	n.outvcs = make([]outVC, slots*total)
	n.devices = make([]nbti.Device, slots*total)
	n.outvnets = make([]outVNet, slots*vnets)
	n.vaArbs = make([]RoundRobin, nodes*int(NumPorts)*vnets)
	// A link carries at most one flit per cycle (sendFlit's linkFreeAt)
	// and returns at most one credit per pop: one per cycle from a
	// router input port, which switch allocation drains one flit at a
	// time, and up to EjectRate from an NI's ejection buffers — never
	// more than they hold.
	flitLat := cfg.LinkLatency + cfg.PhitsPerFlit - 1
	lens := make([]int32, slots*(flitLat+cfg.LinkLatency))
	n.flits = newPipeRing[flit](slots, flitLat, 1, &lens)
	n.credits = newPipeRing[uint8](slots, cfg.LinkLatency,
		min(cfg.EjectRate, total*cfg.EjectBufferDepth), &lens)
	// FIFO storage: router-port slots use BufferDepth, the NI-side slot
	// EjectBufferDepth. A slot is an 8-byte flit handle, so a 32×32 mesh
	// needs 0.8 MB, reached only through the units' windows. It comes in
	// groups of fifoGroup nodes: a long run's heap, with small long-lived
	// objects scattered through its freed pages, may have no hole for one
	// large block and map fresh pages for it. A single block still read
	// a higher peak RSS than the groups at 0.8 MB (DESIGN §11).
	nodeFifo := (int(NumPorts)*cfg.BufferDepth + cfg.EjectBufferDepth) * total
	n.fifos = make([][]flit, (nodes+fifoGroup-1)/fifoGroup)
	for g := range n.fifos {
		n.fifos[g] = make([]flit, min(fifoGroup, nodes-g*fifoGroup)*nodeFifo)
	}
	n.flows = make([]niFlow, nodes*total)
	n.queues = make([]niQueue, nodes*vnets)
	// The packet table starts with a slot per node and grows only when
	// more packets are queued or in flight at once than ever before.
	n.pkts.slots = make([]packet, 0, nodes)
	n.vaCands = make([]vaCand, 0, int(NumPorts)*total)

	n.pol = newPolicyDomain(cfg.Policy)
	n.ejPol = n.pol
	if !cfg.GateEjection {
		n.ejPol = newPolicyDomain(NewBaseline)
	}

	n.routers = make([]Router, nodes)
	n.nis = make([]NI, nodes)
	n.coords = make([]Coord, nodes)
	for id := 0; id < nodes; id++ {
		n.coords[id] = CoordOf(NodeID(id), cfg.Width)
	}
	for id := 0; id < nodes; id++ {
		node := NodeID(id)
		ports := uint64(1) << uint(Local)
		for _, dir := range [...]Port{North, East, South, West} {
			if _, ok := n.neighbour(n.coords[id], dir); ok {
				ports |= 1 << uint(dir)
			}
		}
		n.initRouter(node, ports)
		n.nis[id] = NI{id: node, flowArb: RoundRobin{n: total}, ejArb: RoundRobin{n: total}}

		// NI → router Local input port (gated like any router port), and
		// router Local output port → NI ejection buffers.
		n.initOutputUnit(node, ejPort, node, int(Local), cfg.BufferDepth)
		n.initInputUnit(node, int(Local), node, ejPort, cfg.BufferDepth, n.vmap.PortVths(id, int(Local)))
		n.initOutputUnit(node, int(Local), node, ejPort, cfg.EjectBufferDepth)
		n.initInputUnit(node, ejPort, node, int(Local), cfg.EjectBufferDepth, n.vmap.PortVths(id, ejPort))

		// Mesh links: the outgoing channel of each direction feeds the
		// neighbour's opposite input port.
		for _, dir := range [...]Port{North, East, South, West} {
			nb, ok := n.neighbour(n.coords[id], dir)
			if !ok {
				continue
			}
			in := dir.Opposite()
			n.initOutputUnit(node, int(dir), nb, int(in), cfg.BufferDepth)
			n.initInputUnit(nb, int(in), node, int(dir), cfg.BufferDepth, n.vmap.PortVths(int(nb), int(in)))
		}
	}

	// Every unit starts on the active set (and every present port on its
	// router's receive summary): the initial policy runs and gating
	// transitions must execute before a unit can prove itself quiescent
	// and drop off.
	for id := range n.routers {
		r := &n.routers[id]
		r.flitPorts, r.powPorts = r.ports, r.ports
		r.credPorts, r.mdPorts, r.polPorts = r.ports, r.ports, r.ports
		// The Local output is in the ejection domain, the mesh ports in
		// the policy domain.
		r.steadyAll = n.ejPol.steady && (r.ports == 1<<uint(Local) || n.pol.steady)
	}
	n.rtr, n.ni = newActiveSets(nodes)
	n.nextSample = 1
	n.heldSample = sampleNever
	n.elideSweeps = cfg.Sensor.Static()

	// Attach sensors to every input unit (router ports and NI ejection).
	// The iteration order fixes the rng split sequence and must not
	// change: nodes ascending, router ports 0..NumPorts-1, then the NI
	// ejection unit.
	if cfg.Sensor.NoiseSigma > 0 {
		n.noise = make([]rng.Source, slots*total)
	}
	sensorSrc := rng.New(cfg.SensorSeed)
	for id := range n.routers {
		r := &n.routers[id]
		ins, _ := r.units(n)
		for pm := r.ports; pm != 0; pm &= pm - 1 {
			ins[bits.TrailingZeros64(pm)].attachSensors(n, sensorSrc)
			n.sensors += uint64(total)
		}
		n.iunits[unitIndex(id, ejPort)].attachSensors(n, sensorSrc)
		n.sensors += uint64(total)
	}
	return n, nil
}

// fifoBase returns the offset of a unit slot's FIFO storage in its
// node group's block (n.fifos[node/fifoGroup]): router ports use
// BufferDepth flits per VC, the NI-side slot EjectBufferDepth. It is a
// packing helper in its own right — the FIFO storage's stride is
// per-node, not per-unit, because the two buffer depths differ.
//
//nbtilint:packed
func (n *Network) fifoBase(node, slot int) int {
	nodeFifo := (int(NumPorts)*n.cfg.BufferDepth + n.cfg.EjectBufferDepth) * n.total
	return node%fifoGroup*nodeFifo + slot*n.cfg.BufferDepth*n.total
}

// wakeUnit puts the router or NI owning unit slot (node, slot) on its
// active set: a router for slots below NumPorts, the NI for ejPort.
func (n *Network) wakeUnit(node NodeID, slot uint8) {
	if slot < uint8(NumPorts) {
		n.rtr.wake(int(node))
	} else {
		n.ni.wake(int(node))
	}
}

// neighbour returns the node id in direction dir from c, if it exists.
func (n *Network) neighbour(c Coord, dir Port) (NodeID, bool) {
	nc := c
	switch dir {
	case North:
		nc.Y--
	case South:
		nc.Y++
	case East:
		nc.X++
	case West:
		nc.X--
	}
	if nc.X < 0 || nc.X >= n.cfg.Width || nc.Y < 0 || nc.Y >= n.cfg.Height {
		return 0, false
	}
	return nc.NodeOf(n.cfg.Width), true
}

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Cycle returns the current cycle count.
func (n *Network) Cycle() uint64 { return n.cycle }

// Router returns router id.
func (n *Network) Router(id NodeID) *Router { return &n.routers[id] }

// Input returns the input unit at port p of router node (nil on mesh
// edges).
func (n *Network) Input(node NodeID, p Port) *InputUnit {
	r := &n.routers[node]
	if r.ports>>uint(p)&1 == 0 {
		return nil
	}
	ins, _ := r.units(n)
	return &ins[p]
}

// Output returns the output unit at port p of router node (nil on mesh
// edges).
func (n *Network) Output(node NodeID, p Port) *OutputUnit {
	r := &n.routers[node]
	if r.ports>>uint(p)&1 == 0 {
		return nil
	}
	_, outs := r.units(n)
	return &outs[p]
}

// Device returns the NBTI device of flattened VC vc of router input
// port p at node, with the open accounting span flushed so the tracker
// is current. The device's Vth0 is construction- or RestoreAging-time
// state: a static network's Down_Up links hold the ranking its sensors
// took of it (see nextSample), so callers must not rewrite it in place.
func (n *Network) Device(node NodeID, p Port, vc int) *nbti.Device {
	ins, _ := n.routers[node].units(n)
	return ins[p].device(n, vc)
}

// NI returns the network interface of node id.
func (n *Network) NI(id NodeID) *NI { return &n.nis[id] }

// Nodes returns the node count.
func (n *Network) Nodes() int { return len(n.routers) }

// SetDeliveryHook registers fn to be called on every packet delivery
// (tail-flit ejection at the destination NI). Pass nil to clear. The
// hook runs synchronously inside Step; it must not call Step or Inject
// re-entrantly (queue follow-up packets and inject them next cycle).
func (n *Network) SetDeliveryHook(fn func(f Flit, cycle uint64)) {
	n.deliverHook = fn
}

// Inject enqueues a packet for injection at src. The packet is assigned
// a network-unique id and stamped with the current cycle.
func (n *Network) Inject(src, dst NodeID, vnet, length int) error {
	if int(src) < 0 || int(src) >= len(n.nis) {
		return fmt.Errorf("noc: source node %d out of range", src)
	}
	if int(dst) < 0 || int(dst) >= len(n.nis) {
		return fmt.Errorf("noc: destination node %d out of range", dst)
	}
	if src == dst {
		return fmt.Errorf("noc: self-addressed packet at node %d", src)
	}
	slot, err := n.nis[src].inject(n, dst, vnet, length)
	if err != nil {
		return err
	}
	n.ni.wake(int(src))
	if n.tracer != nil {
		n.trace(EvInject, src, Local, -1, n.pkts.export(flit{pkt: slot, typ: HeadFlit}))
	}
	n.nextPacketID++
	return nil
}

// Step advances the network by one cycle. The cycle is split into a
// receive pass and a compute pass: the receive pass lands every
// control/credit/flit delivery (link ticks, credit returns, BW/RC,
// power-mask application), then the compute pass executes last cycle's
// switch grants (ST), this cycle's allocations (VA/SA), the NI drains
// and launches, and the pre-VA recovery policies. The split is exact
// because all cross-unit communication flows through links with at
// least one cycle of delay: receive passes only consume from channels
// and compute passes only send into them, so within a pass the unit
// order cannot matter — which lets each pass run fused per unit (one
// cache-resident visit) instead of one sweep per pipeline stage.
// Finally the sensors sample at their due cycles (NBTI accounting
// itself is span-batched and flushed lazily). Each pass sweeps the set
// bits of this cycle's active-set snapshot in ascending id order; see
// activeset.go for why skipping the rest is exact.
func (n *Network) Step() {
	n.cycle++
	cycle := n.cycle

	nRtr, nNI := n.rtr.snapshot(), n.ni.snapshot()
	n.met.cycles.Inc()
	n.met.routersActive.Add(uint64(nRtr))
	n.met.routersSkipped.Add(uint64(len(n.routers) - nRtr))
	n.met.nisActive.Add(uint64(nNI))
	n.met.nisSkipped.Add(uint64(len(n.nis) - nNI))

	// Every pass visits the snapshot's members in ascending NodeID order.
	rtr, ni := &n.rtr, &n.ni
	rtr.each(func(id int) { n.routers[id].phaseRecv(n, cycle) })
	ni.each(func(id int) { n.nis[id].phaseRecv(n, cycle) })
	rtr.each(func(id int) { n.routers[id].phaseCompute(n, cycle) })
	ni.each(func(id int) { n.nis[id].phaseCompute(n, cycle) })
	if cycle == n.nextSample {
		n.sampleSweep(cycle)
	} else if cycle == n.heldSample {
		n.holdSamples(cycle)
	}
	rtr.each(func(id int) {
		if n.routers[id].quiescent() {
			rtr.sleep(id)
		}
	})
	ni.each(func(id int) {
		if n.nis[id].quiescent(n) {
			ni.sleep(id)
		}
	})
	if nbtiDebug {
		n.debugCheckSkipped()
	}
}

// sampleSweep samples every unit's sensors, active or not: sensor
// cadence is global, and a changed comparator output wakes the upstream
// consumer. A static network then stops sweeping (see nextSample).
func (n *Network) sampleSweep(cycle uint64) {
	for i := range n.routers {
		n.routers[i].samplePhase(n, cycle)
	}
	for i := range n.nis {
		n.nis[i].samplePhase(n, cycle)
	}
	n.met.sensorSamples.Add(n.sensors)
	period := n.cfg.Sensor.SamplePeriod
	if !n.elideSweeps {
		n.nextSample += period
		return
	}
	n.nextSample = sampleNever
	if n.met.sensorSamples != nil || nbtiDebug {
		n.heldSample = cycle + period
	}
}

// holdSamples accounts the elided sweeps of a static network at every
// modelled sample cycle from heldSample through upTo: the sample
// counter advances as if each had run, and nbtidebug builds re-sweep
// the sensors to prove the held outputs are what a sweep would publish.
func (n *Network) holdSamples(upTo uint64) {
	period := n.cfg.Sensor.SamplePeriod
	k := (upTo-n.heldSample)/period + 1
	n.heldSample += k * period
	n.met.sensorSamples.Add(k * n.sensors)
	if nbtiDebug {
		n.debugCheckHeld()
	}
}

// Run advances the network by cycles steps.
func (n *Network) Run(cycles uint64) {
	for i := uint64(0); i < cycles; i++ {
		n.Step()
	}
}

// Idle reports whether both active sets are empty. Because a unit only
// leaves its set by proving quiescent() — steady policy, settled links,
// empty pipelines and buffers, no queued packets — empty sets mean the
// next Step would be a pure no-op apart from sensor sampling, which is
// exactly the condition under which RunUntil may jump the clock.
func (n *Network) Idle() bool {
	return n.rtr.empty() && n.ni.empty()
}

// FastForwardedCycles returns the number of simulated cycles covered by
// bulk RunUntil jumps rather than executed Steps.
func (n *Network) FastForwardedCycles() uint64 { return n.ffCycles }

// RunUntil advances the network until its cycle counter reaches target,
// fast-forwarding over provably idle spans. While the active sets are
// empty every skipped cycle is a no-op by construction: no flit, credit
// or control message is in flight, every link is settled, every policy
// steady, and NBTI accounting is span-batched so the skipped recovery
// span is charged exactly when the next flush closes it. The one global
// exception is an executing sensor sweep, so jumps land just before
// nextSample (or target) and execute that cycle as a real Step — whose
// sample sweep may wake units, degrading gracefully to cycle-by-cycle
// stepping until the network is idle again. A static network schedules
// no sweep after its first (see nextSample), so it jumps straight to
// target. Equivalence with calling Step target-cycle times is pinned by
// tests and the nbtidebug build.
func (n *Network) RunUntil(target uint64) {
	for n.cycle < target {
		if !n.Idle() {
			n.Step()
			continue
		}
		next := target
		if n.nextSample < next {
			next = n.nextSample
		}
		if skip := next - n.cycle - 1; skip > 0 {
			n.cycle += skip
			n.ffCycles += skip
			// The stall watchdog measures from the end of the jump: an
			// idle span is not a livelock.
			n.lastProgress = n.cycle
			n.met.cycles.Add(skip)
			n.met.ffCycles.Add(skip)
			n.met.routersSkipped.Add(skip * uint64(len(n.routers)))
			n.met.nisSkipped.Add(skip * uint64(len(n.nis)))
			if n.cycle >= n.heldSample {
				n.holdSamples(n.cycle)
			}
		}
		n.Step()
	}
}

// noteProgress records that a flit moved this cycle.
func (n *Network) noteProgress() { n.lastProgress = n.cycle }

// StalledFor returns the number of cycles since a flit last moved.
func (n *Network) StalledFor() uint64 { return n.cycle - n.lastProgress }

// Stalled reports whether traffic is pending but nothing has moved for
// at least threshold cycles — the signature of a livelocked recovery
// policy (e.g. a round-robin rotation period shorter than the
// sleep-transistor wake-up latency).
func (n *Network) Stalled(threshold uint64) bool {
	if n.Quiescent() {
		return false
	}
	return n.StalledFor() >= threshold
}

// InFlightFlits returns the number of flits buffered or on links.
func (n *Network) InFlightFlits() int {
	total := 0
	// Every flit pipeline is embedded in exactly one input unit, so the
	// unit arena covers all links (unwired edge slots hold empty pipes).
	for i := range n.iunits {
		total += n.iunits[i].flitIn.InFlight()
	}
	for i := range n.routers {
		total += n.routers[i].bufferedFlits(n)
	}
	for i := range n.nis {
		ni := &n.nis[i]
		_, ej := ni.units(n)
		total += ej.bufferedFlits(n) + ni.pendingFlits(n)
	}
	return total
}

// Quiescent reports whether no packet is queued, buffered or in flight.
func (n *Network) Quiescent() bool {
	for i := range n.nis {
		if n.nis[i].QueuedPackets() > 0 {
			return false
		}
	}
	return n.InFlightFlits() == 0
}

// flushNBTI closes every open accounting span in the network (router
// input and NI ejection buffers) up to the current cycle — the
// network-level read barrier before any bulk tracker access.
func (n *Network) flushNBTI() {
	for i := range n.routers {
		r := &n.routers[i]
		ins, _ := r.units(n)
		for pm := r.ports; pm != 0; pm &= pm - 1 {
			ins[bits.TrailingZeros64(pm)].flushNBTI(n, n.cycle)
		}
	}
	for i := range n.nis {
		_, ej := n.nis[i].units(n)
		ej.flushNBTI(n, n.cycle)
	}
}

// ResetNBTIStats clears all NBTI stress trackers (end of warm-up). Open
// spans are flushed first so the span origin advances to the current
// cycle; the flushed charges are then discarded with the rest. The
// device arena holds every router input and NI ejection device (absent
// edge-port slots are zero), so the reset walks it directly.
func (n *Network) ResetNBTIStats() {
	n.flushNBTI()
	for i := range n.devices {
		n.devices[i].Tracker.Reset()
	}
}

// EventCounts aggregates the microarchitectural event counters used by
// the energy model.
type EventCounts struct {
	// BufferWrites/BufferReads are flit buffer accesses across all
	// router input units (NI ejection buffers excluded).
	BufferWrites, BufferReads uint64
	// CrossbarTraversals counts router ST events.
	CrossbarTraversals uint64
	// VAGrants and SAGrants count allocator operations.
	VAGrants, SAGrants uint64
	// LinkFlits counts flits launched onto links (router and NI output
	// units).
	LinkFlits uint64
	// GateEvents and WakeEvents count sleep-transistor transitions.
	GateEvents, WakeEvents uint64
	// StressCycles and RecoveryCycles aggregate powered/gated
	// buffer-cycles across all router input VCs.
	StressCycles, RecoveryCycles uint64
}

// Events returns the aggregated event counters since the last reset.
func (n *Network) Events() EventCounts {
	n.flushNBTI()
	var e EventCounts
	for i := range n.routers {
		r := &n.routers[i]
		ins, outs := r.units(n)
		e.CrossbarTraversals += r.stFlits
		e.VAGrants += r.vaGrants
		e.SAGrants += r.saGrants
		for pm := r.ports; pm != 0; pm &= pm - 1 {
			p := Port(bits.TrailingZeros64(pm))
			iu, ou := &ins[p], &outs[p]
			e.BufferWrites += iu.writes
			e.BufferReads += iu.reads
			for _, d := range iu.devs(n) {
				e.StressCycles += d.Tracker.StressCycles()
				e.RecoveryCycles += d.Tracker.RecoveryCycles()
			}
			e.LinkFlits += ou.flitsSent
		}
	}
	for i := range n.nis {
		out, _ := n.nis[i].units(n)
		e.LinkFlits += out.flitsSent
	}
	e.GateEvents, e.WakeEvents = n.pol.gateEvents, n.pol.wakeEvents
	if n.ejPol != n.pol {
		e.GateEvents += n.ejPol.gateEvents
		e.WakeEvents += n.ejPol.wakeEvents
	}
	return e
}

// ResetEventCounters clears the microarchitectural event counters.
func (n *Network) ResetEventCounters() {
	for i := range n.routers {
		r := &n.routers[i]
		ins, outs := r.units(n)
		r.stFlits, r.vaGrants, r.saGrants = 0, 0, 0
		for pm := r.ports; pm != 0; pm &= pm - 1 {
			p := Port(bits.TrailingZeros64(pm))
			ins[p].writes, ins[p].reads = 0, 0
			outs[p].flitsSent = 0
		}
	}
	for i := range n.nis {
		out, ej := n.nis[i].units(n)
		out.flitsSent = 0
		ej.writes, ej.reads = 0, 0
	}
	n.pol.gateEvents, n.pol.wakeEvents = 0, 0
	n.ejPol.gateEvents, n.ejPol.wakeEvents = 0, 0
}

// ResetTrafficStats clears all NI traffic statistics and the network's
// latency histogram.
func (n *Network) ResetTrafficStats() {
	for i := range n.nis {
		n.nis[i].stats = NIStats{}
	}
	n.latency.Reset()
}

// DutyCycle returns the NBTI-duty-cycle (percent) of a router input VC.
func (n *Network) DutyCycle(node NodeID, port Port, vc int) float64 {
	return n.Device(node, port, vc).Tracker.DutyCycle()
}

// MostDegradedVC returns the most degraded VC (index within the vnet
// slice) of a router input port, as the port's comparator last sent it
// over the Down_Up link: the value the upstream output unit takes into
// effect. The read never samples. Before the first Step no sweep has run
// yet, so the port's sensors are ranked noiselessly on the spot.
func (n *Network) MostDegradedVC(node NodeID, port Port, vnet int) int {
	ins, _ := n.routers[node].units(n)
	iu := &ins[port]
	if n.cycle == 0 {
		md, _ := iu.sweep(n, vnet, false)
		return md
	}
	return int(n.ounits[iu.upUnit()].vnets(n)[vnet].nextMD)
}

// Vth0 returns the process-variation initial threshold voltage sampled
// for a router input VC.
func (n *Network) Vth0(node NodeID, port Port, vc int) float64 {
	return n.vmap.At(int(node), int(port), vc)
}

// LatencyHistogramAll returns the full-latency histogram of the packets
// ejected by all NIs since the last traffic-stats reset.
func (n *Network) LatencyHistogramAll() LatencyHistogram { return n.latency }

// TotalEjectedPackets sums ejected packets across all NIs.
func (n *Network) TotalEjectedPackets() uint64 {
	var total uint64
	for i := range n.nis {
		total += n.nis[i].stats.EjectedPackets
	}
	return total
}

// TotalInjectedPackets sums packets accepted into source queues.
func (n *Network) TotalInjectedPackets() uint64 {
	var total uint64
	for i := range n.nis {
		total += n.nis[i].stats.InjectedPackets
	}
	return total
}

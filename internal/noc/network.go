package noc

import (
	"fmt"
	"math"
	"math/bits"

	"nbtinoc/internal/nbti"
	"nbtinoc/internal/pv"
	"nbtinoc/internal/rng"
	"nbtinoc/internal/sensor"
)

// Network is a complete mesh NoC instance: routers, network interfaces
// and all flit/credit/control channels, advanced one cycle at a time.
//
// All hot per-(router, port, vc) state lives in flat contiguous arenas
// owned by the network — routers, NIs, input/output units, VC buffers,
// flit FIFOs, NBTI devices, link pipelines and control links are value
// slices, and units hold subslices into them. The packed index scheme is
//
//	unit slot = node*(NumPorts+1) + port   (port NumPorts = NI side)
//	vc slot   = unit slot*TotalVCs + vc
//
// so the active-set sweep walks memory nearly linearly instead of
// chasing per-unit heap objects.
//
// A network is confined to a single goroutine: units reach into each
// other's state through bare back-pointers with no synchronisation.
// The netshare analyzer enforces the confinement (the marker below is
// its root declaration), and sim.Pool's one-network-per-job pattern is
// the blessed way to use many networks in parallel.
//
//nbtilint:network single-goroutine simulation state root
type Network struct {
	cfg     Config
	routers []Router
	nis     []NI

	// Unit and VC-state arenas; see the packed index scheme above.
	// Channel endpoint state (flit/credit pipelines, Up_Down and Down_Up
	// links) is embedded in the unit that reads it — the writing end
	// holds a pointer — so the per-cycle receive pass touches only the
	// reader's own cache lines.
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
	//nbtilint:arena
	flows []niFlow
	// pkts holds the header of every packet between NI-VA and tail
	// ejection; flits carry its slot.
	pkts packetTable

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
	// nextSample is the next cycle whose sensor sweep executes; between
	// samples the banks hold their outputs, so the publish phase is
	// skipped. With a static sensor config (sensor.Config.Static) every
	// sweep after the first is a provable no-op: each reading is its
	// device's Vth0, so the comparator outputs cannot change and the
	// Down_Up links settle after the first publish. elideSweeps networks
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
	// construction (unitMet is shared by every input unit); all-nil (one
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
// every per-unit slice is a window of a flat arena or of the unitStore
// sized for the whole network, so the count grows only with the flit
// storage groups (one per fifoGroup nodes).
func New(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.TotalVCs() > 64 {
		return nil, fmt.Errorf("noc: %d VCs per port exceeds the 64-bit power mask", cfg.TotalVCs())
	}
	n := &Network{cfg: cfg, met: newNetMetrics(), unitMet: newUnitMetrics()}
	nodes := cfg.Nodes()
	total := cfg.TotalVCs()
	n.vmap = pv.SampleNetwork(cfg.PV, cfg.PVSeed, nodes, unitSlots, total)

	// Unit arenas: slots for absent edge ports stay zero values (the
	// uniform stride keeps indexing branch-free; the waste is small).
	slots := nodes * unitSlots
	n.iunits = make([]InputUnit, slots)
	n.ounits = make([]OutputUnit, slots)
	n.vcbufs = make([]vcBuffer, slots*total)
	n.outvcs = make([]outVC, slots*total)
	n.devices = make([]nbti.Device, slots*total)
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
	// The packet table starts with a slot per node and grows only when
	// more packets are in flight at once than ever before.
	n.pkts.slots = make([]packet, 0, nodes)

	n.pol = newPolicyDomain(cfg.Policy)
	n.ejPol = n.pol
	if !cfg.GateEjection {
		n.ejPol = newPolicyDomain(NewBaseline)
	}
	st := newUnitStore(&n.cfg, nodes)

	n.routers = make([]Router, nodes)
	n.nis = make([]NI, nodes)
	coords := make([]Coord, nodes)
	for id := 0; id < nodes; id++ {
		coords[id] = CoordOf(NodeID(id), cfg.Width)
	}
	for id := 0; id < nodes; id++ {
		initRouter(&n.routers[id], NodeID(id), coords[id], &n.cfg, st)
		n.routers[id].net = n
		n.routers[id].coords = coords
		initNI(&n.nis[id], NodeID(id), &n.cfg, window(n.flows, id, total), st)
		n.nis[id].net = n
	}

	for id := 0; id < nodes; id++ {
		r := &n.routers[id]
		ni := &n.nis[id]
		rtrWaker, niWaker := waker{&n.rtr, id}, waker{&n.ni, id}

		// NI → router Local input port (gated like any router port).
		ni.out = n.initOU(id, ejPort, NodeID(id), Local, cfg.BufferDepth, n.pol, st)
		r.in[Local] = n.initIU(id, int(Local), NodeID(id), Local, cfg.BufferDepth,
			n.vmap.PortVths(id, int(Local)), st)
		n.connect(ni.out, r.in[Local])
		ni.out.wakeDown = rtrWaker
		ni.out.dnFlit, ni.out.dnPow, ni.out.dnBit = &r.flitPorts, &r.powPorts, 1<<uint(Local)
		r.in[Local].wakeUp = niWaker

		// Router Local output port → NI ejection buffers.
		r.out[Local] = n.initOU(id, int(Local), NodeID(id), Local, cfg.EjectBufferDepth, n.ejPol, st)
		ni.ej = n.initIU(id, ejPort, NodeID(id), Local, cfg.EjectBufferDepth,
			n.vmap.PortVths(id, ejPort), st)
		n.connect(r.out[Local], ni.ej)
		r.out[Local].wakeDown = niWaker
		ni.ej.wakeUp = rtrWaker
		ni.ej.upCred, ni.ej.upMD, ni.ej.upBit = &r.credPorts, &r.mdPorts, 1<<uint(Local)

		// Mesh links: create the outgoing channel for each direction.
		c := r.Coord()
		for _, dir := range [...]Port{North, East, South, West} {
			nb, ok := n.neighbour(c, dir)
			if !ok {
				continue
			}
			down := &n.routers[nb]
			inPort := dir.Opposite()
			r.out[dir] = n.initOU(id, int(dir), NodeID(id), dir, cfg.BufferDepth, n.pol, st)
			down.in[inPort] = n.initIU(int(nb), int(inPort), nb, inPort, cfg.BufferDepth,
				n.vmap.PortVths(int(nb), int(inPort)), st)
			n.connect(r.out[dir], down.in[inPort])
			r.out[dir].wakeDown = waker{&n.rtr, int(nb)}
			r.out[dir].dnFlit, r.out[dir].dnPow, r.out[dir].dnBit = &down.flitPorts, &down.powPorts, 1<<uint(inPort)
			down.in[inPort].wakeUp = rtrWaker
			down.in[inPort].upCred, down.in[inPort].upMD, down.in[inPort].upBit = &r.credPorts, &r.mdPorts, 1<<uint(dir)
		}
	}

	// Every unit starts on the active set (and every present port on its
	// router's receive summary): the initial policy runs and gating
	// transitions must execute before a unit can prove itself quiescent
	// and drop off.
	for id := 0; id < nodes; id++ {
		r := &n.routers[id]
		r.steadyAll = true
		for p := Port(0); p < NumPorts; p++ {
			if r.in[p] != nil {
				r.flitPorts |= 1 << uint(p)
				r.powPorts |= 1 << uint(p)
			}
			if r.out[p] != nil {
				r.credPorts |= 1 << uint(p)
				r.mdPorts |= 1 << uint(p)
				r.polPorts |= 1 << uint(p)
				r.steadyAll = r.steadyAll && r.out[p].pol.steady
			}
		}
	}
	n.rtr = newActiveSet(nodes)
	n.ni = newActiveSet(nodes)
	n.nextSample = 1
	n.heldSample = sampleNever
	n.elideSweeps = cfg.Sensor.Static()

	// Attach sensors to every input unit (router ports and NI ejection).
	// The iteration order fixes the rng split sequence and must not
	// change: nodes ascending, router ports 0..NumPorts-1, then the NI
	// ejection unit.
	sensorSrc := rng.New(cfg.SensorSeed)
	for id := 0; id < nodes; id++ {
		for p := Port(0); p < NumPorts; p++ {
			if iu := n.routers[id].in[p]; iu != nil {
				if err := iu.attachSensors(&n.cfg.Sensor, st, sensorSrc); err != nil {
					return nil, err
				}
				n.sensors += uint64(total)
			}
		}
		if err := n.nis[id].ej.attachSensors(&n.cfg.Sensor, st, sensorSrc); err != nil {
			return nil, err
		}
		n.sensors += uint64(total)
	}
	return n, nil
}

// unitStore is the construction-time backing of every per-unit slice
// outside the packed hot-state arenas: allocation pointers, Down_Up
// link values, link pipeline slot rings, VA arbiters, source queues,
// sensor banks and their noise sources. New sizes it
// once for the whole network, so wiring carves each unit's windows with
// take instead of allocating them.
type unitStore struct {
	ints        []int
	flitSlots   [][]flit
	creditSlots [][]int
	arbs        []RoundRobin
	queues      [][]Packet
	banks       []sensor.Bank
	noise       []rng.Source
}

// newUnitStore sizes a store for a nodes-node network. Sizes are per
// unit slot, absent edge ports included, like the hot-state arenas.
func newUnitStore(cfg *Config, nodes int) *unitStore {
	slots := nodes * unitSlots
	vnets, total := cfg.VNets, cfg.TotalVCs()
	st := &unitStore{
		// Per output unit: allocPtr plus the four Down_Up link values.
		ints:        make([]int, slots*5*vnets),
		flitSlots:   make([][]flit, slots*(cfg.LinkLatency+cfg.PhitsPerFlit-1)),
		creditSlots: make([][]int, slots*cfg.LinkLatency),
		arbs:        make([]RoundRobin, nodes*int(NumPorts)*vnets),
		queues:      make([][]Packet, nodes*vnets),
		banks:       make([]sensor.Bank, slots*vnets),
	}
	if cfg.Sensor.NoiseSigma > 0 {
		st.noise = make([]rng.Source, slots*total)
	}
	return st
}

// fifoOf returns the FIFO storage of a unit slot: router ports use
// BufferDepth flits per VC, the NI-side slot EjectBufferDepth. It is a
// packing helper in its own right — the FIFO storage's stride is
// per-node, not per-unit, because the two buffer depths differ.
//
//nbtilint:packed
func (n *Network) fifoOf(node, slot int) []flit {
	total := n.cfg.TotalVCs()
	nodeFifo := (int(NumPorts)*n.cfg.BufferDepth + n.cfg.EjectBufferDepth) * total
	group := n.fifos[node/fifoGroup]
	base := node % fifoGroup * nodeFifo
	var off, size int
	if slot < int(NumPorts) {
		off = slot * n.cfg.BufferDepth * total
		size = n.cfg.BufferDepth * total
	} else {
		off = int(NumPorts) * n.cfg.BufferDepth * total
		size = n.cfg.EjectBufferDepth * total
	}
	return group[base+off : base+off+size : base+off+size]
}

// initIU initialises the input unit at arena slot (node, slot) over its
// arena subslices and returns it. Router-port slots (slot < NumPorts)
// are wired into their router's port-summary masks; the NI ejection
// slot has no router and leaves the back pointers nil.
func (n *Network) initIU(node, slot int, owner NodeID, port Port, depth int, vth0 []float64, st *unitStore) *InputUnit {
	total := n.cfg.TotalVCs()
	u := unitIndex(node, slot)
	iu := &n.iunits[u]
	initInputUnit(iu, owner, port, &n.cfg,
		window(n.vcbufs, u, total), n.fifoOf(node, slot),
		window(n.devices, u, total), depth, vth0, &n.unitMet, st)
	iu.clk = &n.cycle
	if slot < int(NumPorts) {
		r := &n.routers[node]
		iu.occPorts = &r.occPorts
		iu.pendPorts = &r.pendPorts
		iu.actPorts = &r.busyIn
		iu.ownPow = &r.powPorts
		iu.portBit = 1 << uint(slot)
	}
	return iu
}

// initOU initialises the output unit at arena slot (node, slot) over its
// arena subslice and returns it.
func (n *Network) initOU(node, slot int, owner NodeID, port Port, depth int, pol *policyDomain, st *unitStore) *OutputUnit {
	total := n.cfg.TotalVCs()
	u := unitIndex(node, slot)
	ou := &n.ounits[u]
	initOutputUnit(ou, owner, port, &n.cfg, window(n.outvcs, u, total), depth, pol, st)
	if slot < int(NumPorts) {
		r := &n.routers[node]
		ou.ownPol = &r.polPorts
		ou.ownAct = &r.busyOut
		ou.ownPolBit = 1 << uint(slot)
	}
	return ou
}

// connect wires an upstream output unit to a downstream input unit.
// Each channel's endpoint state is embedded in its reader (flit pipeline
// and power link in the input unit, credit pipeline and Down_Up link in
// the output unit), so wiring is pure pointer exchange.
func (n *Network) connect(ou *OutputUnit, iu *InputUnit) {
	ou.flitOut = &iu.flitIn
	ou.powerOut = &iu.power
	iu.creditOut = &ou.creditIn
	iu.mdOut = &ou.mdIn
	iu.clk = &n.cycle
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
	p := Packet{
		ID:          n.nextPacketID,
		Src:         src,
		Dst:         dst,
		VNet:        vnet,
		Len:         length,
		InjectCycle: n.cycle,
	}
	if err := n.nis[src].inject(p); err != nil {
		return err
	}
	n.ni.wake(int(src))
	if n.tracer != nil {
		n.trace(EvInject, src, Local, -1, Flit{
			PacketID: p.ID, Src: src, Dst: dst, VNet: int32(vnet),
			Type: HeadFlit, Len: int32(length), InjectCycle: n.cycle,
		})
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
// Finally the sensor banks sample at their due cycles (NBTI accounting
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

	// Every loop below walks the snapshot summary's set bits, then the
	// set bits of each summarised word: ascending NodeID order.
	rtr, ni := &n.rtr, &n.ni
	for i, sw := range rtr.snapSum {
		for sb := sw; sb != 0; sb &= sb - 1 {
			w := i<<6 + bits.TrailingZeros64(sb)
			for b := rtr.snap[w]; b != 0; b &= b - 1 {
				n.routers[w<<6+bits.TrailingZeros64(b)].phaseRecv(cycle)
			}
		}
	}
	for i, sw := range ni.snapSum {
		for sb := sw; sb != 0; sb &= sb - 1 {
			w := i<<6 + bits.TrailingZeros64(sb)
			for b := ni.snap[w]; b != 0; b &= b - 1 {
				n.nis[w<<6+bits.TrailingZeros64(b)].phaseRecv(cycle)
			}
		}
	}
	for i, sw := range rtr.snapSum {
		for sb := sw; sb != 0; sb &= sb - 1 {
			w := i<<6 + bits.TrailingZeros64(sb)
			for b := rtr.snap[w]; b != 0; b &= b - 1 {
				n.routers[w<<6+bits.TrailingZeros64(b)].phaseCompute(cycle)
			}
		}
	}
	for i, sw := range ni.snapSum {
		for sb := sw; sb != 0; sb &= sb - 1 {
			w := i<<6 + bits.TrailingZeros64(sb)
			for b := ni.snap[w]; b != 0; b &= b - 1 {
				n.nis[w<<6+bits.TrailingZeros64(b)].phaseCompute(cycle)
			}
		}
	}
	if cycle == n.nextSample {
		n.sampleSweep(cycle)
	} else if cycle == n.heldSample {
		n.holdSamples(cycle)
	}
	for i, sw := range rtr.snapSum {
		for sb := sw; sb != 0; sb &= sb - 1 {
			w := i<<6 + bits.TrailingZeros64(sb)
			for b := rtr.snap[w]; b != 0; b &= b - 1 {
				if id := w<<6 + bits.TrailingZeros64(b); n.routers[id].quiescent() {
					rtr.sleep(id)
				}
			}
		}
	}
	for i, sw := range ni.snapSum {
		for sb := sw; sb != 0; sb &= sb - 1 {
			w := i<<6 + bits.TrailingZeros64(sb)
			for b := ni.snap[w]; b != 0; b &= b - 1 {
				if id := w<<6 + bits.TrailingZeros64(b); n.nis[id].quiescent() {
					ni.sleep(id)
				}
			}
		}
	}
	if nbtiDebug {
		n.debugCheckSkipped()
	}
}

// sampleSweep runs every unit's sensor banks, active or not: sensor
// cadence is global, and a changed comparator output wakes the upstream
// consumer. A static network then stops sweeping (see nextSample).
func (n *Network) sampleSweep(cycle uint64) {
	for i := range n.routers {
		n.routers[i].samplePhase(cycle)
	}
	for i := range n.nis {
		n.nis[i].samplePhase(cycle)
	}
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
// counter advances as if each had run, and nbtidebug builds recompute
// the banks to prove the held outputs are what a sweep would publish.
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
		total += n.routers[i].bufferedFlits()
	}
	for i := range n.nis {
		total += n.nis[i].ej.bufferedFlits() + n.nis[i].pendingFlits()
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
		for p := Port(0); p < NumPorts; p++ {
			if iu := r.in[p]; iu != nil {
				iu.flushNBTI(n.cycle)
			}
		}
	}
	for i := range n.nis {
		n.nis[i].ej.flushNBTI(n.cycle)
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
		e.CrossbarTraversals += r.stFlits
		e.VAGrants += r.vaGrants
		e.SAGrants += r.saGrants
		for p := Port(0); p < NumPorts; p++ {
			if iu := r.in[p]; iu != nil {
				e.BufferWrites += iu.writes
				e.BufferReads += iu.reads
				for vc := range iu.devs {
					e.StressCycles += iu.devs[vc].Tracker.StressCycles()
					e.RecoveryCycles += iu.devs[vc].Tracker.RecoveryCycles()
				}
			}
			if ou := r.out[p]; ou != nil {
				e.LinkFlits += ou.flitsSent
			}
		}
	}
	for i := range n.nis {
		e.LinkFlits += n.nis[i].out.flitsSent
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
		r.stFlits, r.vaGrants, r.saGrants = 0, 0, 0
		for p := Port(0); p < NumPorts; p++ {
			if iu := r.in[p]; iu != nil {
				iu.writes, iu.reads = 0, 0
			}
			if ou := r.out[p]; ou != nil {
				ou.flitsSent = 0
			}
		}
	}
	for i := range n.nis {
		ni := &n.nis[i]
		ni.out.flitsSent = 0
		ni.ej.writes, ni.ej.reads = 0, 0
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
	return n.routers[node].in[port].Device(vc).Tracker.DutyCycle()
}

// MostDegradedVC returns the most degraded VC (index within the vnet
// slice) of a router input port, as the port's sensor bank reports it.
// Open NBTI spans are flushed first in case the read triggers a fresh
// sample of closed-loop (Horizon > 0) sensors. A static network's banks
// hold their outputs from the first sweep on, so the read returns them
// without sampling, as it would between the sweeps the hardware runs.
func (n *Network) MostDegradedVC(node NodeID, port Port, vnet int) int {
	iu := n.routers[node].in[port]
	bank := &iu.banks[vnet]
	if n.elideSweeps && n.cycle > 0 {
		md, _ := bank.Held()
		return md
	}
	iu.flushNBTI(n.cycle)
	return bank.MostDegraded(n.cycle)
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

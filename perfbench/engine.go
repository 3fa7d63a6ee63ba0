package main

import (
	"errors"
	"fmt"
	"time"

	"nbtinoc/internal/core"
	"nbtinoc/internal/metrics"
	"nbtinoc/internal/noc"
	"nbtinoc/internal/sim"
	"nbtinoc/internal/traffic"
)

// runConfigOf builds the sim.RunConfig that Spec.Compute hands to
// sim.Run.
func runConfigOf(spec sim.Spec) (sim.RunConfig, error) {
	rc := sim.RunConfig{Net: spec.Net, Warmup: spec.Warmup, Measure: spec.Measure}
	if spec.Policy.RRPeriod > 0 {
		period := spec.Policy.RRPeriod
		rc.Net.Policy = func() noc.Policy { return &core.RRNoSensor{RotatePeriod: period} }
	} else {
		rc.PolicyName = spec.Policy.Name
	}
	gen, err := spec.Gen.Build()
	rc.Gen = gen
	return rc, err
}

// countingGen forwards to a generator while counting the packets it
// emits and the packets the network delivers, for the conservation
// check. It keeps the event horizon of the generator it wraps.
type countingGen struct {
	inner     traffic.Generator
	horizon   traffic.EventHorizon
	listener  traffic.DeliveryListener
	emit      traffic.Emit
	emitted   uint64
	delivered uint64
}

func newCountingGen(g traffic.Generator) *countingGen {
	c := &countingGen{inner: g}
	c.horizon, _ = g.(traffic.EventHorizon)
	c.listener, _ = g.(traffic.DeliveryListener)
	return c
}

func (c *countingGen) Name() string { return c.inner.Name() }

func (c *countingGen) Tick(cycle uint64, emit traffic.Emit) {
	c.emit = emit
	c.inner.Tick(cycle, c.count)
}

func (c *countingGen) count(src, dst noc.NodeID, vnet, length int) {
	c.emitted++
	c.emit(src, dst, vnet, length)
}

// NextEventCycle reports now for a generator without a horizon, which
// never lets the run loop jump: the same as having no horizon.
func (c *countingGen) NextEventCycle(now uint64) uint64 {
	if c.horizon == nil {
		return now
	}
	return c.horizon.NextEventCycle(now)
}

func (c *countingGen) OnDeliver(src, dst noc.NodeID, vnet int, cycle uint64) {
	c.delivered++
	if c.listener != nil {
		c.listener.OnDeliver(src, dst, vnet, cycle)
	}
}

// checkConservation drains a finished run's network without new
// injections and checks every emitted packet was delivered: injected =
// ejected + in flight at the end of the run.
func checkConservation(net *noc.Network, gen *countingGen) error {
	before := gen.delivered
	for i := 0; !net.Quiescent(); i++ {
		if i == 1_000_000 {
			return errors.New("network did not drain within 1e6 cycles")
		}
		net.Step()
	}
	inFlight := gen.delivered - before
	if gen.emitted != before+inFlight {
		return fmt.Errorf("packets not conserved: injected %d, ejected %d, in flight %d",
			gen.emitted, before, inFlight)
	}
	return nil
}

// engineTrace holds the spans and counts of traced engine runs.
type engineTrace struct {
	// setup is policy lookup, generator and network construction;
	// readout is probe reading and summary assembly.
	setup, readout span
	// horizon is Gen.NextEventCycle, idle is Network.Idle.
	horizon, idle span
	// ff is Network.RunUntil, cut at sensor-sample cycles.
	ff span
	// tick is Gen.Tick, which includes Network.Inject of what it emits.
	tick span
	// step is Network.Step on a cycle without a sensor sample;
	// sample is Network.Step on a sensor-sample cycle.
	step, sample span
	// reset is the warm-up statistics reset.
	reset span
	// check is the benchmark's own conservation check, which is not on
	// the workload's path and is taken out of the traced pass's wall.
	check span

	packets           uint64
	cycles, ffCycles  uint64
	routerCycles      uint64
	events            noc.EventCounts
	routersActive     uint64
	routersSkipped    uint64
	conservationFails int
}

// spans lists every engine span, for the blocking-path total.
func (t *engineTrace) spans() []*span {
	return []*span{&t.setup, &t.readout, &t.horizon, &t.idle, &t.ff, &t.tick, &t.step, &t.sample, &t.reset}
}

func (t *engineTrace) busyNS() int64 {
	var ns int64
	for _, s := range t.spans() {
		ns += s.ns
	}
	return ns
}

func (t *engineTrace) addEvents(e noc.EventCounts) {
	t.events.VAGrants += e.VAGrants
	t.events.SAGrants += e.SAGrants
	t.events.CrossbarTraversals += e.CrossbarTraversals
	t.events.LinkFlits += e.LinkFlits
	t.events.GateEvents += e.GateEvents
	t.events.WakeEvents += e.WakeEvents
}

// merge adds another trace's spans and counts.
func (t *engineTrace) merge(o *engineTrace) {
	for i, s := range o.spans() {
		t.spans()[i].merge(*s)
	}
	t.check.merge(o.check)
	t.packets += o.packets
	t.cycles += o.cycles
	t.ffCycles += o.ffCycles
	t.routerCycles += o.routerCycles
	t.addEvents(o.events)
	t.routersActive += o.routersActive
	t.routersSkipped += o.routersSkipped
	t.conservationFails += o.conservationFails
}

// tracedRun is sim.Run's cycle loop driven from the benchmark, with a
// span around each call into the engine. It returns the summary
// sim.Run would return for the spec. Fast-forward jumps are split at
// sensor-sample cycles so each sample sweep is timed as its own Step;
// RunUntil(t) is equivalent to stepping to t, so the split changes no
// result, only adds one idle Step per sample period inside the jumps.
//
// With visits set, a metrics registry is installed while the network
// is built, so the engine counts active and skipped router visits. The
// registry slows the sensor sweep markedly, so timed passes run without
// it and the visit counts come from a separate pass.
func tracedRun(spec sim.Spec, tr *engineTrace, visits bool) (*sim.RunSummary, error) {
	var reg *metrics.Registry
	if visits {
		prev := metrics.Default()
		reg = metrics.New()
		metrics.SetDefault(reg)
		defer metrics.SetDefault(prev)
	}

	t := time.Now()
	rc, err := runConfigOf(spec)
	if err != nil {
		return nil, err
	}
	gen := newCountingGen(rc.Gen)
	cfg := rc.Net
	policy := rc.PolicyName
	if policy != "" {
		f, err := core.Lookup(policy)
		if err != nil {
			return nil, err
		}
		cfg.Policy = f
	} else if cfg.Policy == nil {
		policy = "baseline"
	}
	net, err := noc.New(cfg)
	if err != nil {
		return nil, err
	}
	net.SetDeliveryHook(func(f noc.Flit, cycle uint64) {
		gen.OnDeliver(f.Src, f.Dst, int(f.VNet), cycle)
	})
	var injectErr error
	emit := func(src, dst noc.NodeID, vnet, length int) {
		if err := net.Inject(src, dst, vnet, length); err != nil && injectErr == nil {
			injectErr = err
		}
	}
	// The first sensor sample is taken on cycle 1, then every period.
	period := cfg.Sensor.SamplePeriod
	isSample := func(cycle uint64) bool { return (cycle-1)%period == 0 }
	nextSample := func(cycle uint64) uint64 { return cycle + 1 + (period-cycle%period)%period }
	total := rc.Warmup + rc.Measure
	t = tr.setup.lap(t)

	for c := uint64(0); c < total; c++ {
		next := gen.NextEventCycle(c)
		t = tr.horizon.lap(t)
		if next > c {
			idle := net.Idle()
			t = tr.idle.lap(t)
			if idle {
				limit := next
				if limit > total-1 {
					limit = total - 1
				}
				if c < rc.Warmup && limit > rc.Warmup-1 {
					limit = rc.Warmup - 1
				}
				if limit > c {
					for net.Cycle() < limit {
						s := nextSample(net.Cycle())
						if s > limit {
							net.RunUntil(limit)
							t = tr.ff.lap(t)
							break
						}
						if s-1 > net.Cycle() {
							net.RunUntil(s - 1)
							t = tr.ff.lap(t)
						}
						net.Step()
						t = tr.sample.lap(t)
					}
					c = limit
				}
			}
		}
		gen.Tick(c, emit)
		t = tr.tick.lap(t)
		net.Step()
		if isSample(c + 1) {
			t = tr.sample.lap(t)
		} else {
			t = tr.step.lap(t)
		}
		if injectErr != nil {
			return nil, injectErr
		}
		if c+1 == rc.Warmup {
			net.ResetNBTIStats()
			net.ResetTrafficStats()
			net.ResetEventCounters()
			t = tr.reset.lap(t)
		}
	}

	res := &sim.RunResult{
		Policy:   policy,
		Workload: gen.Name(),
		Cycles:   rc.Measure,
		Net:      net,
	}
	for _, p := range spec.Probes {
		r, err := sim.ReadPort(net, p)
		if err != nil {
			return nil, err
		}
		res.Ports = append(res.Ports, r)
	}
	var latSum float64
	var latCnt int
	var ejFlits uint64
	for id := 0; id < net.Nodes(); id++ {
		st := net.NI(noc.NodeID(id)).Stats()
		res.InjectedPackets += st.InjectedPackets
		res.EjectedPackets += st.EjectedPackets
		ejFlits += st.EjectedFlits
		if st.EjectedPackets > 0 {
			latSum += st.AvgLatency()
			latCnt++
		}
	}
	if latCnt > 0 {
		res.AvgLatency = latSum / float64(latCnt)
	}
	res.Throughput = float64(ejFlits) / float64(rc.Measure) / float64(net.Nodes())
	sum := res.Summary()
	t = tr.readout.lap(t)

	tr.packets += gen.emitted
	tr.cycles += net.Cycle()
	tr.ffCycles += net.FastForwardedCycles()
	tr.routerCycles += uint64(net.Nodes()) * total
	tr.addEvents(sum.Events)
	if visits {
		steps := reg.CounterVec(noc.MetricUnitSteps, "", "unit", "state")
		tr.routersActive += steps.With("router", "active").Value()
		tr.routersSkipped += steps.With("router", "skipped").Value()
	}
	if err := checkConservation(net, gen); err != nil {
		tr.conservationFails++
	}
	tr.check.lap(t)
	return sum, nil
}

// layerMetrics adds the engine layers' per-pass metrics to m.
func (t *engineTrace) layerMetrics(m metricSet, passes float64) {
	per := func(x float64) float64 { return x / passes }
	m.count("traffic.tick.calls", per(float64(t.tick.calls)))
	m.sec("traffic.tick.self_s", per(t.tick.seconds()))
	m.count("traffic.horizon.calls", per(float64(t.horizon.calls)))
	m.sec("traffic.horizon.self_s", per(t.horizon.seconds()))
	m.count("traffic.packets", per(float64(t.packets)))
	m.count("noc.step.calls", per(float64(t.step.calls)))
	m.sec("noc.step.self_s", per(t.step.seconds()))
	m.ratio("noc.router_active_ratio", ratio(float64(t.routersActive), float64(t.routersActive+t.routersSkipped)))
	m.count("noc.va_grants", per(float64(t.events.VAGrants)))
	m.count("noc.sa_grants", per(float64(t.events.SAGrants)))
	m.count("noc.crossbar_traversals", per(float64(t.events.CrossbarTraversals)))
	m.count("noc.link_flits", per(float64(t.events.LinkFlits)))
	m.count("noc.sample_step.calls", per(float64(t.sample.calls)))
	m.sec("noc.sample_step.self_s", per(t.sample.seconds()))
	m.count("noc.fastforward.calls", per(float64(t.ff.calls)))
	m.sec("noc.fastforward.self_s", per(t.ff.seconds()))
	m.ratio("noc.ff_ratio", ratio(float64(t.ffCycles), float64(t.cycles)))
	m.count("noc.idle.calls", per(float64(t.idle.calls)))
	m.sec("noc.idle.self_s", per(t.idle.seconds()))
	m.sec("noc.reset.self_s", per(t.reset.seconds()))
	m.sec("noc.setup.self_s", per(t.setup.seconds()))
	m.sec("noc.readout.self_s", per(t.readout.seconds()))
	m.count("core.gate_events", per(float64(t.events.GateEvents)))
	m.count("core.wake_events", per(float64(t.events.WakeEvents)))
}

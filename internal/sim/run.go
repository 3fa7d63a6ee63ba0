// Package sim is the experiment harness: it builds networks from
// scenario descriptions, drives traffic generators through warm-up and
// measurement windows, and aggregates the per-VC NBTI statistics into
// the tables of the paper's evaluation (Tables II, III, IV), the ΔVth
// saving analysis and the cooperation ablation.
package sim

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"nbtinoc/internal/core"
	"nbtinoc/internal/noc"
	"nbtinoc/internal/traffic"
)

// RunConfig describes one simulation run.
type RunConfig struct {
	// Net is the network configuration. Its Policy field is overridden
	// from PolicyName when that is non-empty.
	Net noc.Config
	// PolicyName selects the recovery policy from the core registry.
	PolicyName string
	// Warmup is the number of cycles simulated before statistics are
	// reset (the paper lets the network reach steady state first).
	Warmup uint64
	// Measure is the measured window length in cycles.
	Measure uint64
	// Gen produces the workload.
	Gen traffic.Generator
	// RestoreAging, when non-nil, loads an aging snapshot into the
	// network before the run — note that warm-up still resets the NBTI
	// trackers, so multi-epoch campaigns restore with Warmup = 0 and
	// compose epochs through nbti.History instead when a warm-up is
	// needed.
	RestoreAging *noc.AgingState
	// Tracer, when non-nil, receives flit-level pipeline events.
	Tracer noc.Tracer
	// StepByStep disables event-horizon fast-forwarding, forcing the
	// cycle-by-cycle loop. Results are identical either way (pinned by
	// TestFastForwardMatchesStepByStep); the knob exists for that
	// cross-check and for debugging, so it is deliberately NOT part of
	// the cached Spec key.
	StepByStep bool
}

// PortProbe identifies one observed input port, as in the paper's
// per-router/port rows.
type PortProbe struct {
	Node noc.NodeID
	Port noc.Port
	VNet int
}

// Label renders the probe in the paper's row style, e.g. "r0-E".
func (p PortProbe) Label() string { return fmt.Sprintf("r%d-%v", p.Node, p.Port) }

// ParsePortProbe parses the "node:port" probe syntax shared by the
// CLIs and sweep grids — a node index and a compass port letter
// (L, N, E, S, W, case-insensitive), e.g. "5:E".
func ParsePortProbe(s string) (PortProbe, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return PortProbe{}, fmt.Errorf("probe %q not in node:port form", s)
	}
	node, err := strconv.Atoi(parts[0])
	if err != nil {
		return PortProbe{}, fmt.Errorf("probe node %q: %v", parts[0], err)
	}
	var port noc.Port
	switch strings.ToUpper(parts[1]) {
	case "L":
		port = noc.Local
	case "N":
		port = noc.North
	case "E":
		port = noc.East
	case "S":
		port = noc.South
	case "W":
		port = noc.West
	default:
		return PortProbe{}, fmt.Errorf("unknown port %q", parts[1])
	}
	return PortProbe{Node: noc.NodeID(node), Port: port}, nil
}

// PortReading is the measured state of one probed port.
type PortReading struct {
	Probe PortProbe
	// Duty holds the NBTI-duty-cycle (percent) of each VC in the vnet
	// slice.
	Duty []float64
	// Busy holds the flit-occupancy fraction (percent) of each VC —
	// diagnostic, not part of the paper's metric.
	Busy []float64
	// Vth0 holds the sampled initial threshold voltages.
	Vth0 []float64
	// MostDegraded is the VC the port's sensor bank designates.
	MostDegraded int
}

// RunResult is the outcome of one simulation run.
type RunResult struct {
	Policy   string
	Workload string
	Cycles   uint64
	// Ports holds one reading per requested probe.
	Ports []PortReading
	// AvgLatency is the mean packet latency over all NIs (cycles).
	AvgLatency float64
	// Throughput is ejected flits per cycle per node.
	Throughput float64
	// InjectedPackets / EjectedPackets over the measured window.
	InjectedPackets, EjectedPackets uint64
	// Net is the final network, for further inspection.
	Net *noc.Network
}

// injectSink adapts noc.Network.Inject to the traffic.Emit signature
// while latching the first injection error. A single sink serves a whole
// run, so the hot cycle loop carries one method value instead of
// allocating a fresh capturing closure per Run invocation.
type injectSink struct {
	net *noc.Network
	err error
}

func (s *injectSink) emit(src, dst noc.NodeID, vnet, length int) {
	if err := s.net.Inject(src, dst, vnet, length); err != nil && s.err == nil {
		s.err = err
	}
}

// Run executes one simulation: warm-up, statistics reset, measurement.
func Run(rc RunConfig, probes []PortProbe) (*RunResult, error) {
	if rc.Gen == nil {
		return nil, errors.New("sim: nil traffic generator")
	}
	if rc.Measure == 0 {
		return nil, errors.New("sim: zero measurement window")
	}
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
	if rc.RestoreAging != nil {
		if err := net.RestoreAging(*rc.RestoreAging); err != nil {
			return nil, err
		}
	}
	if rc.Tracer != nil {
		net.SetTracer(rc.Tracer)
	}
	// Closed-loop generators observe packet deliveries.
	if listener, ok := rc.Gen.(traffic.DeliveryListener); ok {
		net.SetDeliveryHook(func(f noc.Flit, cycle uint64) {
			listener.OnDeliver(f.Src, f.Dst, int(f.VNet), cycle)
		})
	}

	sink := injectSink{net: net}
	emit := sink.emit // bound once; no per-cycle or per-capture closure
	total := rc.Warmup + rc.Measure
	horizon, _ := rc.Gen.(traffic.EventHorizon)
	if rc.StepByStep {
		horizon = nil
	}
	for c := uint64(0); c < total; c++ {
		// Event-horizon fast-forward: when the generator will provably
		// not emit before cycle `next` and the network is idle, the
		// iterations in between are no-ops (Tick emits nothing, Step
		// touches nothing but the sensor sweeps, which RunUntil executes
		// where they can change something and skips for static sensors)
		// — so jump straight to the first eventful iteration. The jump is
		// clamped to the warm-up edge so the statistics reset at
		// c+1 == Warmup still runs in its own iteration, and to total-1 so
		// the loop exits at the same cycle count as step-by-step mode.
		// Closed-loop generators are safe without extra gating: an idle
		// network delivers nothing, so no response can become due
		// mid-jump.
		if horizon != nil {
			if next := horizon.NextEventCycle(c); next > c && net.Idle() {
				limit := next
				if limit > total-1 {
					limit = total - 1
				}
				if c < rc.Warmup && limit > rc.Warmup-1 {
					limit = rc.Warmup - 1
				}
				if limit > c {
					net.RunUntil(limit)
					c = limit
				}
			}
		}
		rc.Gen.Tick(c, emit)
		net.Step()
		if sink.err != nil {
			return nil, sink.err
		}
		if c+1 == rc.Warmup {
			net.ResetNBTIStats()
			net.ResetTrafficStats()
			net.ResetEventCounters()
		}
	}

	res := &RunResult{
		Policy:   policy,
		Workload: rc.Gen.Name(),
		Cycles:   rc.Measure,
		Net:      net,
	}
	for _, p := range probes {
		r, err := ReadPort(net, p)
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
	return res, nil
}

// ReadPort extracts a port reading from a network.
func ReadPort(net *noc.Network, p PortProbe) (PortReading, error) {
	if net.Input(p.Node, p.Port) == nil {
		return PortReading{}, fmt.Errorf("sim: node %d has no %v input port", p.Node, p.Port)
	}
	cfg := net.Config()
	if p.VNet < 0 || p.VNet >= cfg.VNets {
		return PortReading{}, fmt.Errorf("sim: vnet %d out of range", p.VNet)
	}
	reading := PortReading{Probe: p, MostDegraded: net.MostDegradedVC(p.Node, p.Port, p.VNet)}
	for i := 0; i < cfg.VCsPerVNet; i++ {
		vc := p.VNet*cfg.VCsPerVNet + i
		tr := &net.Device(p.Node, p.Port, vc).Tracker
		reading.Duty = append(reading.Duty, tr.DutyCycle())
		busy := 0.0
		if tot := tr.TotalCycles(); tot > 0 {
			busy = 100 * float64(tr.BusyCycles()) / float64(tot)
		}
		reading.Busy = append(reading.Busy, busy)
		reading.Vth0 = append(reading.Vth0, net.Vth0(p.Node, p.Port, vc))
	}
	return reading, nil
}

// MeshSide returns the square mesh side for a core count, rejecting
// non-square values.
func MeshSide(cores int) (int, error) {
	side := 1
	for side*side < cores {
		side++
	}
	if side*side != cores {
		return 0, fmt.Errorf("sim: %d cores is not a square mesh", cores)
	}
	return side, nil
}

// BaseConfig returns the paper's router/technology configuration for a
// square mesh with the given core count and VC count.
func BaseConfig(cores, vcsPerVNet int) (noc.Config, error) {
	m, err := SquareMesh(cores)
	if err != nil {
		return noc.Config{}, err
	}
	return m.config(vcsPerVNet), nil
}

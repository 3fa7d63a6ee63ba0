package noc

import (
	"errors"
	"fmt"

	"nbtinoc/internal/nbti"
	"nbtinoc/internal/pv"
	"nbtinoc/internal/sensor"
)

// PolicyFactory builds one recovery-policy instance. Each (output unit,
// vnet) pair receives its own instance so that per-port policy state is
// independent, as in hardware — except that a policy declaring it keeps
// no state (StatelessPolicy or CycleFreePolicy) is built once per network
// and shared, which no decision can tell apart.
type PolicyFactory func() Policy

// Config describes a network instance. The zero value is not usable;
// start from DefaultConfig.
type Config struct {
	// Width and Height are the mesh dimensions in tiles.
	Width, Height int
	// VNets is the number of virtual networks.
	VNets int
	// VCsPerVNet is the number of virtual channels per vnet per input
	// port (the paper evaluates 2 and 4).
	VCsPerVNet int
	// BufferDepth is the per-VC buffer capacity in flits (paper: 4).
	BufferDepth int
	// FlitWidthBits is the link/flit width, used by the area model and
	// reports (paper: 64-bit flits on 32-bit links; we keep one knob).
	FlitWidthBits int
	// LinkLatency is the flit link traversal latency in cycles (>= 1).
	LinkLatency int
	// PhitsPerFlit is the serialization factor of the links: a flit of
	// FlitWidthBits travelling over a narrower physical link occupies it
	// for this many cycles (the paper's Table I pairs 64-bit flits with
	// 32-bit Tilera-style links, i.e. 2 phits per flit). 1 disables
	// serialization.
	PhitsPerFlit int
	// Routing selects the deterministic routing algorithm.
	Routing RoutingAlgorithm
	// EjectRate is the number of flits a network interface can drain
	// from its ejection buffers per cycle (>= 1).
	EjectRate int
	// EjectBufferDepth is the per-VC depth of the NI ejection buffers.
	EjectBufferDepth int
	// Policy builds the pre-VA recovery policy for router-to-router and
	// NI-to-router channels. nil means the always-on baseline. A func
	// has no canonical encoding, so the field stays out of the JSON form
	// — and with it out of every sim.Spec cache key, which declares the
	// policy in sim.PolicySpec instead.
	Policy PolicyFactory `json:"-"`
	// GateEjection applies Policy to router→NI ejection buffers as well.
	// The paper gates router VC buffers only, so this defaults to false.
	GateEjection bool
	// WakeupLatency is the sleep-transistor wake-up delay in cycles: a
	// gated buffer commanded back on cannot be allocated for this many
	// cycles (it is powered — and NBTI-stressed — while ramping). The
	// paper's reference [19] discusses the underlying header-transistor
	// design; 0 models an idealised instant wake-up.
	WakeupLatency int
	// NBTI holds the aging-model parameters for all VC buffer devices.
	NBTI nbti.Params
	// PV is the initial-Vth process variation distribution.
	PV pv.Distribution
	// PVSeed seeds the process-variation draw. The paper uses one draw
	// per {architecture, traffic} scenario, shared across policies.
	PVSeed uint64
	// Sensor configures the per-VC NBTI sensors feeding the Down_Up
	// links. Sensors are instantiated regardless of policy so that
	// sensor-less policies can be compared on identical networks.
	Sensor sensor.Config
	// SensorSeed seeds sensor read noise.
	SensorSeed uint64
}

// DefaultConfig returns the paper's base setup: 4×4 mesh, one vnet,
// 4 VCs per input port, 4-flit buffers, 64-bit flits, 45 nm technology,
// baseline (always-on) policy.
func DefaultConfig() Config {
	return Config{
		Width:            4,
		Height:           4,
		VNets:            1,
		VCsPerVNet:       4,
		BufferDepth:      4,
		FlitWidthBits:    64,
		LinkLatency:      1,
		PhitsPerFlit:     1,
		EjectRate:        1,
		EjectBufferDepth: 4,
		NBTI:             nbti.Default45nm(),
		PV:               pv.Default45nm(),
		PVSeed:           1,
		Sensor:           sensor.Config{SamplePeriod: 1024},
		SensorSeed:       1,
	}
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.Width < 1 || c.Height < 1:
		return fmt.Errorf("noc: mesh %dx%d must be at least 1x1", c.Width, c.Height)
	case c.Width*c.Height < 2:
		return errors.New("noc: need at least 2 nodes")
	case c.VNets < 1:
		return errors.New("noc: VNets must be >= 1")
	case c.VCsPerVNet < 1:
		return errors.New("noc: VCsPerVNet must be >= 1")
	case c.BufferDepth < 1:
		return errors.New("noc: BufferDepth must be >= 1")
	case c.FlitWidthBits < 1:
		return errors.New("noc: FlitWidthBits must be >= 1")
	case c.LinkLatency < 1:
		return errors.New("noc: LinkLatency must be >= 1")
	case c.PhitsPerFlit < 1:
		return errors.New("noc: PhitsPerFlit must be >= 1")
	case c.EjectRate < 1:
		return errors.New("noc: EjectRate must be >= 1")
	case c.EjectBufferDepth < 1:
		return errors.New("noc: EjectBufferDepth must be >= 1")
	case c.WakeupLatency < 0:
		return errors.New("noc: WakeupLatency must be non-negative")
	}
	if err := c.NBTI.Validate(); err != nil {
		return err
	}
	if err := c.PV.Validate(); err != nil {
		return err
	}
	if err := c.Sensor.Validate(); err != nil {
		return err
	}
	return nil
}

// Nodes returns the number of tiles in the mesh.
func (c Config) Nodes() int { return c.Width * c.Height }

// TotalVCs returns the number of VCs per input port across all vnets.
func (c Config) TotalVCs() int { return c.VNets * c.VCsPerVNet }

// vcIndex flattens (vnet, vc-in-vnet) into a port-local VC index. The
// pointer receiver matters: all callers hold *Config, and a value
// receiver would copy the whole Config per call — this is the hottest
// helper of the cycle engine's inner loops.
func (c *Config) vcIndex(vnet, vc int) int { return vnet*c.VCsPerVNet + vc }

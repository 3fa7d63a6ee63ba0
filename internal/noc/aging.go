package noc

import "fmt"

// VCAging is the serialisable aging record of one router input VC
// buffer.
type VCAging struct {
	Node     int     `json:"node"`
	Port     string  `json:"port"`
	VC       int     `json:"vc"`
	Vth0     float64 `json:"vth0"`
	Stress   uint64  `json:"stress_cycles"`
	Recovery uint64  `json:"recovery_cycles"`
	Busy     uint64  `json:"busy_cycles"`
}

// AgingState is a checkpoint of the whole network's buffer aging,
// enabling multi-epoch campaigns: simulate a window under one policy or
// workload, snapshot, rebuild (or re-seed) the network, restore, and
// continue accumulating — the composition rule is the time-weighted
// duty-cycle of nbti.History.
type AgingState struct {
	Cycle uint64    `json:"cycle"`
	VCs   []VCAging `json:"vcs"`
}

// portFromName inverts Port.String for snapshot restoration.
func portFromName(s string) (Port, error) {
	for p := Port(0); p < NumPorts; p++ {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("noc: unknown port name %q", s)
}

// AgingSnapshot captures the stress history and initial Vth of every
// router input VC buffer.
func (n *Network) AgingSnapshot() AgingState {
	n.flushNBTI()
	st := AgingState{Cycle: n.cycle}
	for i := range n.routers {
		r := &n.routers[i]
		for p := Port(0); p < NumPorts; p++ {
			if r.ports>>uint(p)&1 == 0 {
				continue
			}
			ins, _ := r.units(n)
			for vc, devs := 0, ins[p].devs(n); vc < len(devs); vc++ {
				d := &devs[vc]
				st.VCs = append(st.VCs, VCAging{
					Node:     int(r.id),
					Port:     p.String(),
					VC:       vc,
					Vth0:     d.Vth0,
					Stress:   d.Tracker.StressCycles(),
					Recovery: d.Tracker.RecoveryCycles(),
					Busy:     d.Tracker.BusyCycles(),
				})
			}
		}
	}
	return st
}

// RestoreAging loads a snapshot into the network's devices. The
// snapshot must address existing buffers; Vth0 values are restored too,
// so a snapshot carries its silicon with it (overriding the PV draw).
// A static network whose sweeps are elided re-arms the next
// period-aligned sample, so the sensors rank the restored Vth0 exactly
// when a sweeping network would.
func (n *Network) RestoreAging(st AgingState) error {
	n.flushNBTI()
	if n.nextSample == sampleNever {
		p := n.cfg.Sensor.SamplePeriod
		n.nextSample = n.cycle + 1 + (p-n.cycle%p)%p
		n.heldSample = sampleNever
	}
	for _, rec := range st.VCs {
		if rec.Node < 0 || rec.Node >= len(n.routers) {
			return fmt.Errorf("noc: snapshot node %d out of range", rec.Node)
		}
		p, err := portFromName(rec.Port)
		if err != nil {
			return err
		}
		iu := n.Input(NodeID(rec.Node), p)
		if iu == nil {
			return fmt.Errorf("noc: snapshot addresses missing port %s of node %d",
				rec.Port, rec.Node)
		}
		if rec.VC < 0 || rec.VC >= n.total {
			return fmt.Errorf("noc: snapshot VC %d out of range at node %d port %s",
				rec.VC, rec.Node, rec.Port)
		}
		if rec.Busy > rec.Stress {
			return fmt.Errorf("noc: snapshot busy %d > stress %d at node %d port %s vc %d",
				rec.Busy, rec.Stress, rec.Node, rec.Port, rec.VC)
		}
		d := &iu.devs(n)[rec.VC]
		d.Vth0 = rec.Vth0
		d.Tracker.Reset()
		d.Tracker.Stress(rec.Stress, rec.Busy)
		d.Tracker.Recover(rec.Recovery)
		n.unitMet.spans.Stress(rec.Stress)
		n.unitMet.spans.Recover(rec.Recovery)
		iu.buf(n, rec.VC).acc = n.cycle
	}
	return nil
}

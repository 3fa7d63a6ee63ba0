package noc_test

import (
	"encoding/json"
	"fmt"
	"testing"

	"nbtinoc/internal/core"
	"nbtinoc/internal/metrics"
	"nbtinoc/internal/noc"
	"nbtinoc/internal/rng"
	"nbtinoc/internal/sensor"
)

// elisionPair builds two networks from cfg, each under its own metrics
// registry: one with the default (elided) sweeps and a ForceSampling
// reference.
func elisionPair(t *testing.T, cfg noc.Config) (got, ref *noc.Network, gotReg, refReg *metrics.Registry) {
	t.Helper()
	t.Cleanup(func() { metrics.SetDefault(nil) })
	build := func(force bool) (*noc.Network, *metrics.Registry) {
		reg := metrics.New()
		metrics.SetDefault(reg)
		n, err := noc.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if force {
			noc.ForceSampling(n)
		}
		return n, reg
	}
	got, gotReg = build(false)
	ref, refReg = build(true)
	metrics.SetDefault(nil)
	return got, ref, gotReg, refReg
}

// reversedVth0 returns st with the Vth0 values of every port reversed
// across its VCs, so every port's most-degraded VC moves.
func reversedVth0(st noc.AgingState) noc.AgingState {
	out := noc.AgingState{Cycle: st.Cycle, VCs: append([]noc.VCAging(nil), st.VCs...)}
	for lo := 0; lo < len(out.VCs); {
		hi := lo
		for hi < len(out.VCs) && out.VCs[hi].Node == out.VCs[lo].Node && out.VCs[hi].Port == out.VCs[lo].Port {
			hi++
		}
		for i, j := lo, hi-1; i < j; i, j = i+1, j-1 {
			out.VCs[i].Vth0, out.VCs[j].Vth0 = out.VCs[j].Vth0, out.VCs[i].Vth0
		}
		lo = hi
	}
	return out
}

// sensorView is everything a reader can observe of the sensors and the
// aging they steer: the aging snapshot, every port's most-degraded VC,
// and the sample counter.
func sensorView(t *testing.T, n *noc.Network, reg *metrics.Registry) string {
	t.Helper()
	snap, err := json.Marshal(n.AgingSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	var md []int
	cfg := n.Config()
	for id := 0; id < n.Nodes(); id++ {
		for p := noc.Port(0); p < noc.NumPorts; p++ {
			if n.Input(noc.NodeID(id), p) == nil {
				continue
			}
			for vn := 0; vn < cfg.VNets; vn++ {
				md = append(md, n.MostDegradedVC(noc.NodeID(id), p, vn))
			}
		}
	}
	return fmt.Sprintf("cycle=%d samples=%d events=%+v md=%v aging=%s",
		n.Cycle(), reg.CounterValue(sensor.MetricSamples), n.Events(), md, snap)
}

// TestStaticSweepElisionMatchesSampling drives elided networks and their
// sweep-every-period references through the same traffic script —
// sparse bursts, idle gaps spanning many sample periods, and a
// RestoreAging with different Vth0 off the sample grid — and requires
// every sensor observable to agree at each checkpoint.
func TestStaticSweepElisionMatchesSampling(t *testing.T) {
	policies := []struct {
		name    string
		factory noc.PolicyFactory
	}{
		{"baseline", noc.NewBaseline},
		{"rr-no-sensor", core.NewRRNoSensor},
		{"sensor-wise", core.NewSensorWise},
	}
	for _, side := range []int{2, 4, 8} {
		for _, pol := range policies {
			t.Run(fmt.Sprintf("%dx%d/%s", side, side, pol.name), func(t *testing.T) {
				cfg := noc.DefaultConfig()
				cfg.Width, cfg.Height = side, side
				cfg.VNets, cfg.VCsPerVNet = 2, 2
				cfg.Policy = pol.factory
				if !cfg.Sensor.Static() {
					t.Fatal("default sensor config is not static")
				}
				got, ref, gotReg, refReg := elisionPair(t, cfg)
				period := cfg.Sensor.SamplePeriod
				src := rng.New(uint64(side)*31 + uint64(len(pol.name)))
				nodes := side * side
				for round := 0; round < 24; round++ {
					for k := src.Intn(4); k > 0; k-- {
						s := noc.NodeID(src.Intn(nodes))
						d := noc.NodeID((int(s) + 1 + src.Intn(nodes-1)) % nodes)
						vn, length := src.Intn(cfg.VNets), 1+src.Intn(5)
						for _, n := range []*noc.Network{got, ref} {
							if err := n.Inject(s, d, vn, length); err != nil {
								t.Fatal(err)
							}
						}
					}
					target := got.Cycle() + 1 + uint64(src.Intn(int(4*period)))
					got.RunUntil(target)
					ref.RunUntil(target)
					if round == 11 {
						restored := reversedVth0(ref.AgingSnapshot())
						for _, n := range []*noc.Network{got, ref} {
							if err := n.RestoreAging(restored); err != nil {
								t.Fatal(err)
							}
						}
					}
					if round%4 == 3 || round == 11 {
						if g, r := sensorView(t, got, gotReg), sensorView(t, ref, refReg); g != r {
							t.Fatalf("round %d: elided run diverged from the sampling reference\n got: %.300s\n ref: %.300s", round, g, r)
						}
					}
				}
				if gotReg.CounterValue(sensor.MetricSamples) == 0 {
					t.Error("no sensor samples counted")
				}
			})
		}
	}
}

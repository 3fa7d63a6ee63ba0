package noc_test

import (
	"bytes"
	"strings"
	"testing"

	"nbtinoc/internal/core"
	"nbtinoc/internal/metrics"
	"nbtinoc/internal/nbti"
	"nbtinoc/internal/noc"
	"nbtinoc/internal/sensor"
	"nbtinoc/internal/traffic"
)

// instrumented builds a network from cfg under a fresh metrics registry
// and returns both.
func instrumented(t *testing.T, cfg noc.Config) (*noc.Network, *metrics.Registry) {
	t.Helper()
	reg := metrics.New()
	metrics.SetDefault(reg)
	t.Cleanup(func() { metrics.SetDefault(nil) })
	n, err := noc.New(cfg)
	metrics.SetDefault(nil)
	if err != nil {
		t.Fatal(err)
	}
	return n, reg
}

// driveUniform runs n for cycles under uniform traffic at rate 0.1.
func driveUniform(t *testing.T, n *noc.Network, cycles uint64) {
	t.Helper()
	cfg := n.Config()
	gen, err := traffic.NewSynthetic(traffic.SyntheticConfig{
		Pattern: traffic.Uniform, Width: cfg.Width, Height: cfg.Height,
		Rate: 0.1, PacketLen: 4, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	emit := func(src, dst noc.NodeID, vnet, l int) {
		if err := n.Inject(src, dst, vnet, l); err != nil {
			t.Fatal(err)
		}
	}
	for end := n.Cycle() + cycles; n.Cycle() < end; {
		gen.Tick(n.Cycle(), emit)
		n.Step()
	}
}

// agingSeries returns the registry's NBTI span and sensor sample series
// in Prometheus text form, one sample per line.
func agingSeries(t *testing.T, reg *metrics.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(buf.String(), "\n") {
		for _, name := range []string{nbti.MetricStressSpans, nbti.MetricRecoverySpans,
			nbti.MetricSpanCycles, sensor.MetricSamples} {
			if strings.HasPrefix(line, name) {
				out = append(out, line)
			}
		}
	}
	return strings.Join(out, "\n")
}

// TestAgingMetricsPinned pins the span counters, the span-length
// histogram and the sensor sample counter of two fixed 4×4 runs: a
// sensor-wise mesh with noisy sensors under uniform traffic, and a
// static-sensor mesh that restores that mesh's aging snapshot and runs
// on. Charging spans at the network rather than in each tracker must
// not move a single count.
func TestAgingMetricsPinned(t *testing.T) {
	cfg := noc.DefaultConfig()
	cfg.Policy = core.NewSensorWise
	cfg.Sensor.SamplePeriod = 256
	cfg.Sensor.NoiseSigma = 0.25e-3
	a, regA := instrumented(t, cfg)
	driveUniform(t, a, 3000)
	a.Events()
	if got := agingSeries(t, regA); got != wantRunSeries {
		t.Errorf("traffic run series:\n%s\nwant:\n%s", got, wantRunSeries)
	}

	cfg.Sensor.NoiseSigma = 0
	b, regB := instrumented(t, cfg)
	b.Run(700)
	if err := b.RestoreAging(a.AgingSnapshot()); err != nil {
		t.Fatal(err)
	}
	driveUniform(t, b, 2000)
	b.Events()
	if got := agingSeries(t, regB); got != wantRestoreSeries {
		t.Errorf("restore run series:\n%s\nwant:\n%s", got, wantRestoreSeries)
	}
}

// The pinned series are those the engine produced when every tracker
// held its own span instruments.
const wantRunSeries = `nbti_recovery_spans_total 6981
nbti_span_cycles_bucket{le="1"} 2593
nbti_span_cycles_bucket{le="4"} 12599
nbti_span_cycles_bucket{le="16"} 17788
nbti_span_cycles_bucket{le="64"} 20485
nbti_span_cycles_bucket{le="256"} 25010
nbti_span_cycles_bucket{le="1024"} 25010
nbti_span_cycles_bucket{le="4096"} 25010
nbti_span_cycles_bucket{le="16384"} 25010
nbti_span_cycles_bucket{le="65536"} 25010
nbti_span_cycles_bucket{le="262144"} 25010
nbti_span_cycles_bucket{le="+Inf"} 25010
nbti_span_cycles_sum 960000
nbti_span_cycles_count 25010
nbti_stress_spans_total 18029
sensor_samples_total 3840`

const wantRestoreSeries = `nbti_recovery_spans_total 3980
nbti_span_cycles_bucket{le="1"} 3708
nbti_span_cycles_bucket{le="4"} 15085
nbti_span_cycles_bucket{le="16"} 19462
nbti_span_cycles_bucket{le="64"} 21062
nbti_span_cycles_bucket{le="256"} 22452
nbti_span_cycles_bucket{le="1024"} 23104
nbti_span_cycles_bucket{le="4096"} 23491
nbti_span_cycles_bucket{le="16384"} 23491
nbti_span_cycles_bucket{le="65536"} 23491
nbti_span_cycles_bucket{le="262144"} 23491
nbti_span_cycles_bucket{le="+Inf"} 23491
nbti_span_cycles_sum 1632000
nbti_span_cycles_count 23491
nbti_stress_spans_total 19511
sensor_samples_total 3520`

package sensor

import (
	"math"
	"testing"

	"nbtinoc/internal/nbti"
	"nbtinoc/internal/rng"
)

var model = nbti.Default45nm()

func devices(vth0s ...float64) []nbti.Device {
	out := make([]nbti.Device, len(vth0s))
	for i, v := range vth0s {
		out[i].Vth0 = v
	}
	return out
}

// reading returns what one sensor over a device with initial threshold
// vth0 measures, noiselessly.
func reading(vth0 float64, cfg Config) float64 {
	return measure(&nbti.Device{Vth0: vth0}, nil, &cfg, &model)
}

// sweep ranks devs noiselessly under cfg.
func sweep(devs []nbti.Device, cfg Config) (md, ld int) {
	return Sweep(devs, nil, &cfg, &model)
}

// noiseWindow splits one read-noise source per sensor off src, as a
// network does for each port.
func noiseWindow(src *rng.Source, n int) []rng.Source {
	noise := make([]rng.Source, n)
	for i := range noise {
		src.SplitInto(&noise[i])
	}
	return noise
}

// mustPanic fails t unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := IdealConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{SamplePeriod: 0},
		{SamplePeriod: 1, LSB: -1},
		{SamplePeriod: 1, NoiseSigma: -1},
		{SamplePeriod: 1, Horizon: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestNewRejectsNilDevice(t *testing.T) {
	mustPanic(t, "a sweep over a nil device window", func() { sweep(nil, IdealConfig()) })
	cfg := Config{SamplePeriod: 1, Horizon: nbti.SecondsPerYear}
	mustPanic(t, "a projecting sweep without an NBTI model", func() {
		Sweep(devices(0.18), nil, &cfg, nil)
	})
}

// A noisy sweep draws from one source per sensor: a noise window of
// another length is refused.
func TestNewRequiresRngForNoise(t *testing.T) {
	cfg := Config{SamplePeriod: 1, NoiseSigma: 1e-3}
	mustPanic(t, "a noisy sweep with fewer noise sources than sensors", func() {
		Sweep(devices(0.18, 0.18), make([]rng.Source, 1), &cfg, &model)
	})
}

func TestIdealSensorReadsVth0(t *testing.T) {
	if got := reading(0.1834, IdealConfig()); got != 0.1834 {
		t.Fatalf("Read = %v, want 0.1834", got)
	}
}

func TestQuantisation(t *testing.T) {
	got := reading(0.18037, Config{SamplePeriod: 1, LSB: 0.5e-3})
	want := math.Round(0.18037/0.5e-3) * 0.5e-3
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("quantised read = %v, want %v", got, want)
	}
	if rem := math.Mod(got, 0.5e-3); math.Abs(rem) > 1e-12 && math.Abs(rem-0.5e-3) > 1e-12 {
		t.Fatalf("read %v not on LSB grid", got)
	}
}

func TestHorizonProjectsStressHistory(t *testing.T) {
	devs := devices(0.180)
	devs[0].Tracker.Stress(90, 45)
	devs[0].Tracker.Recover(10)
	cfg := Config{SamplePeriod: 1, Horizon: 3 * nbti.SecondsPerYear}
	got := measure(&devs[0], nil, &cfg, &model)
	want := 0.180 + model.DeltaVth(0.9, 3*nbti.SecondsPerYear)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("horizon read = %v, want %v", got, want)
	}
}

func TestBankMostDegradedStatic(t *testing.T) {
	if md, _ := sweep(devices(0.178, 0.186, 0.181, 0.179), IdealConfig()); md != 1 {
		t.Fatalf("MostDegraded = %d, want 1", md)
	}
}

func TestBankTieResolvesToLowestIndex(t *testing.T) {
	md, ld := sweep(devices(0.186, 0.186, 0.181, 0.181), IdealConfig())
	if md != 0 || ld != 2 {
		t.Fatalf("ties resolved to md %d, ld %d; want 0 and 2", md, ld)
	}
}

func TestBankEmptyRejected(t *testing.T) {
	mustPanic(t, "a sweep over an empty window", func() { sweep([]nbti.Device{}, IdealConfig()) })
}

func TestBankDynamicRankingFollowsDutyCycle(t *testing.T) {
	// With equal Vth0, the device with higher duty-cycle must become the
	// most degraded under a non-zero horizon.
	devs := devices(0.180, 0.180, 0.180)
	devs[2].Tracker.Stress(900, 0)
	devs[2].Tracker.Recover(100)
	devs[0].Tracker.Stress(100, 0)
	devs[0].Tracker.Recover(900)
	devs[1].Tracker.Stress(500, 0)
	devs[1].Tracker.Recover(500)
	if md, _ := sweep(devs, Config{SamplePeriod: 1, Horizon: nbti.SecondsPerYear}); md != 2 {
		t.Fatalf("dynamic MD = %d, want 2", md)
	}
}

func TestNoiseIsReproducible(t *testing.T) {
	cfg := DefaultConfig()
	devs := devices(0.180, 0.1801)
	a, b := noiseWindow(rng.New(42), 2), noiseWindow(rng.New(42), 2)
	for i := 0; i < 10; i++ {
		amd, ald := Sweep(devs, a, &cfg, &model)
		bmd, bld := Sweep(devs, b, &cfg, &model)
		if amd != bmd || ald != bld {
			t.Fatalf("noisy comparators diverged at sweep %d", i)
		}
	}
}

func TestBankLeastDegraded(t *testing.T) {
	md, ld := sweep(devices(0.182, 0.176, 0.185, 0.179), IdealConfig())
	if ld != 1 {
		t.Fatalf("LeastDegraded = %d, want 1", ld)
	}
	if md != 2 {
		t.Fatalf("MostDegraded = %d, want 2", md)
	}
}

func TestBankLDTracksStress(t *testing.T) {
	devs := devices(0.180, 0.180)
	devs[0].Tracker.Stress(900, 0)
	devs[0].Tracker.Recover(100)
	devs[1].Tracker.Stress(100, 0)
	devs[1].Tracker.Recover(900)
	if _, ld := sweep(devs, Config{SamplePeriod: 1, Horizon: nbti.SecondsPerYear}); ld != 1 {
		t.Fatalf("dynamic LD = %d, want 1", ld)
	}
}

func TestConfigStatic(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want bool
	}{
		{IdealConfig(), true},
		{Config{SamplePeriod: 1024, LSB: 0.5e-3}, true},
		{DefaultConfig(), false},
		{Config{SamplePeriod: 4096, Horizon: 3 * nbti.SecondsPerYear}, false},
	} {
		if got := tc.cfg.Static(); got != tc.want {
			t.Errorf("%+v.Static() = %v, want %v", tc.cfg, got, tc.want)
		}
	}
}

// A sweep without a noise window reads noiselessly and draws nothing; a
// sweep with one draws one deviate per sensor.
func TestSweepWithoutNoiseDrawsNothing(t *testing.T) {
	cfg := Config{SamplePeriod: 10, LSB: 0.5e-3, NoiseSigma: 2e-3}
	devs := devices(0.178, 0.186, 0.181, 0.179)
	noise := noiseWindow(rng.New(9), len(devs))
	drawn := append([]rng.Source(nil), noise...)
	if md, ld := Sweep(devs, nil, &cfg, &model); md != 1 || ld != 0 {
		t.Fatalf("noiseless sweep = (%d, %d), want (1, 0)", md, ld)
	}
	devs[3].Vth0 = 0.2
	if md, _ := Sweep(devs, nil, &cfg, &model); md != 3 {
		t.Errorf("noiseless sweep after a Vth0 write = %d, want 3", md)
	}
	for i := range drawn {
		if noise[i] != drawn[i] {
			t.Fatalf("a noiseless sweep advanced sensor %d's noise source", i)
		}
	}
	Sweep(devs, noise, &cfg, &model)
	for i := range drawn {
		if noise[i] == drawn[i] {
			t.Errorf("a noisy sweep drew nothing from sensor %d's source", i)
		}
	}
}

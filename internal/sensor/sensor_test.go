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

// newBank builds a bank over devs through Init, as a network does,
// splitting src into one read-noise source per sensor (src may be nil
// when cfg.NoiseSigma is 0).
func newBank(devs []nbti.Device, model *nbti.Params, cfg Config, src *rng.Source) (*Bank, error) {
	var noise []rng.Source
	if cfg.NoiseSigma > 0 && src != nil {
		noise = make([]rng.Source, len(devs))
		for i := range noise {
			src.SplitInto(&noise[i])
		}
	}
	b := &Bank{}
	if err := b.Init(devs, noise, model, &cfg); err != nil {
		return nil, err
	}
	return b, nil
}

// reading returns what a one-sensor bank over a device with initial
// threshold vth0 measures at its first refresh.
func reading(t *testing.T, vth0 float64, cfg Config) float64 {
	t.Helper()
	b, err := newBank(devices(vth0), &model, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return b.measure(0)
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
	if _, err := newBank(nil, &model, IdealConfig(), nil); err == nil {
		t.Fatal("bank over a nil device window accepted")
	}
	cfg := Config{SamplePeriod: 1, Horizon: nbti.SecondsPerYear}
	if _, err := newBank(devices(0.18), nil, cfg, nil); err == nil {
		t.Fatal("projecting bank without an NBTI model accepted")
	}
}

func TestNewRequiresRngForNoise(t *testing.T) {
	cfg := Config{SamplePeriod: 1, NoiseSigma: 1e-3}
	if _, err := newBank(devices(0.18), &model, cfg, nil); err == nil {
		t.Fatal("noisy sensor without rng accepted")
	}
	var b Bank
	if err := b.Init(devices(0.18, 0.18), make([]rng.Source, 1), &model, &cfg); err == nil {
		t.Fatal("noisy bank with fewer noise sources than sensors accepted")
	}
}

func TestIdealSensorReadsVth0(t *testing.T) {
	if got := reading(t, 0.1834, IdealConfig()); got != 0.1834 {
		t.Fatalf("Read = %v, want 0.1834", got)
	}
}

func TestQuantisation(t *testing.T) {
	got := reading(t, 0.18037, Config{SamplePeriod: 1, LSB: 0.5e-3})
	want := math.Round(0.18037/0.5e-3) * 0.5e-3
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("quantised read = %v, want %v", got, want)
	}
	if rem := math.Mod(got, 0.5e-3); math.Abs(rem) > 1e-12 && math.Abs(rem-0.5e-3) > 1e-12 {
		t.Fatalf("read %v not on LSB grid", got)
	}
}

// Between refreshes a bank holds its outputs without measuring: its
// sensors' noise streams do not advance until the period elapses.
func TestSamplePeriodHoldsValue(t *testing.T) {
	b, err := newBank(devices(0.18, 0.18), &model, Config{SamplePeriod: 100, NoiseSigma: 2e-3}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	first := b.MostDegraded(0)
	drawn := append([]rng.Source(nil), b.noise...)
	for c := uint64(1); c < 100; c++ {
		if md := b.MostDegraded(c); md != first {
			t.Fatalf("held output changed at cycle %d: %d != %d", c, md, first)
		}
	}
	for i := range drawn {
		if b.noise[i] != drawn[i] {
			t.Fatalf("sensor %d measured between sample periods", i)
		}
	}
	// At the sample period a fresh (noisy) measurement is taken.
	b.MostDegraded(100)
	for i := range drawn {
		if b.noise[i] == drawn[i] {
			t.Errorf("sensor %d took no fresh measurement at the sample period", i)
		}
	}
}

func TestHorizonProjectsStressHistory(t *testing.T) {
	devs := devices(0.180)
	devs[0].Tracker.Stress(90, 45)
	devs[0].Tracker.Recover(10)
	cfg := Config{SamplePeriod: 1, Horizon: 3 * nbti.SecondsPerYear}
	b, err := newBank(devs, &model, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := b.measure(0)
	want := 0.180 + model.DeltaVth(0.9, 3*nbti.SecondsPerYear)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("horizon read = %v, want %v", got, want)
	}
}

func TestBankMostDegradedStatic(t *testing.T) {
	devs := devices(0.178, 0.186, 0.181, 0.179)
	b, err := newBank(devs, &model, IdealConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.MostDegraded(0); got != 1 {
		t.Fatalf("MostDegraded = %d, want 1", got)
	}
	if b.Size() != 4 {
		t.Fatalf("Size = %d", b.Size())
	}
}

func TestBankTieResolvesToLowestIndex(t *testing.T) {
	devs := devices(0.186, 0.186, 0.181)
	b, err := newBank(devs, &model, IdealConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.MostDegraded(0); got != 0 {
		t.Fatalf("tie resolved to %d, want 0", got)
	}
}

func TestBankEmptyRejected(t *testing.T) {
	if _, err := newBank(nil, &model, IdealConfig(), nil); err == nil {
		t.Fatal("empty bank accepted")
	}
}

func TestBankCachesBetweenPeriods(t *testing.T) {
	devs := devices(0.180, 0.185)
	cfg := Config{SamplePeriod: 1000, Horizon: 3 * nbti.SecondsPerYear}
	b, err := newBank(devs, &model, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.MostDegraded(0); got != 1 {
		t.Fatalf("initial MD = %d, want 1", got)
	}
	// Pile stress onto VC0 so its projected Vth overtakes VC1.
	devs[0].Tracker.Stress(1000000, 0)
	devs[1].Tracker.Recover(1000000)
	// Within the sampling period the cached answer must hold.
	if got := b.MostDegraded(500); got != 1 {
		t.Fatalf("cached MD = %d, want 1", got)
	}
	// After the period, the comparator sees the new ranking.
	if got := b.MostDegraded(1000); got != 0 {
		t.Fatalf("refreshed MD = %d, want 0", got)
	}
}

func TestBankDynamicRankingFollowsDutyCycle(t *testing.T) {
	// With equal Vth0, the device with higher duty-cycle must become the
	// most degraded under a non-zero horizon.
	devs := devices(0.180, 0.180, 0.180)
	cfg := Config{SamplePeriod: 1, Horizon: nbti.SecondsPerYear}
	b, err := newBank(devs, &model, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	devs[2].Tracker.Stress(900, 0)
	devs[2].Tracker.Recover(100)
	devs[0].Tracker.Stress(100, 0)
	devs[0].Tracker.Recover(900)
	devs[1].Tracker.Stress(500, 0)
	devs[1].Tracker.Recover(500)
	if got := b.MostDegraded(0); got != 2 {
		t.Fatalf("dynamic MD = %d, want 2", got)
	}
}

func TestNoiseIsReproducible(t *testing.T) {
	mk := func() *Bank {
		devs := devices(0.180, 0.181)
		b, err := newBank(devs, &model, DefaultConfig(), rng.New(42))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := mk(), mk()
	for c := uint64(0); c < 5000; c += 500 {
		if a.MostDegraded(c) != b.MostDegraded(c) {
			t.Fatalf("noisy comparator diverged at cycle %d", c)
		}
	}
}

func TestBankLeastDegraded(t *testing.T) {
	devs := devices(0.182, 0.176, 0.185, 0.179)
	b, err := newBank(devs, &model, IdealConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.LeastDegraded(0); got != 1 {
		t.Fatalf("LeastDegraded = %d, want 1", got)
	}
	if got := b.MostDegraded(0); got != 2 {
		t.Fatalf("MostDegraded = %d, want 2", got)
	}
}

func TestBankLDTracksStress(t *testing.T) {
	devs := devices(0.180, 0.180)
	cfg := Config{SamplePeriod: 1, Horizon: nbti.SecondsPerYear}
	b, err := newBank(devs, &model, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	devs[0].Tracker.Stress(900, 0)
	devs[0].Tracker.Recover(100)
	devs[1].Tracker.Stress(100, 0)
	devs[1].Tracker.Recover(900)
	if got := b.LeastDegraded(0); got != 1 {
		t.Fatalf("dynamic LD = %d, want 1", got)
	}
}

func TestBankInitRejectsBadConfig(t *testing.T) {
	devs := devices(0.18)
	if _, err := newBank(devs, &model, Config{SamplePeriod: 0}, nil); err == nil {
		t.Fatal("bad config accepted by Init")
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

// Held and Evaluate read a bank without sampling it: Held returns the
// last refresh, Evaluate what a refresh would produce now.
func TestBankHeldAndEvaluate(t *testing.T) {
	devs := devices(0.178, 0.186, 0.181, 0.179)
	b, err := newBank(devs, &model, Config{SamplePeriod: 10, LSB: 0.5e-3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b.MostDegraded(1)
	if md, ld := b.Held(); md != 1 || ld != 0 {
		t.Fatalf("Held = (%d, %d), want (1, 0)", md, ld)
	}
	if md, ld := b.Evaluate(); md != 1 || ld != 0 {
		t.Fatalf("Evaluate = (%d, %d), want (1, 0)", md, ld)
	}
	devs[3].Vth0 = 0.2
	if md, _ := b.Evaluate(); md != 3 {
		t.Errorf("Evaluate after a Vth0 write = %d, want 3", md)
	}
	if md, _ := b.Held(); md != 1 {
		t.Errorf("Evaluate disturbed the held output: %d", md)
	}
	if got := b.MostDegraded(5); got != 1 {
		t.Errorf("Evaluate disturbed the sampling clock: MostDegraded(5) = %d, want the held 1", got)
	}
}

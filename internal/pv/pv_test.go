package pv

import (
	"math"
	"testing"
	"testing/quick"

	"nbtinoc/internal/rng"
)

func TestDefaultsValidate(t *testing.T) {
	if err := Default45nm().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Default32nm().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBad(t *testing.T) {
	cases := []Distribution{
		{MeanVth: 0, Sigma: 0.005},
		{MeanVth: 0.18, Sigma: -1},
		{MeanVth: 0.18, Sigma: 0.005, ClampSigmas: -2},
		{MeanVth: 0.01, Sigma: 0.005, ClampSigmas: 6}, // clamp window reaches <= 0
	}
	for i, d := range cases {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, d)
		}
	}
}

func TestSampleMoments(t *testing.T) {
	d := Default45nm()
	src := rng.New(1)
	const n = 100000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := d.Sample(src)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-0.180) > 1e-4 {
		t.Errorf("mean = %v, want 0.180", mean)
	}
	if math.Abs(sd-0.005) > 2e-4 {
		t.Errorf("sd = %v, want 0.005", sd)
	}
}

func TestSampleClamped(t *testing.T) {
	d := Distribution{MeanVth: 0.18, Sigma: 0.005, ClampSigmas: 1}
	src := rng.New(2)
	for i := 0; i < 10000; i++ {
		v := d.Sample(src)
		if v < 0.175-1e-12 || v > 0.185+1e-12 {
			t.Fatalf("sample %v escaped 1σ clamp", v)
		}
	}
}

func TestSampleNLength(t *testing.T) {
	d := Default45nm()
	got := d.SampleN(rng.New(3), 7)
	if len(got) != 7 {
		t.Fatalf("SampleN(7) returned %d values", len(got))
	}
}

func TestMostDegraded(t *testing.T) {
	cases := []struct {
		in   []float64
		want int
	}{
		{nil, -1},
		{[]float64{0.18}, 0},
		{[]float64{0.17, 0.19, 0.18}, 1},
		{[]float64{0.19, 0.19, 0.18}, 0}, // tie -> lowest index
		{[]float64{-1, -2}, 0},
	}
	for _, c := range cases {
		if got := MostDegraded(c.in); got != c.want {
			t.Errorf("MostDegraded(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestSampleNetworkShapeAndDeterminism(t *testing.T) {
	d := Default45nm()
	a := SampleNetwork(d, 77, 4, 5, 2)
	b := SampleNetwork(d, 77, 4, 5, 2)
	if a.Routers != 4 || a.Ports != 5 || a.VCs != 2 || len(a.Vth) != 4*5*2 {
		t.Fatalf("bad shape: %dx%dx%d over %d samples", a.Routers, a.Ports, a.VCs, len(a.Vth))
	}
	for r := 0; r < 4; r++ {
		for p := 0; p < 5; p++ {
			for v := 0; v < 2; v++ {
				if a.At(r, p, v) != b.At(r, p, v) {
					t.Fatalf("same seed diverged at %d/%d/%d", r, p, v)
				}
			}
		}
	}
	c := SampleNetwork(d, 78, 4, 5, 2)
	if a.At(0, 0, 0) == c.At(0, 0, 0) && a.At(3, 4, 1) == c.At(3, 4, 1) {
		t.Error("different seeds produced identical corner samples")
	}
}

func TestSampleNetworkPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative dimension")
		}
	}()
	SampleNetwork(Default45nm(), 1, -1, 5, 2)
}

func TestPortVths(t *testing.T) {
	m := SampleNetwork(Default45nm(), 5, 2, 3, 4)
	port := m.PortVths(1, 2)
	if len(port) != 4 {
		t.Fatalf("PortVths length = %d", len(port))
	}
	for i, v := range port {
		if v != m.At(1, 2, i) {
			t.Errorf("PortVths[%d] mismatch", i)
		}
	}
}

func TestQuickSamplesWithinClamp(t *testing.T) {
	f := func(seed uint64) bool {
		d := Default45nm()
		src := rng.New(seed)
		for i := 0; i < 100; i++ {
			v := d.Sample(src)
			if v < d.MeanVth-6*d.Sigma || v > d.MeanVth+6*d.Sigma {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMostDegradedIsArgmax(t *testing.T) {
	f := func(vals []float64) bool {
		idx := MostDegraded(vals)
		if len(vals) == 0 {
			return idx == -1
		}
		for _, v := range vals {
			if !(v <= vals[idx]) && !math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

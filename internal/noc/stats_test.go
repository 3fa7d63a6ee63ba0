package noc

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramEmpty(t *testing.T) {
	var h LatencyHistogram
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 || h.Percentile(50) != 0 {
		t.Error("empty histogram not zero")
	}
	if len(h.Buckets()) != 0 {
		t.Error("empty histogram has buckets")
	}
}

func TestHistogramBasics(t *testing.T) {
	var h LatencyHistogram
	for _, v := range []uint64{1, 2, 3, 4, 8, 16, 100} {
		h.Add(v)
	}
	if h.Count() != 7 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Max() != 100 {
		t.Errorf("max = %d", h.Max())
	}
	wantMean := float64(1+2+3+4+8+16+100) / 7
	if h.Mean() != wantMean {
		t.Errorf("mean = %v, want %v", h.Mean(), wantMean)
	}
}

func TestHistogramPercentiles(t *testing.T) {
	var h LatencyHistogram
	// 90 fast observations (latency 10 -> bucket upper edge 15), 10 slow
	// (latency 1000 -> upper edge 1023).
	for i := 0; i < 90; i++ {
		h.Add(10)
	}
	for i := 0; i < 10; i++ {
		h.Add(1000)
	}
	if p := h.Percentile(50); p != 15 {
		t.Errorf("p50 = %d, want 15", p)
	}
	if p := h.Percentile(90); p != 15 {
		t.Errorf("p90 = %d, want 15", p)
	}
	if p := h.Percentile(99); p != 1023 {
		t.Errorf("p99 = %d, want 1023", p)
	}
	if p := h.Percentile(150); p != 1023 {
		t.Errorf("clamped percentile = %d", p)
	}
}

func TestHistogramBucketsOrdered(t *testing.T) {
	var h LatencyHistogram
	for _, v := range []uint64{1000, 1, 50, 3} {
		h.Add(v)
	}
	bs := h.Buckets()
	if len(bs) != 4 {
		t.Fatalf("buckets = %d", len(bs))
	}
	for i := 1; i < len(bs); i++ {
		if bs[i].UpperEdge <= bs[i-1].UpperEdge {
			t.Fatal("buckets not ascending")
		}
	}
}

// bucketOfReference is the original shift-loop bucket computation kept
// as the specification for the bits.Len64 fast path.
func bucketOfReference(v uint64) int {
	b := 0
	for v > 1 && b < 39 {
		v >>= 1
		b++
	}
	return b
}

func TestBucketOfBoundaries(t *testing.T) {
	vals := []uint64{0, 1, 2, 3}
	for k := uint(1); k < 64; k++ {
		p := uint64(1) << k
		vals = append(vals, p-1, p, p+1)
	}
	vals = append(vals, ^uint64(0))
	for _, v := range vals {
		if got, want := bucketOf(v), bucketOfReference(v); got != want {
			t.Errorf("bucketOf(%d) = %d, want %d", v, got, want)
		}
	}
}

// TestBucketsAscendingAllBuckets fills every bucket and asserts the
// Buckets output is strictly ascending with no sort step: the index
// sweep alone must produce the order.
func TestBucketsAscendingAllBuckets(t *testing.T) {
	var h LatencyHistogram
	h.Add(0)
	for k := uint(0); k < 63; k++ {
		h.Add(uint64(1) << k)
	}
	bs := h.Buckets()
	if len(bs) != 40 {
		t.Fatalf("buckets = %d, want 40", len(bs))
	}
	for i := 1; i < len(bs); i++ {
		if bs[i].UpperEdge <= bs[i-1].UpperEdge {
			t.Fatalf("bucket %d edge %d not above %d", i, bs[i].UpperEdge, bs[i-1].UpperEdge)
		}
	}
}

func TestHistogramMergeAndReset(t *testing.T) {
	var a, b LatencyHistogram
	a.Add(5)
	a.Add(7)
	b.Add(100)
	a.Merge(&b)
	if a.Count() != 3 || a.Max() != 100 {
		t.Errorf("merge wrong: %s", a.String())
	}
	a.Reset()
	if a.Count() != 0 {
		t.Error("reset failed")
	}
}

func TestHistogramString(t *testing.T) {
	var h LatencyHistogram
	h.Add(4)
	s := h.String()
	for _, want := range []string{"n=1", "mean=4.0", "max=4"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
}

// Property: percentile upper bounds are monotone in p and bound max.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(vals []uint16) bool {
		var h LatencyHistogram
		for _, v := range vals {
			h.Add(uint64(v) + 1)
		}
		if h.Count() == 0 {
			return true
		}
		prev := uint64(0)
		for _, p := range []float64{10, 25, 50, 75, 90, 99, 100} {
			cur := h.Percentile(p)
			if cur < prev {
				return false
			}
			prev = cur
		}
		// p100 bucket upper edge must be >= the true max.
		return prev >= h.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNetworkLatencyHistogram(t *testing.T) {
	cfg := testConfig(2, 2, 2)
	n := runUniform(t, cfg, 0.2, 4, 3000, 31)
	h := n.LatencyHistogramAll()
	if h.Count() == 0 {
		t.Fatal("no latencies recorded")
	}
	if h.Count() != n.TotalEjectedPackets() {
		t.Errorf("histogram count %d != ejected %d", h.Count(), n.TotalEjectedPackets())
	}
	if h.Percentile(50) == 0 || h.Max() == 0 {
		t.Error("degenerate histogram")
	}
	// Mean from the histogram matches the NI sums.
	var sum float64
	var cnt uint64
	for i := 0; i < n.Nodes(); i++ {
		st := n.NI(NodeID(i)).Stats()
		sum += float64(st.LatencySum)
		cnt += st.EjectedPackets
	}
	if got, want := h.Mean(), sum/float64(cnt); got != want {
		t.Errorf("histogram mean %v != NI mean %v", got, want)
	}
	// The histogram is reset with the traffic stats.
	n.ResetTrafficStats()
	if h := n.LatencyHistogramAll(); h.Count() != 0 {
		t.Errorf("histogram kept %d latencies across ResetTrafficStats", h.Count())
	}
}

func TestLinkUtilizations(t *testing.T) {
	cfg := testConfig(2, 2, 2)
	n := runUniform(t, cfg, 0.3, 4, 4000, 33)
	links := n.LinkUtilizations(4000)
	if len(links) == 0 {
		t.Fatal("no links reported")
	}
	// 2x2 mesh: 8 mesh channels + 4 ejection + 4 injection = 16.
	if len(links) != 16 {
		t.Errorf("links = %d, want 16", len(links))
	}
	var anyLoad bool
	for _, l := range links {
		if l.Utilization < 0 || l.Utilization > 1.0001 {
			t.Errorf("utilization out of range: %+v", l)
		}
		if l.Utilization > 0 {
			anyLoad = true
		}
	}
	if !anyLoad {
		t.Error("all links idle under load")
	}
	hot, ok := n.MaxLinkUtilization(4000)
	if !ok || hot.Utilization <= 0 {
		t.Errorf("no hottest link: %+v", hot)
	}
	if got := n.LinkUtilizations(0); got != nil {
		t.Error("zero window returned links")
	}
}

package noc

import (
	"fmt"
	"math"
	"math/bits"
)

// LatencyHistogram accumulates packet latencies in power-of-two buckets
// (1, 2, 4, ... cycles), supporting approximate percentile queries
// without storing samples. The zero value is ready to use.
type LatencyHistogram struct {
	buckets [40]uint64
	count   uint64
	sum     uint64
	max     uint64
}

// bucketOf returns the bucket index for a latency value: the position
// of the value's highest set bit, capped at the last bucket.
func bucketOf(v uint64) int {
	if v <= 1 {
		return 0
	}
	b := bits.Len64(v) - 1
	if b > 39 {
		return 39
	}
	return b
}

// Add records one latency observation.
func (h *LatencyHistogram) Add(latency uint64) {
	h.buckets[bucketOf(latency)]++
	h.count++
	h.sum += latency
	if latency > h.max {
		h.max = latency
	}
}

// Count returns the number of observations.
func (h *LatencyHistogram) Count() uint64 { return h.count }

// Mean returns the mean latency (0 when empty).
func (h *LatencyHistogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Max returns the maximum observed latency.
func (h *LatencyHistogram) Max() uint64 { return h.max }

// Percentile returns an upper bound of the p-th percentile (p in
// (0, 100]): the upper edge of the bucket containing that rank. It
// returns 0 when empty.
func (h *LatencyHistogram) Percentile(p float64) uint64 {
	if h.count == 0 || p <= 0 {
		return 0
	}
	if p > 100 {
		p = 100
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.count)))
	var seen uint64
	for b, c := range h.buckets {
		seen += c
		if seen >= rank {
			return upperEdge(b)
		}
	}
	return h.max
}

// Merge adds other's observations into h.
func (h *LatencyHistogram) Merge(other *LatencyHistogram) {
	for i := range h.buckets {
		h.buckets[i] += other.buckets[i]
	}
	h.count += other.count
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}

// Reset clears the histogram.
func (h *LatencyHistogram) Reset() { *h = LatencyHistogram{} }

// Buckets returns the non-empty buckets as (upper-edge, count) pairs in
// ascending order. The bucket array is indexed by bit position and
// upperEdge is monotonic in the index, so the index sweep already yields
// ascending edges.
func (h *LatencyHistogram) Buckets() []BucketCount {
	var out []BucketCount
	for b, c := range h.buckets {
		if c > 0 {
			out = append(out, BucketCount{UpperEdge: upperEdge(b), Count: c})
		}
	}
	return out
}

// BucketCount is one histogram bucket.
type BucketCount struct {
	// UpperEdge is the largest latency the bucket covers.
	UpperEdge uint64
	Count     uint64
}

// upperEdge returns the largest value mapping to bucket b.
func upperEdge(b int) uint64 {
	if b == 0 {
		return 1
	}
	return (uint64(1) << uint(b+1)) - 1
}

// String renders a compact summary.
func (h *LatencyHistogram) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50<=%d p95<=%d p99<=%d max=%d",
		h.count, h.Mean(), h.Percentile(50), h.Percentile(95), h.Percentile(99), h.max)
}

// LinkUtilization describes one directed channel's load.
type LinkUtilization struct {
	// From/FromPort identify the upstream endpoint ("NI" when the
	// channel is an injection link).
	From     NodeID
	FromPort Port
	// Injection marks NI→router channels; Ejection router→NI ones.
	Injection, Ejection bool
	// Flits is the number of flits carried since the last counter reset.
	Flits uint64
	// Utilization is flits × phits / cycles, in [0, 1].
	Utilization float64
}

// LinkUtilizations returns the utilization of every directed channel
// over the cycles since the last event-counter reset (pass the measured
// window length).
func (n *Network) LinkUtilizations(window uint64) []LinkUtilization {
	if window == 0 {
		return nil
	}
	phits := float64(n.cfg.PhitsPerFlit)
	var out []LinkUtilization
	add := func(from NodeID, port Port, inj, ej bool, flits uint64) {
		out = append(out, LinkUtilization{
			From: from, FromPort: port, Injection: inj, Ejection: ej,
			Flits:       flits,
			Utilization: float64(flits) * phits / float64(window),
		})
	}
	for i := range n.routers {
		r := &n.routers[i]
		_, outs := r.units(n)
		for p := Port(0); p < NumPorts; p++ {
			if r.ports>>uint(p)&1 != 0 {
				add(r.id, p, false, p == Local, outs[p].flitsSent)
			}
		}
	}
	for i := range n.nis {
		ni := &n.nis[i]
		inj, _ := ni.units(n)
		add(ni.id, Local, true, false, inj.flitsSent)
	}
	return out
}

// MaxLinkUtilization returns the hottest channel.
func (n *Network) MaxLinkUtilization(window uint64) (LinkUtilization, bool) {
	links := n.LinkUtilizations(window)
	if len(links) == 0 {
		return LinkUtilization{}, false
	}
	best := links[0]
	for _, l := range links[1:] {
		if l.Utilization > best.Utilization {
			best = l
		}
	}
	return best, true
}

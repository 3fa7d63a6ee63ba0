package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// span accumulates the calls into one layer entry point and the host
// time they took. Spans are leaves timed back to back from the
// benchmark's own loop, so a span's time is its self time.
type span struct {
	calls int64
	ns    int64
}

// lap charges the interval since t to the span and returns the new
// boundary, so consecutive spans share one clock read per call.
func (s *span) lap(t time.Time) time.Time {
	now := time.Now()
	s.calls++
	s.ns += int64(now.Sub(t))
	return now
}

func (s *span) add(d time.Duration) {
	s.calls++
	s.ns += int64(d)
}

func (s span) seconds() float64 { return float64(s.ns) / 1e9 }

func (s *span) merge(o span) {
	s.calls += o.calls
	s.ns += o.ns
}

// median returns the middle value (mean of the two middle values for
// an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// peakRSSMB returns the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Package cli is the boundary the binaries under cmd/ share. It turns
// the -cache/-cache-dir flags into a result store, owns the host wall
// clock that the libraries under internal/ take by injection, prints
// the -v progress line, and starts and finishes the profiling and
// metrics flags.
//
// The wall-clock reads below are the repository's only waived ones
// outside package main. Go's internal rule lets only the binaries
// import this package, so no library code can reach the clock through
// it and the nbtilint wallclock analyzer keeps its meaning.
package cli

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"nbtinoc/internal/cache"
	"nbtinoc/internal/metrics"
	"nbtinoc/internal/noc"
	"nbtinoc/internal/prof"
)

// Now returns the host wall clock in Unix nanoseconds: cache entry
// durations, lease heartbeats, daemon job timestamps and display-only
// timings. It never feeds simulator state or reproduced output.
func Now() int64 {
	//nbtilint:allow wallclock host boundary: timestamps for cache accounting, leases, job records and display only, never simulator state or outputs
	return time.Now().UnixNano()
}

// Sleep blocks for ns nanoseconds; lease waiters pace their polls
// with it.
func Sleep(ns int64) {
	//nbtilint:allow wallclock host boundary: lease waiters sleep between polls; cache contents and outputs are independent of any timing
	time.Sleep(time.Duration(ns))
}

// After returns a channel that closes once ns nanoseconds have passed,
// the daemon's per-job timeout timer.
func After(ns int64) <-chan struct{} {
	c := make(chan struct{})
	//nbtilint:allow wallclock host boundary: per-job timeout timer of the daemon, an operational concern injected into internal/service
	time.AfterFunc(time.Duration(ns), func() { close(c) })
	return c
}

// LeasePolicy returns cache.DefaultLeasePolicy sleeping on the host
// clock. A positive ttl overrides the staleness horizon and caps the
// heartbeat at a fifth of it.
func LeasePolicy(ttl time.Duration) *cache.LeasePolicy {
	lease := cache.DefaultLeasePolicy(Sleep)
	if ttl > 0 {
		lease.TTLNS = int64(ttl)
		if hb := lease.TTLNS / 5; hb < lease.HeartbeatNS {
			lease.HeartbeatNS = hb
		}
	}
	return lease
}

// Flags is the flag surface the binaries share. Register the groups a
// binary exposes, parse the flag set, then Start.
type Flags struct {
	// Prog prefixes every line this package writes to stderr.
	Prog string

	prof                prof.Flags
	monitor, metricsOut string
	cacheMode, cacheDir string
}

// RegisterProfile adds -cpuprofile, -memprofile and the execution
// trace flag named traceFlag.
func (f *Flags) RegisterProfile(fs *flag.FlagSet, traceFlag string) {
	f.prof.Register(fs, traceFlag)
}

// RegisterMetrics adds -monitor and -metrics-out.
func (f *Flags) RegisterMetrics(fs *flag.FlagSet) {
	fs.StringVar(&f.monitor, "monitor", "",
		"serve a live run monitor (Prometheus /metrics, JSON snapshot, pprof) on this address, e.g. :9090")
	fs.StringVar(&f.metricsOut, "metrics-out", "",
		"write the final metrics registry snapshot to this file as JSON")
}

// RegisterCache adds -cache and -cache-dir.
func (f *Flags) RegisterCache(fs *flag.FlagSet) {
	fs.StringVar(&f.cacheMode, "cache", "rw", "result cache mode: off, ro or rw")
	fs.StringVar(&f.cacheDir, "cache-dir", "", "result cache directory (default: user cache dir)")
}

// Session is a started binary: its profiles run and its metrics
// registry, if any, is installed. Finish it exactly once.
type Session struct {
	flags        *Flags
	stopProf     func() error
	reg          *metrics.Registry
	mon          *metrics.Monitor
	stopProgress func()
}

// Start begins the requested profiles, then installs a metrics
// registry when -monitor or -metrics-out asks for one or instrument is
// set (the -v progress line and the daemon's /metrics read it), and
// serves -monitor.
func (f *Flags) Start(instrument bool) (*Session, error) {
	stopProf, err := f.prof.Start()
	if err != nil {
		return nil, err
	}
	s := &Session{flags: f, stopProf: stopProf}
	if f.monitor == "" && f.metricsOut == "" && !instrument {
		return s, nil
	}
	s.reg = metrics.New()
	metrics.SetDefault(s.reg)
	if f.monitor != "" {
		if s.mon, err = metrics.Serve(f.monitor, s.reg, prof.HTTPHandler()); err != nil {
			metrics.SetDefault(nil)
			_ = stopProf() // the monitor error is the one to report
			return nil, err
		}
		s.Logf("monitor listening on http://%s", s.mon.Addr())
	}
	return s, nil
}

// OpenCache returns the result store -cache and -cache-dir select.
// Mode off gives a nil store, the always-compute pass-through; an empty
// dir means cache.DefaultDir. Every store gets the host clock, so hits
// can report the time they saved, and a read-write store also leases,
// so processes sharing the directory never compute one scenario twice.
// A store resolves its metric instruments when opened, so only a
// started Session opens one.
func (s *Session) OpenCache() (*cache.Store, error) {
	m, err := cache.ParseMode(s.flags.cacheMode)
	if err != nil {
		return nil, err
	}
	if m == cache.Off {
		return nil, nil
	}
	dir := s.flags.cacheDir
	if dir == "" {
		dir = cache.DefaultDir()
	}
	st := cache.Open(dir, m)
	st.Clock = Now
	if m == cache.ReadWrite {
		st.Lease = LeasePolicy(0)
	}
	st.Warnf = func(format string, args ...any) { s.Logf("cache: "+format, args...) }
	return st, nil
}

// Logf writes one line to stderr, prefixed with the binary's name.
func (s *Session) Logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, s.flags.Prog+": "+format+"\n", args...)
}

// progressEvery paces the -v progress line.
const progressEvery = 2 * time.Second

// Progress prints p to stderr every two seconds until Finish. It reads
// the installed registry, counts simulated cycles, samples the heap
// and prefixes p.Extra with the share of cycles fast-forward covered.
func (s *Session) Progress(p *metrics.Progress) {
	r := metrics.Default()
	p.R, p.Cycles, p.SampleHeap = r, noc.MetricCycles, true
	extra := p.Extra
	p.Extra = func() string {
		line := ffShare(r)
		if extra != nil {
			if ex := extra(); ex != "" {
				line = strings.TrimSpace(line + " " + ex)
			}
		}
		return line
	}
	p.Start(Now())
	//nbtilint:allow wallclock host boundary: the ticker paces the stderr progress line only
	tick := time.NewTicker(progressEvery)
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				s.Logf("%s", p.Line(Now()))
			}
		}
	}()
	s.stopProgress = func() {
		tick.Stop()
		close(done)
		<-exited
	}
}

// Finish stops the progress line, then finishes the metrics and the
// profiles. The first failure lands in *err unless it already holds
// one.
func (s *Session) Finish(err *error) {
	if s.stopProgress != nil {
		s.stopProgress()
	}
	for _, finish := range []func() error{s.finishMetrics, s.stopProf} {
		if ferr := finish(); ferr != nil && *err == nil {
			*err = ferr
		}
	}
}

// finishMetrics stops the monitor, uninstalls the registry (tests run
// several binaries' run functions in one process) and writes the
// -metrics-out snapshot.
func (s *Session) finishMetrics() error {
	if s.reg == nil {
		return nil
	}
	// A final heap sample so the peak gauge reaches the snapshot even
	// when no progress line sampled during the run.
	metrics.SampleHeapPeak(s.reg)
	metrics.SetDefault(nil)
	err := s.mon.Close()
	if out := s.flags.metricsOut; out != "" {
		f, ferr := os.Create(out)
		if ferr != nil {
			return ferr
		}
		if werr := s.reg.WriteJSON(f); werr != nil {
			f.Close()
			return werr
		}
		if cerr := f.Close(); cerr != nil {
			return cerr
		}
	}
	return err
}

// ffShare renders the fraction of simulated cycles covered by
// event-horizon fast-forward. It stays empty until the first bulk
// jump, so fully busy runs keep the progress line unchanged.
func ffShare(r *metrics.Registry) string {
	ff := r.CounterValue(noc.MetricCyclesFastForwarded)
	cycles := r.CounterValue(noc.MetricCycles)
	if ff == 0 || cycles == 0 {
		return ""
	}
	return fmt.Sprintf("ff %.1f%%", 100*float64(ff)/float64(cycles))
}

package cli

import (
	"flag"
	"io"
	"path/filepath"
	"testing"
	"time"

	"nbtinoc/internal/cache"
	"nbtinoc/internal/metrics"
	"nbtinoc/internal/noc"
)

// TestOpenCache: off gives no store, every store gets the host clock,
// and only a read-write store leases, so every binary's rw store takes
// part in cross-process single-flight.
func TestOpenCache(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		mode      string
		wantStore bool
		wantLease bool
		wantErr   bool
	}{
		{"off", false, false, false},
		{"ro", true, false, false},
		{"rw", true, true, false},
		{"bogus", false, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.mode, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			f := Flags{Prog: "test"}
			f.RegisterCache(fs)
			if err := fs.Parse([]string{"-cache", tc.mode, "-cache-dir", filepath.Join(dir, tc.mode)}); err != nil {
				t.Fatal(err)
			}
			sess, err := f.Start(false)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Finish(&err)
			st, err := sess.OpenCache()
			if (err != nil) != tc.wantErr {
				t.Fatalf("OpenCache error = %v, want error %v", err, tc.wantErr)
			}
			if (st != nil) != tc.wantStore {
				t.Fatalf("store = %v, want a store %v", st, tc.wantStore)
			}
			if st == nil {
				return
			}
			if st.Clock == nil || st.Clock() <= 0 {
				t.Error("store has no host clock")
			}
			if (st.Lease != nil) != tc.wantLease {
				t.Fatalf("lease = %+v, want a lease %v", st.Lease, tc.wantLease)
			}
			if tc.wantLease && st.Lease.TTLNS != cache.DefaultLeaseTTLNS {
				t.Errorf("lease TTL %d ns, want the default %d ns", st.Lease.TTLNS, cache.DefaultLeaseTTLNS)
			}
		})
	}
}

// TestLeasePolicyTTL: a positive ttl overrides the staleness horizon
// and keeps the heartbeat at most a fifth of it.
func TestLeasePolicyTTL(t *testing.T) {
	if got := LeasePolicy(0); got.TTLNS != cache.DefaultLeaseTTLNS || got.HeartbeatNS != cache.DefaultLeaseHeartbeatNS {
		t.Errorf("LeasePolicy(0) = %+v, want the defaults", got)
	}
	got := LeasePolicy(time.Second)
	if got.TTLNS != int64(time.Second) || got.HeartbeatNS > got.TTLNS/5 {
		t.Errorf("LeasePolicy(1s) = %+v, want TTL 1s and heartbeat <= 200ms", got)
	}
}

// TestProgressAnnotation: the progress line's annotation leads with the
// fast-forward share once a bulk jump happened, then the binary's own
// Extra, and Finish returns only after the ticker goroutine exited.
func TestProgressAnnotation(t *testing.T) {
	f := Flags{Prog: "test"}
	sess, err := f.Start(true)
	if err != nil {
		t.Fatal(err)
	}
	r := metrics.Default()
	extra := ""
	p := &metrics.Progress{Extra: func() string { return extra }}
	sess.Progress(p)
	steps := []struct {
		cycles, ff uint64
		extra      string
		want       string
	}{
		{0, 0, "", ""},
		{0, 0, "lease wait 1 steal 0", "lease wait 1 steal 0"},
		{400, 100, "", "ff 25.0%"},
		{0, 0, "lease wait 1 steal 0", "ff 25.0% lease wait 1 steal 0"},
	}
	for _, s := range steps {
		r.Counter(noc.MetricCycles, "").Add(s.cycles)
		r.Counter(noc.MetricCyclesFastForwarded, "").Add(s.ff)
		extra = s.extra
		if got := p.Extra(); got != s.want {
			t.Errorf("annotation %q, want %q", got, s.want)
		}
	}
	var ferr error
	sess.Finish(&ferr)
	if ferr != nil {
		t.Fatal(ferr)
	}
	if metrics.Default() != nil {
		t.Error("Finish left the registry installed")
	}
}

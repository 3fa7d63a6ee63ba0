package cache

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// Cross-process single-flight.
//
// The in-process flight map deduplicates concurrent Do calls inside one
// process; lease files extend the same guarantee across processes that
// share a cache directory. On a miss the computing process claims the
// key by publishing a lease file next to the (future) entry; other
// processes that miss on the same key observe the lease and poll for
// the entry instead of recomputing. The protocol never trusts a lease
// forever: the holder refreshes a heartbeat timestamp while computing,
// and a lease whose heartbeat stops advancing for TTLNS (holder killed,
// machine rebooted mid-campaign) is reaped by whoever notices, who then
// claims the key and recomputes.
//
// Every transition is a single atomic filesystem operation, so no
// observer ever sees a half-written lease:
//
//   - acquire: write the lease body to a temp file, then link(2) it to
//     the lease path. Link fails with EEXIST when the key is already
//     held — the claim and the existence check are one atomic step.
//   - refresh: write the new heartbeat to a temp file, then rename(2)
//     over the lease path. Only the holder refreshes, so the replace
//     cannot race another writer.
//   - reap: rename(2) the expired lease to a reaper-owned name. Rename
//     succeeds for exactly one reaper; the losers see ENOENT and retry
//     the acquire path.
//
// A reaped-then-recomputed key and a normally-computed key persist
// byte-identical entries (the simulator is deterministic), so even the
// worst-case race — a lease misjudged as stale while its holder is
// still alive — costs a duplicate compute, never a wrong or torn
// result. Corrupt lease files (truncated by a crash mid-write of a
// non-atomic filesystem, or hand-damaged) are treated exactly like
// stale ones: counted, reaped, recomputed.

// LeasePolicy configures cross-process single-flight on a Store. All
// durations are nanoseconds; the wall clock and the sleeping are
// injected by package main (tests inject fakes), so the library itself
// never touches time — the same division of labour as Store.Clock under
// the nbtilint wallclock rule.
type LeasePolicy struct {
	// TTLNS is the staleness horizon: a lease whose heartbeat is older
	// than this is considered abandoned and reaped.
	TTLNS int64
	// HeartbeatNS is the refresh period of the holder while computing.
	// It must be well below TTLNS (a factor of 3 or more) so one missed
	// beat never looks like a death.
	HeartbeatNS int64
	// PollNS is how long a waiter sleeps between checks for the entry.
	PollNS int64
	// Sleep blocks for the given nanoseconds. Injected (time.Sleep in
	// CLIs, a fake in tests); leases are inert when nil.
	Sleep func(ns int64)
}

// DefaultLeaseNS are the CLI defaults: takeover after 10 s of silence,
// a 2 s heartbeat, a 25 ms waiter poll.
const (
	DefaultLeaseTTLNS       = int64(10_000_000_000)
	DefaultLeaseHeartbeatNS = int64(2_000_000_000)
	DefaultLeasePollNS      = int64(25_000_000)
)

// DefaultLeasePolicy returns the default timing constants with the
// given sleeper.
func DefaultLeasePolicy(sleep func(ns int64)) *LeasePolicy {
	return &LeasePolicy{
		TTLNS:       DefaultLeaseTTLNS,
		HeartbeatNS: DefaultLeaseHeartbeatNS,
		PollNS:      DefaultLeasePollNS,
		Sleep:       sleep,
	}
}

// leaseSchema versions the lease file body, like entrySchema for
// entries: an incompatible future body is "corrupt" to this build and
// reaped rather than misread.
const leaseSchema = 1

// lease is the on-disk lease body.
type lease struct {
	Schema int    `json:"schema"`
	Key    string `json:"key"`
	// Owner identifies the holder (pid plus acquisition timestamp) for
	// diagnostics and for recognising our own lease on refresh.
	Owner string `json:"owner"`
	PID   int    `json:"pid"`
	// BeatNS is the holder's last heartbeat, in the holder's Clock
	// domain. Workers sharing a cache dir share a machine (and hence a
	// clock); staleness is judged against the observer's Clock.
	BeatNS int64 `json:"beat_ns"`
}

// leasePath maps a key to its lease file, sharded alongside the entry.
func (s *Store) leasePath(key string) string {
	return filepath.Join(s.dir, key[:2], key+".lease")
}

// leased reports whether the cross-process protocol is active: a policy
// with a sleeper, a clock to judge staleness, and a writable store (a
// read-only store never computes into the shared dir, so it has nothing
// to claim).
func (s *Store) leased() bool {
	return s.Lease != nil && s.Lease.Sleep != nil && s.Clock != nil && s.mode == ReadWrite
}

// writeLeaseTemp writes a lease body to a temp file in the lease's
// directory, returning the temp path.
func (s *Store) writeLeaseTemp(l lease) (string, error) {
	data, err := json.Marshal(l)
	if err != nil {
		return "", err
	}
	dir := filepath.Dir(s.leasePath(l.Key))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tmp, err := os.CreateTemp(dir, "."+l.Key[:8]+"-lease-*.tmp")
	if err != nil {
		return "", err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	return tmp.Name(), nil
}

// acquireLease attempts to claim key. It returns the held lease body on
// success. Failure to claim because another process holds the lease is
// (lease{}, false, nil); filesystem trouble is returned as an error and
// treated by callers as "compute without coordination" — a damaged
// filesystem can cost duplicate work but never a failed run.
func (s *Store) acquireLease(key string) (lease, bool, error) {
	l := lease{
		Schema: leaseSchema,
		Key:    key,
		PID:    os.Getpid(),
		BeatNS: s.Clock(),
	}
	l.Owner = fmt.Sprintf("%d-%d", l.PID, l.BeatNS)
	tmp, err := s.writeLeaseTemp(l)
	if err != nil {
		return lease{}, false, err
	}
	err = os.Link(tmp, s.leasePath(key))
	os.Remove(tmp)
	if err == nil {
		return l, true, nil
	}
	if errors.Is(err, fs.ErrExist) {
		return lease{}, false, nil
	}
	return lease{}, false, err
}

// refreshLease republishes the holder's lease with a fresh heartbeat:
// temp file + rename, atomically replacing the previous body. If the
// lease was reaped out from under a live holder (a TTL misjudgement),
// the rename simply re-creates it; the resulting duplicate compute is
// benign (see the package comment).
func (s *Store) refreshLease(l lease) error {
	l.BeatNS = s.Clock()
	tmp, err := s.writeLeaseTemp(l)
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, s.leasePath(l.Key)); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// releaseLease drops the holder's claim after the entry is persisted
// (or the compute failed and someone else should try).
func (s *Store) releaseLease(key string) {
	os.Remove(s.leasePath(key))
}

// heartbeat is a lease holder's refresh goroutine.
type heartbeat struct {
	// mu guards stopped and is held across each refresh, so no refresh
	// can land after stop returns.
	mu      sync.Mutex
	stopped bool
	// exited is closed when the goroutine returns.
	exited chan struct{}
}

// startHeartbeat refreshes l every HeartbeatNS until stop. The period
// is slept in PollNS slices so a stopped goroutine exits within one
// slice, but stop never waits for the sleeper: the holder releases its
// lease as soon as the entry is persisted.
func (s *Store) startHeartbeat(l lease) *heartbeat {
	h := &heartbeat{exited: make(chan struct{})}
	step := s.Lease.PollNS
	if step <= 0 || step > s.Lease.HeartbeatNS {
		step = s.Lease.HeartbeatNS
	}
	go func() {
		defer close(h.exited)
		for slept := int64(0); ; {
			s.Lease.Sleep(step)
			slept += step
			h.mu.Lock()
			if h.stopped {
				h.mu.Unlock()
				return
			}
			var err error
			if slept >= s.Lease.HeartbeatNS {
				slept = 0
				err = s.refreshLease(l)
			}
			h.mu.Unlock()
			if err != nil {
				s.warnf("refreshing lease %s: %v", l.Key, err)
			}
		}
	}()
	return h
}

// stop ends the heartbeat without waiting for its sleeper; a refresh
// already in progress completes first.
func (h *heartbeat) stop() {
	h.mu.Lock()
	h.stopped = true
	h.mu.Unlock()
}

// readLease loads and validates the lease for key. ok=false with
// stale=false means no lease exists; ok=false with stale=true means a
// lease file exists but is unreadable or structurally wrong (counted as
// corrupt by the caller) and should be reaped.
func (s *Store) readLease(key string) (l lease, ok, corrupt bool) {
	data, err := os.ReadFile(s.leasePath(key))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return lease{}, false, false
		}
		return lease{}, false, true
	}
	if err := json.Unmarshal(data, &l); err != nil {
		return lease{}, false, true
	}
	if l.Schema != leaseSchema || l.Key != key || l.BeatNS <= 0 {
		return lease{}, false, true
	}
	return l, true, false
}

// reapLease atomically retires a stale or corrupt lease: rename to a
// reaper-unique name, then remove. Exactly one concurrent reaper wins
// the rename; the others see ENOENT and simply retry their acquire.
func (s *Store) reapLease(key string) bool {
	dead := fmt.Sprintf("%s.reaped-%d-%d", s.leasePath(key), os.Getpid(), s.Clock())
	if err := os.Rename(s.leasePath(key), dead); err != nil {
		return false
	}
	os.Remove(dead)
	return true
}

// claimResult is how the lease protocol left a missed key.
type claimResult int

const (
	// claimHeld: this store holds the lease and computes.
	claimHeld claimResult = iota
	// claimServed: another process's entry was served.
	claimServed
	// claimBusy: a live foreign lease holds the key and the caller
	// would not wait.
	claimBusy
	// claimNone: lease trouble; compute without coordination.
	claimNone
)

// claim runs the cross-process protocol for a missed key: claim it, or
// wait out another process's claim and serve its entry (with wait=false,
// step aside from a live holder instead). Stale and corrupt leases are
// reaped and the claim retried. Filesystem trouble around the lease
// dance must never fail a run, so it degrades to an uncoordinated
// compute.
func (s *Store) claim(key string, f *flight, decode func([]byte) error, wait bool) (lease, claimResult) {
	waited := false
	for {
		l, acquired, err := s.acquireLease(key)
		if err != nil {
			s.warnf("acquiring lease %s: %v (computing without coordination)", key, err)
			return lease{}, claimNone
		}
		if acquired {
			// A holder may have persisted and released between the
			// caller's first lookup and this acquire; computing would
			// then duplicate its entry.
			if s.serve(key, f, decode) {
				s.releaseLease(key)
				return lease{}, claimServed
			}
			s.note(func(st *Stats) { st.LeaseAcquired++ })
			s.met.leaseAcquired.Inc()
			return l, claimHeld
		}
		held, ok, corrupt := s.readLease(key)
		switch {
		case corrupt:
			s.note(func(st *Stats) { st.LeaseCorrupt++ })
			s.met.leaseCorrupt.Inc()
			s.warnf("lease %s: corrupt (reaping and recomputing)", key)
			s.reapLease(key)
			continue
		case !ok:
			// Released between our acquire attempt and the read: the
			// holder finished (entry should be there) or failed (we
			// should claim). Check the entry, then retry the acquire.
		case s.Clock()-held.BeatNS > s.Lease.TTLNS:
			s.note(func(st *Stats) { st.LeaseTakeovers++ })
			s.met.leaseTakeovers.Inc()
			s.warnf("lease %s: stale (owner %s, silent beyond ttl; taking over)", key, held.Owner)
			s.reapLease(key)
			continue
		default:
			if !waited {
				waited = true
				s.note(func(st *Stats) { st.LeaseWaited++ })
				s.met.leaseWaited.Inc()
			}
			if !wait {
				return lease{}, claimBusy
			}
			s.Lease.Sleep(s.Lease.PollNS)
		}
		if s.serve(key, f, decode) {
			return lease{}, claimServed
		}
	}
}

// computePersist runs compute, timestamps it, and persists the entry in
// read-write mode — the shared tail of the coordinated and
// uncoordinated miss paths. Stats for the miss itself are counted by
// the caller (lead).
func (s *Store) computePersist(key string, compute func() ([]byte, error)) (value []byte, computeNS int64, err error) {
	var start int64
	if s.Clock != nil {
		start = s.Clock()
	}
	value, err = compute()
	if err != nil {
		return nil, 0, err
	}
	if s.Clock != nil {
		computeNS = s.Clock() - start
	}
	if s.mode == ReadWrite {
		if perr := s.persist(key, value, computeNS); perr != nil {
			s.warnf("writing entry %s: %v", key, perr)
		} else {
			s.note(func(st *Stats) { st.BytesWritten += int64(len(value)) })
			s.met.writtenBytes.Add(uint64(len(value)))
		}
	}
	return value, computeNS, nil
}

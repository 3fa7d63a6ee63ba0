// Package cache is a content-addressed, disk-backed store for
// deterministic simulation results. The simulator is byte-deterministic
// per (engine, config, policy, workload, seed, windows) — the golden
// tests in cmd/tables pin that — so a cached result is indistinguishable
// from a recomputed one and memoization is exact, not approximate.
//
// Keys are SHA-256 digests of a canonical JSON encoding of the full
// scenario (see internal/sim.SpecKey); values are opaque JSON blobs
// owned by the caller. Entries live under dir/<key[:2]>/<key>.json and
// are written atomically (temp file + rename), so a concurrent reader
// never observes a partial entry. A corrupted or truncated entry is
// treated as a miss: the store warns, recomputes and (in read-write
// mode) overwrites it — a damaged cache can slow a run down but never
// fail or falsify it.
//
// The store is safe under the sim worker pool: concurrent Do calls for
// the same key are deduplicated in-process (single-flight), so N pool
// workers racing on one scenario perform exactly one compute.
package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Mode selects how a Store touches the disk.
type Mode int

const (
	// Off disables the cache entirely: Do always computes.
	Off Mode = iota
	// ReadOnly serves hits from disk but never writes new entries —
	// useful for reproducing published results against a pinned cache.
	ReadOnly
	// ReadWrite serves hits and persists misses.
	ReadWrite
)

// ParseMode parses the CLI spelling of a mode: off, ro or rw.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "off":
		return Off, nil
	case "ro":
		return ReadOnly, nil
	case "rw":
		return ReadWrite, nil
	default:
		return Off, fmt.Errorf("cache: unknown mode %q (want off, ro or rw)", s)
	}
}

// String renders the CLI spelling.
func (m Mode) String() string {
	switch m {
	case ReadOnly:
		return "ro"
	case ReadWrite:
		return "rw"
	default:
		return "off"
	}
}

// DefaultDir returns the default on-disk cache location: the user cache
// directory when the platform provides one, a repo-local fallback
// otherwise.
func DefaultDir() string {
	if dir, err := os.UserCacheDir(); err == nil && dir != "" {
		return filepath.Join(dir, "nbtinoc")
	}
	return ".nbticache"
}

// KeyOf returns the content address of v: the SHA-256 hex digest of its
// canonical JSON encoding. encoding/json emits struct fields in
// declaration order and floats in shortest-round-trip form, so equal
// values always produce equal keys.
func KeyOf(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("cache: keying: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// Stats counts what a store did over its lifetime. All sizes are value
// bytes (the cached payload, not the on-disk envelope). The JSON tags
// are the cross-process wire format: sweep workers serialise their
// per-process Stats for the coordinator to Add into a campaign total.
type Stats struct {
	// Hits and Misses count disk lookups; Deduped counts calls that
	// joined an in-flight leader instead of touching disk or computing.
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Deduped int64 `json:"deduped"`
	// Corrupt counts entries that failed to load and were recomputed.
	Corrupt int64 `json:"corrupt"`
	// BytesRead / BytesWritten are the value payload volumes.
	BytesRead    int64 `json:"bytes_read"`
	BytesWritten int64 `json:"bytes_written"`
	// TimeSavedNS accumulates the recorded compute duration of every
	// hit and dedup — zero when no Clock was installed at write time.
	TimeSavedNS int64 `json:"time_saved_ns"`
	// LeaseAcquired counts keys this store claimed for cross-process
	// single-flight; LeaseWaited counts Do calls that found another
	// process's claim and waited (or, for TryDo, stepped aside).
	LeaseAcquired int64 `json:"lease_acquired,omitempty"`
	LeaseWaited   int64 `json:"lease_waited,omitempty"`
	// LeaseTakeovers counts stale leases reaped after their holder went
	// silent; LeaseCorrupt counts unreadable lease files reaped.
	LeaseTakeovers int64 `json:"lease_takeovers,omitempty"`
	LeaseCorrupt   int64 `json:"lease_corrupt,omitempty"`
}

// Sub returns the delta s − o, for per-phase reporting.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Hits:           s.Hits - o.Hits,
		Misses:         s.Misses - o.Misses,
		Deduped:        s.Deduped - o.Deduped,
		Corrupt:        s.Corrupt - o.Corrupt,
		BytesRead:      s.BytesRead - o.BytesRead,
		BytesWritten:   s.BytesWritten - o.BytesWritten,
		TimeSavedNS:    s.TimeSavedNS - o.TimeSavedNS,
		LeaseAcquired:  s.LeaseAcquired - o.LeaseAcquired,
		LeaseWaited:    s.LeaseWaited - o.LeaseWaited,
		LeaseTakeovers: s.LeaseTakeovers - o.LeaseTakeovers,
		LeaseCorrupt:   s.LeaseCorrupt - o.LeaseCorrupt,
	}
}

// Add returns the sum s + o: the aggregation a sweep coordinator
// applies over per-worker-process stats, so multi-process campaign
// summaries count every worker instead of silently reporting only the
// coordinator's own store.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Hits:           s.Hits + o.Hits,
		Misses:         s.Misses + o.Misses,
		Deduped:        s.Deduped + o.Deduped,
		Corrupt:        s.Corrupt + o.Corrupt,
		BytesRead:      s.BytesRead + o.BytesRead,
		BytesWritten:   s.BytesWritten + o.BytesWritten,
		TimeSavedNS:    s.TimeSavedNS + o.TimeSavedNS,
		LeaseAcquired:  s.LeaseAcquired + o.LeaseAcquired,
		LeaseWaited:    s.LeaseWaited + o.LeaseWaited,
		LeaseTakeovers: s.LeaseTakeovers + o.LeaseTakeovers,
		LeaseCorrupt:   s.LeaseCorrupt + o.LeaseCorrupt,
	}
}

// String renders the counters in a fixed field order (no map
// iteration), so stats lines are byte-stable for a given history. The
// lease counters only appear once any is non-zero, keeping
// single-process output identical to the pre-lease format.
func (s Stats) String() string {
	out := fmt.Sprintf("hits=%d misses=%d deduped=%d corrupt=%d read=%dB written=%dB saved=%.2fs",
		s.Hits, s.Misses, s.Deduped, s.Corrupt,
		s.BytesRead, s.BytesWritten, float64(s.TimeSavedNS)/1e9)
	if s.LeaseAcquired != 0 || s.LeaseWaited != 0 || s.LeaseTakeovers != 0 || s.LeaseCorrupt != 0 {
		out += fmt.Sprintf(" lease_acq=%d lease_wait=%d lease_steal=%d lease_corrupt=%d",
			s.LeaseAcquired, s.LeaseWaited, s.LeaseTakeovers, s.LeaseCorrupt)
	}
	return out
}

// Store is one cache handle. The zero value is not usable; construct
// with Open. A nil *Store is a valid always-compute pass-through, so
// callers thread one pointer instead of branching on a mode.
type Store struct {
	dir  string
	mode Mode

	// Clock, when non-nil, timestamps compute durations (nanoseconds)
	// so hits can report wall-clock time saved. It is injected by
	// package main — the library itself never reads the wall clock, per
	// the nbtilint determinism rules.
	Clock func() int64
	// Warnf, when non-nil, receives diagnostics about damaged or
	// unwritable entries. The store never fails because of them.
	Warnf func(format string, args ...any)
	// Lease, when non-nil (and Clock is set and the store is
	// read-write), extends single-flight across processes sharing this
	// directory via lease files — see lease.go for the protocol.
	Lease *LeasePolicy

	mu      sync.Mutex
	flights map[string]*flight
	stats   Stats
	// met mirrors the Stats counters into the process metrics registry;
	// zero (all-nil handles) when instrumentation is disabled.
	met storeMetrics
}

// flight is one in-progress Do leader; followers block on done and
// share its outcome.
type flight struct {
	done  chan struct{}
	data  []byte
	hit   bool
	saved int64
	err   error
}

// Open returns a store rooted at dir. The directory is created lazily
// on first write.
func Open(dir string, mode Mode) *Store {
	return &Store{dir: dir, mode: mode, flights: make(map[string]*flight), met: newStoreMetrics()}
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Mode returns the store's disk mode.
func (s *Store) Mode() Mode {
	if s == nil {
		return Off
	}
	return s.mode
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// entry is the on-disk envelope around a cached value.
type entry struct {
	Schema       int             `json:"schema"`
	Key          string          `json:"key"`
	ComputeNanos int64           `json:"compute_ns,omitempty"`
	Value        json.RawMessage `json:"value"`
}

const entrySchema = 1

// entryPath maps a key to its file, sharded on the first digest byte so
// large caches do not pile every entry into one directory.
func (s *Store) entryPath(key string) string {
	return filepath.Join(s.dir, key[:2], key+".json")
}

// Do returns the value stored under key, computing and (in read-write
// mode) persisting it on a miss. decode receives the value bytes —
// either loaded from disk or freshly produced by compute — exactly
// once per call. The returned bool reports whether the value came from
// the cache (disk hit, or dedup onto a leader that hit). compute errors
// propagate; storage errors never do.
func (s *Store) Do(key string, decode func([]byte) error, compute func() ([]byte, error)) (bool, error) {
	if s == nil || s.mode == Off {
		data, err := compute()
		if err != nil {
			return false, err
		}
		return false, decode(data)
	}

	s.mu.Lock()
	if f, ok := s.flights[key]; ok {
		s.mu.Unlock()
		<-f.done
		if f.err != nil {
			return false, f.err
		}
		if f.data == nil {
			// The leader was a TryDo that found the entry on disk
			// without reading it: read it here.
			hit, _, err := s.lead(key, &flight{}, decode, compute, true)
			return hit, err
		}
		s.mu.Lock()
		s.stats.Deduped++
		s.stats.TimeSavedNS += f.saved
		s.mu.Unlock()
		s.met.deduped.Inc()
		s.met.timeSavedNS.Add(uint64(f.saved))
		return f.hit, decode(f.data)
	}
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	s.mu.Unlock()
	defer s.land(key, f)
	hit, _, err := s.lead(key, f, decode, compute, true)
	return hit, err
}

// TryDo makes sure key has an entry without blocking on someone else's
// in-flight compute and without reading an entry that exists: it claims
// and computes an unclaimed miss, finds an existing entry (cached=true)
// with the Has probe alone — nothing is read, and no hit is counted —
// and steps aside (done=false, no error) when the key is already being
// computed by another goroutine of this process or — with leases
// active — by another live process. Work-stealing sweep workers use it
// to skip past busy units instead of queueing behind them, and to leave
// the reading of each entry to the campaign's merge; stale and corrupt
// foreign leases are still reaped and taken over, so a dead worker's
// units are picked up on the first pass rather than the blocking one.
func (s *Store) TryDo(key string, compute func() ([]byte, error)) (done, cached bool, err error) {
	if s == nil || s.mode == Off {
		_, err := compute()
		return true, false, err
	}

	s.mu.Lock()
	if _, busy := s.flights[key]; busy {
		s.mu.Unlock()
		s.note(func(st *Stats) { st.LeaseWaited++ })
		s.met.leaseWaited.Inc()
		return false, false, nil
	}
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	s.mu.Unlock()
	defer s.land(key, f)
	hit, busy, err := s.lead(key, f, nil, compute, false)
	return !busy, hit, err
}

// land retires key's flight and releases its followers.
func (s *Store) land(key string, f *flight) {
	s.mu.Lock()
	delete(s.flights, key)
	s.mu.Unlock()
	close(f.done)
}

// lead is the flight leader's path shared by Do and TryDo: serve the
// entry from disk, or compute and (in read-write mode) persist it —
// under a cross-process lease when leases are active. With wait=false a
// key held by another live process is left alone (busy=true) instead of
// waited out. A nil decode (TryDo) only needs the entry to exist.
func (s *Store) lead(key string, f *flight, decode func([]byte) error, compute func() ([]byte, error), wait bool) (hit, busy bool, err error) {
	if s.serve(key, f, decode) {
		return true, false, nil
	}
	var hb *heartbeat
	if s.leased() {
		l, res := s.claim(key, f, decode, wait)
		switch res {
		case claimServed:
			return true, false, nil
		case claimBusy:
			return false, true, nil
		case claimHeld:
			hb = s.startHeartbeat(l)
		}
	}
	data, computeNS, err := s.computePersist(key, compute)
	if hb != nil {
		hb.stop()
		s.releaseLease(key)
	}
	if err != nil {
		f.err = err
		return false, false, err
	}
	f.data, f.saved = data, computeNS
	s.note(func(st *Stats) { st.Misses++ })
	s.met.misses.Inc()
	if decode == nil {
		return false, false, nil
	}
	return false, false, decode(data)
}

// serve loads key's entry and, when its value decodes, records the hit
// on f and in the stats. An entry whose envelope parses but whose
// payload does not decode — e.g. written by an incompatible build — is
// treated like a truncated file: counted corrupt and left to be
// recomputed. A nil decode asks only whether the entry exists (Has):
// nothing is read or counted.
func (s *Store) serve(key string, f *flight, decode func([]byte) error) bool {
	if decode == nil {
		return s.Has(key)
	}
	value, computeNS, ok := s.load(key)
	if !ok {
		return false
	}
	if err := decode(value); err != nil {
		s.note(func(st *Stats) { st.Corrupt++ })
		s.met.corrupt.Inc()
		s.warnf("entry %s: decoding value: %v (recomputing)", key, err)
		return false
	}
	f.data, f.hit, f.saved = value, true, computeNS
	s.note(func(st *Stats) {
		st.Hits++
		st.BytesRead += int64(len(value))
		st.TimeSavedNS += computeNS
	})
	s.met.hits.Inc()
	s.met.readBytes.Add(uint64(len(value)))
	s.met.timeSavedNS.Add(uint64(computeNS))
	return true
}

// Has reports whether an entry file exists for key — the cheap
// completion probe from which a sweep campaign derives its progress
// (which units are done, which pending) and with which its workers skip
// finished units, without reading or decoding payloads. A truncated or
// corrupt entry may report true; the merge pass decodes through Do,
// which recomputes such entries, so a false positive costs one
// recompute, never a wrong result.
func (s *Store) Has(key string) bool {
	if s == nil || s.mode == Off {
		return false
	}
	info, err := os.Stat(s.entryPath(key))
	return err == nil && info.Size() > 0
}

// load reads and validates one entry. A missing file is a silent miss;
// anything else that goes wrong is counted as corruption and warned
// about, never returned as an error.
func (s *Store) load(key string) (value []byte, computeNS int64, ok bool) {
	data, err := os.ReadFile(s.entryPath(key))
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			s.note(func(st *Stats) { st.Corrupt++ })
			s.met.corrupt.Inc()
			s.warnf("reading entry %s: %v (recomputing)", key, err)
		}
		return nil, 0, false
	}
	var e entry
	if err := json.Unmarshal(data, &e); err != nil {
		s.note(func(st *Stats) { st.Corrupt++ })
		s.met.corrupt.Inc()
		s.warnf("entry %s: corrupt envelope: %v (recomputing)", key, err)
		return nil, 0, false
	}
	if e.Schema != entrySchema || e.Key != key || len(e.Value) == 0 {
		s.note(func(st *Stats) { st.Corrupt++ })
		s.met.corrupt.Inc()
		s.warnf("entry %s: schema/key mismatch (recomputing)", key)
		return nil, 0, false
	}
	return e.Value, e.ComputeNanos, true
}

// persist writes one entry atomically through WriteFileAtomic's
// fsync-free temp+rename. rename(2) is atomic on POSIX, so concurrent
// processes racing on a key both land a complete entry and the loser's
// write simply replaces an identical value.
func (s *Store) persist(key string, value []byte, computeNS int64) error {
	data, err := json.Marshal(entry{
		Schema:       entrySchema,
		Key:          key,
		ComputeNanos: computeNS,
		Value:        value,
	})
	if err != nil {
		return err
	}
	return WriteFileAtomic(s.entryPath(key), data)
}

// WriteFileAtomic writes data to path through a temp file in path's
// directory (created if missing) and a rename into place, so a reader —
// or a process killed mid-write — sees the old file or the new one,
// never a torn one. The file is made world-readable (0644, where
// os.CreateTemp leaves 0600), so a cache or campaign shared between
// users or handed on as an artifact stays readable. The mode is set by
// chmod, so the process umask does not narrow it; a private cache needs
// a private enclosing directory.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+"-*.tmp")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// note applies a stats mutation under the lock.
func (s *Store) note(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// warnf forwards to the Warnf hook when one is installed.
func (s *Store) warnf(format string, args ...any) {
	if s.Warnf != nil {
		s.Warnf(format, args...)
	}
}

package cache

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// leaseTestPolicy returns a policy with real sleeping and tight timings
// for concurrency tests.
func leaseTestPolicy() *LeasePolicy {
	return &LeasePolicy{
		TTLNS:       int64(5 * time.Second),
		HeartbeatNS: int64(10 * time.Millisecond),
		PollNS:      int64(2 * time.Millisecond),
		Sleep:       func(ns int64) { time.Sleep(time.Duration(ns)) },
	}
}

// leasedStore opens a read-write store on dir with real clock+sleep.
func leasedStore(t *testing.T, dir string) *Store {
	t.Helper()
	s := Open(dir, ReadWrite)
	s.Clock = func() int64 { return time.Now().UnixNano() }
	s.Lease = leaseTestPolicy()
	return s
}

// fakeLeasedStore opens a store with a settable clock and a no-op
// sleeper, for deterministic staleness tests.
func fakeLeasedStore(dir string, now *int64) *Store {
	s := Open(dir, ReadWrite)
	s.Clock = func() int64 { return atomic.LoadInt64(now) }
	s.Lease = &LeasePolicy{TTLNS: 100, HeartbeatNS: 10, PollNS: 1, Sleep: func(int64) {}}
	return s
}

// plantLease writes a lease file for key with the given heartbeat, as
// if another process held (or abandoned) the claim.
func plantLease(t *testing.T, s *Store, key string, beatNS int64) {
	t.Helper()
	l := lease{Schema: leaseSchema, Key: key, Owner: "planted", PID: 1, BeatNS: beatNS}
	data, err := json.Marshal(l)
	if err != nil {
		t.Fatal(err)
	}
	path := s.leasePath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func testKey(t *testing.T, v any) string {
	t.Helper()
	key, err := KeyOf(v)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestLeaseCrossStoreSingleFlight runs two Store handles on one
// directory — the in-process model of two worker processes — and
// checks that a key computed under one store's lease is served to the
// other as a hit, with exactly one compute between them.
func TestLeaseCrossStoreSingleFlight(t *testing.T) {
	dir := t.TempDir()
	a, b := leasedStore(t, dir), leasedStore(t, dir)
	key := testKey(t, "cross-store")

	var computes atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	errc := make(chan error, 2)
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		var got payload
		hit, err := a.Do(key,
			func(data []byte) error { return json.Unmarshal(data, &got) },
			func() ([]byte, error) {
				close(started)
				<-release
				computes.Add(1)
				return json.Marshal(payload{N: 1})
			})
		if err != nil {
			errc <- err
			return
		}
		if hit || got.N != 1 {
			errc <- fmt.Errorf("leader: hit=%v got=%+v", hit, got)
		}
	}()
	<-started

	wg.Add(1)
	go func() {
		defer wg.Done()
		var got payload
		hit, err := b.Do(key,
			func(data []byte) error { return json.Unmarshal(data, &got) },
			func() ([]byte, error) {
				computes.Add(1)
				return json.Marshal(payload{N: 2})
			})
		if err != nil {
			errc <- err
			return
		}
		if !hit || got.N != 1 {
			errc <- fmt.Errorf("waiter: hit=%v got=%+v (want hit of the leader's value)", hit, got)
		}
	}()

	// Let the waiter observe the foreign lease before the leader is
	// released, so the cross-process wait path actually runs.
	deadline := time.Now().Add(5 * time.Second)
	for b.Stats().LeaseWaited == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never observed the foreign lease")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	if n := computes.Load(); n != 1 {
		t.Errorf("computes = %d, want exactly 1", n)
	}
	if st := a.Stats(); st.Misses != 1 || st.LeaseAcquired != 1 {
		t.Errorf("leader stats = %+v, want 1 miss, 1 lease acquired", st)
	}
	if st := b.Stats(); st.Hits != 1 || st.LeaseWaited != 1 || st.Misses != 0 {
		t.Errorf("waiter stats = %+v, want 1 hit, 1 lease wait, 0 misses", st)
	}
	if _, err := os.Stat(a.leasePath(key)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("lease file survives release: %v", err)
	}
}

// TestLeaseStaleTakeover plants a lease whose heartbeat stopped beyond
// the TTL — a killed worker — and checks the next Do reaps it and
// computes.
func TestLeaseStaleTakeover(t *testing.T) {
	dir := t.TempDir()
	now := int64(1_000_000)
	s := fakeLeasedStore(dir, &now)
	key := testKey(t, "stale")
	plantLease(t, s, key, 1) // ancient heartbeat

	got, hit := do(t, s, key, func() (payload, error) { return payload{N: 7}, nil })
	if hit || got.N != 7 {
		t.Errorf("got hit=%v %+v, want fresh compute", hit, got)
	}
	st := s.Stats()
	if st.LeaseTakeovers != 1 || st.LeaseAcquired != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 takeover, 1 acquire, 1 miss", st)
	}
	if _, err := os.Stat(s.leasePath(key)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("lease not cleaned up after takeover: %v", err)
	}
}

// TestLeaseFreshNotTakenOver: a lease inside its TTL is honoured — the
// waiter polls until the holder's entry appears rather than reaping.
func TestLeaseFreshNotTakenOver(t *testing.T) {
	dir := t.TempDir()
	now := int64(1_000_000)
	s := fakeLeasedStore(dir, &now)
	key := testKey(t, "fresh")
	plantLease(t, s, key, now-50) // inside TTL=100

	// The planted holder never computes; publish its entry from the
	// poll loop itself so the waiter terminates.
	polls := 0
	s.Lease.Sleep = func(int64) {
		polls++
		if polls == 3 {
			if err := s.persist(key, []byte(`{"n":9,"s":""}`), 5); err != nil {
				t.Error(err)
			}
		}
	}
	got, hit := do(t, s, key, func() (payload, error) { return payload{N: 1}, nil })
	if !hit || got.N != 9 {
		t.Errorf("got hit=%v %+v, want the holder's entry", hit, got)
	}
	st := s.Stats()
	if st.LeaseWaited != 1 || st.LeaseTakeovers != 0 || st.Misses != 0 || st.Hits != 1 {
		t.Errorf("stats = %+v, want a waited hit and no takeover", st)
	}
	if polls < 3 {
		t.Errorf("waiter polled %d times, want >= 3", polls)
	}
}

// TestLeaseCorruptReaped: an unreadable lease file is counted, reaped
// and recomputed — a crashed writer can slow a key down, never wedge it.
func TestLeaseCorruptReaped(t *testing.T) {
	dir := t.TempDir()
	now := int64(1_000_000)
	s := fakeLeasedStore(dir, &now)
	for name, body := range map[string]string{
		"garbage":    "not json {",
		"wrong-key":  `{"schema":1,"key":"0000","owner":"x","pid":1,"beat_ns":5}`,
		"zero-beat":  `{"schema":1,"key":"%s","owner":"x","pid":1,"beat_ns":0}`,
		"bad-schema": `{"schema":99,"key":"%s","owner":"x","pid":1,"beat_ns":5}`,
	} {
		t.Run(name, func(t *testing.T) {
			key := testKey(t, name)
			path := s.leasePath(key)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			content := body
			if name == "zero-beat" || name == "bad-schema" {
				content = fmt.Sprintf(body, key)
			}
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			before := s.Stats()
			got, hit := do(t, s, key, func() (payload, error) { return payload{N: 3}, nil })
			if hit || got.N != 3 {
				t.Errorf("got hit=%v %+v, want recompute", hit, got)
			}
			d := s.Stats().Sub(before)
			if d.LeaseCorrupt != 1 || d.Misses != 1 {
				t.Errorf("stats delta = %+v, want 1 corrupt lease + 1 miss", d)
			}
		})
	}
}

// TestLeaseReleasedOnComputeError: a failed compute must not leave the
// key claimed, or every retry would wait out a TTL.
func TestLeaseReleasedOnComputeError(t *testing.T) {
	dir := t.TempDir()
	s := leasedStore(t, dir)
	key := testKey(t, "fail")
	boom := errors.New("boom")
	_, err := s.Do(key,
		func([]byte) error { return nil },
		func() ([]byte, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("Do error = %v, want %v", err, boom)
	}
	if _, serr := os.Stat(s.leasePath(key)); !errors.Is(serr, os.ErrNotExist) {
		t.Errorf("lease survives failed compute: %v", serr)
	}
	// The key is immediately claimable again.
	got, hit := do(t, s, key, func() (payload, error) { return payload{N: 4}, nil })
	if hit || got.N != 4 {
		t.Errorf("retry after failure: hit=%v %+v", hit, got)
	}
}

// TestLeaseInertWhenReadOnlyOrUnconfigured: the protocol only engages
// on a read-write store with both hooks installed.
func TestLeaseInertWhenReadOnlyOrUnconfigured(t *testing.T) {
	dir := t.TempDir()
	ro := Open(dir, ReadOnly)
	ro.Clock = func() int64 { return 1 }
	ro.Lease = &LeasePolicy{TTLNS: 1, HeartbeatNS: 1, PollNS: 1, Sleep: func(int64) {}}
	if ro.leased() {
		t.Error("read-only store reports leases active")
	}
	noSleep := Open(dir, ReadWrite)
	noSleep.Clock = func() int64 { return 1 }
	noSleep.Lease = &LeasePolicy{TTLNS: 1}
	if noSleep.leased() {
		t.Error("store without a sleeper reports leases active")
	}
	noClock := Open(dir, ReadWrite)
	noClock.Lease = &LeasePolicy{TTLNS: 1, Sleep: func(int64) {}}
	if noClock.leased() {
		t.Error("store without a clock reports leases active")
	}
	// And an inert store computes straight through a planted lease.
	key := testKey(t, "inert")
	plantLease(t, noClock, key, 1)
	got, hit := do(t, noClock, key, func() (payload, error) { return payload{N: 5}, nil })
	if hit || got.N != 5 {
		t.Errorf("inert store: hit=%v %+v, want plain compute", hit, got)
	}
}

// TestTryDoSkipsBusyAndServesIdle covers the non-blocking entry point:
// unclaimed misses are computed and persisted, existing entries are
// found without being read, foreign fresh claims are stepped around,
// stale foreign claims are taken over.
func TestTryDoSkipsBusyAndServesIdle(t *testing.T) {
	dir := t.TempDir()
	now := int64(1_000_000)
	s := fakeLeasedStore(dir, &now)
	mustNotCompute := func() ([]byte, error) { return nil, errors.New("must not compute") }

	// Unclaimed miss: computes and persists.
	key := testKey(t, "trydo")
	done, cached, err := s.TryDo(key, func() ([]byte, error) { return json.Marshal(payload{N: 1}) })
	if err != nil || !done || cached || !s.Has(key) {
		t.Fatalf("miss TryDo = done=%v cached=%v err=%v has=%v", done, cached, err, s.Has(key))
	}
	// Second call: found on disk, and nothing is read or counted a hit.
	done, cached, err = s.TryDo(key, mustNotCompute)
	if err != nil || !done || !cached {
		t.Fatalf("hit TryDo = done=%v cached=%v err=%v", done, cached, err)
	}
	if st := s.Stats(); st.Hits != 0 || st.BytesRead != 0 || st.Misses != 1 {
		t.Errorf("stats = %+v, want the one miss and nothing read", st)
	}
	if got, hit := do(t, s, key, func() (payload, error) { return payload{}, errors.New("must not compute") }); !hit || got.N != 1 {
		t.Errorf("Do after TryDo = %+v hit=%v, want the persisted value", got, hit)
	}

	// Foreign fresh claim: steps aside without computing.
	busyKey := testKey(t, "busy")
	plantLease(t, s, busyKey, now-10)
	done, cached, err = s.TryDo(busyKey, mustNotCompute)
	if err != nil || done || cached {
		t.Fatalf("busy TryDo = done=%v cached=%v err=%v, want step-aside", done, cached, err)
	}
	if st := s.Stats(); st.LeaseWaited != 1 {
		t.Errorf("stats = %+v, want 1 lease wait", st)
	}

	// Foreign stale claim: taken over and computed on the spot.
	staleKey := testKey(t, "stale-trydo")
	plantLease(t, s, staleKey, 1)
	done, cached, err = s.TryDo(staleKey, func() ([]byte, error) { return json.Marshal(payload{N: 6}) })
	if err != nil || !done || cached || !s.Has(staleKey) {
		t.Fatalf("stale TryDo = done=%v cached=%v err=%v", done, cached, err)
	}
	if st := s.Stats(); st.LeaseTakeovers != 1 {
		t.Errorf("stats = %+v, want 1 takeover", st)
	}
}

// TestTryDoStepsAsideForLocalFlight: a key being computed by another
// goroutine of the same process is busy, lease or no lease.
func TestTryDoStepsAsideForLocalFlight(t *testing.T) {
	s := Open(t.TempDir(), ReadWrite)
	key := testKey(t, "local-flight")
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		do(t, s, key, func() (payload, error) {
			close(started)
			<-release
			return payload{N: 1}, nil
		})
	}()
	<-started
	done, cached, err := s.TryDo(key, func() ([]byte, error) { return nil, errors.New("must not compute") })
	if err != nil || done || cached {
		t.Fatalf("TryDo during local flight = done=%v cached=%v err=%v, want step-aside", done, cached, err)
	}
	close(release)
	wg.Wait()
}

// TestTryDoOffAndNilCompute: the pass-through modes mirror Do: they
// compute, and return compute's error.
func TestTryDoOffAndNil(t *testing.T) {
	var nilStore *Store
	computed := 0
	done, cached, err := nilStore.TryDo("", func() ([]byte, error) {
		computed++
		return json.Marshal(payload{N: 2})
	})
	if err != nil || !done || cached || computed != 1 {
		t.Fatalf("nil-store TryDo = done=%v cached=%v err=%v computes=%d", done, cached, err, computed)
	}
	boom := errors.New("boom")
	if done, _, err := Open(t.TempDir(), Off).TryDo("", func() ([]byte, error) { return nil, boom }); !done || err != boom {
		t.Fatalf("off-store TryDo = done=%v err=%v, want compute's error", done, err)
	}
}

// TestDoFollowsUnreadTryDo: a Do that joins the flight of a TryDo which
// found the entry without reading it reads the entry itself.
func TestDoFollowsUnreadTryDo(t *testing.T) {
	s := Open(t.TempDir(), ReadWrite)
	key := testKey(t, "follow-trydo")
	do(t, s, key, func() (payload, error) { return payload{N: 3}, nil })
	// What a follower finds once such a flight lands: done, no data.
	f := &flight{done: make(chan struct{})}
	close(f.done)
	s.mu.Lock()
	s.flights[key] = f
	s.mu.Unlock()
	got, hit := do(t, s, key, func() (payload, error) { return payload{}, errors.New("must not compute") })
	if !hit || got.N != 3 {
		t.Errorf("follower of an unread TryDo = %+v hit=%v, want the entry", got, hit)
	}
	if st := s.Stats(); st.Hits != 1 || st.Deduped != 0 {
		t.Errorf("stats = %+v, want the follower's own hit", st)
	}
}

// TestHas: present after a write, absent before, always false off-mode.
func TestHas(t *testing.T) {
	dir := t.TempDir()
	s := Open(dir, ReadWrite)
	key := testKey(t, "has")
	if s.Has(key) {
		t.Error("Has before write")
	}
	do(t, s, key, func() (payload, error) { return payload{N: 1}, nil })
	if !s.Has(key) {
		t.Error("!Has after write")
	}
	var nilStore *Store
	if nilStore.Has(key) {
		t.Error("nil store Has")
	}
}

// TestLeaseHeartbeatAdvances: the holder's heartbeat goroutine refreshes
// the lease while a compute is in flight, so long computes are never
// misjudged as dead.
func TestLeaseHeartbeatAdvances(t *testing.T) {
	dir := t.TempDir()
	s := leasedStore(t, dir)
	s.Lease.HeartbeatNS = int64(2 * time.Millisecond)
	key := testKey(t, "heartbeat")

	// Sample the published lease from inside the compute: the heartbeat
	// goroutine refreshes it concurrently while we sleep.
	var beats []int64
	do(t, s, key, func() (payload, error) {
		for i := 0; i < 30; i++ {
			if l, ok, _ := s.readLease(key); ok {
				beats = append(beats, l.BeatNS)
			}
			time.Sleep(2 * time.Millisecond)
		}
		return payload{N: 1}, nil
	})
	var first, last int64
	for _, b := range beats {
		if first == 0 {
			first = b
		}
		last = b
	}
	if first == 0 || last <= first {
		t.Errorf("heartbeat did not advance: first=%d last=%d over %d samples", first, last, len(beats))
	}
}

// TestStatsAddAndLeaseString covers the aggregation used by sweep
// coordinators and the extended String form.
func TestStatsAddAndLeaseString(t *testing.T) {
	a := Stats{Hits: 1, Misses: 2, LeaseAcquired: 1, LeaseWaited: 3}
	b := Stats{Hits: 4, Misses: 1, LeaseTakeovers: 2, LeaseCorrupt: 1, TimeSavedNS: 1e9}
	sum := a.Add(b)
	want := Stats{Hits: 5, Misses: 3, LeaseAcquired: 1, LeaseWaited: 3,
		LeaseTakeovers: 2, LeaseCorrupt: 1, TimeSavedNS: 1e9}
	if sum != want {
		t.Errorf("Add = %+v, want %+v", sum, want)
	}
	const wantStr = "hits=5 misses=3 deduped=0 corrupt=0 read=0B written=0B saved=1.00s" +
		" lease_acq=1 lease_wait=3 lease_steal=2 lease_corrupt=1"
	if sum.String() != wantStr {
		t.Errorf("String() = %q, want %q", sum.String(), wantStr)
	}
	// Without lease traffic the format is unchanged (golden outputs).
	plain := Stats{Hits: 1}
	if got := plain.String(); got != "hits=1 misses=0 deduped=0 corrupt=0 read=0B written=0B saved=0.00s" {
		t.Errorf("plain String() = %q", got)
	}
	// JSON round-trip: the cross-process wire format.
	data, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	var back Stats
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != sum {
		t.Errorf("JSON round trip = %+v, want %+v", back, sum)
	}
}

// TestLeaseRecheckAfterAcquire pins the race prompt lease release
// exposes: the waiter's first lookup misses, then — before its acquire
// — the holder persists and releases. The waiter's acquire succeeds and
// it must serve the holder's entry instead of computing a duplicate.
// The interleaving is forced through the waiter's Clock, which the
// acquire reads first.
func TestLeaseRecheckAfterAcquire(t *testing.T) {
	for _, mode := range []string{"Do", "TryDo"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			now := int64(1_000_000)
			holder, waiter := fakeLeasedStore(dir, &now), fakeLeasedStore(dir, &now)
			key := testKey(t, "recheck-"+mode)
			var computes atomic.Int64
			var once sync.Once
			waiter.Clock = func() int64 {
				once.Do(func() {
					do(t, holder, key, func() (payload, error) {
						computes.Add(1)
						return payload{N: 1}, nil
					})
				})
				return atomic.LoadInt64(&now)
			}
			var got payload
			decode := func(data []byte) error { return json.Unmarshal(data, &got) }
			compute := func() ([]byte, error) {
				computes.Add(1)
				return json.Marshal(payload{N: 2})
			}
			// Do serves the holder's value; TryDo finds it without
			// reading it.
			var hit bool
			var err error
			wantHits, wantN := int64(1), 1
			if mode == "Do" {
				hit, err = waiter.Do(key, decode, compute)
			} else {
				var done bool
				done, hit, err = waiter.TryDo(key, compute)
				if !done {
					t.Error("TryDo stepped aside from a released key")
				}
				wantHits, wantN = 0, 0
			}
			if err != nil {
				t.Fatal(err)
			}
			if n := computes.Load(); n != 1 {
				t.Errorf("computes = %d, want exactly 1", n)
			}
			if !hit || got.N != wantN {
				t.Errorf("waiter: hit=%v got=%+v, want the holder's entry (decoded: %d)", hit, got, wantN)
			}
			if st := waiter.Stats(); st.Hits != wantHits || st.Misses != 0 || st.LeaseAcquired != 0 {
				t.Errorf("waiter stats = %+v, want %d hits, no miss, no lease counted", st, wantHits)
			}
			if _, err := os.Stat(waiter.leasePath(key)); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("re-checked lease survives: %v", err)
			}
		})
	}
}

// TestHeartbeatStopDoesNotWaitForSleeper: stop returns while the
// heartbeat is mid-sleep, and the goroutine, once it wakes, exits
// without refreshing, so a released lease never comes back.
func TestHeartbeatStopDoesNotWaitForSleeper(t *testing.T) {
	dir := t.TempDir()
	now := int64(1_000_000)
	s := fakeLeasedStore(dir, &now)
	sleeping := make(chan struct{}, 1)
	wake := make(chan struct{})
	s.Lease = &LeasePolicy{TTLNS: 100, HeartbeatNS: 10, PollNS: 10, Sleep: func(int64) {
		select {
		case sleeping <- struct{}{}:
		default:
		}
		<-wake
	}}
	key := testKey(t, "heartbeat-stop")
	l, ok, err := s.acquireLease(key)
	if err != nil || !ok {
		t.Fatalf("acquire: ok=%v err=%v", ok, err)
	}
	h := s.startHeartbeat(l)
	<-sleeping
	stopped := make(chan struct{})
	go func() {
		h.stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("stop waited for the heartbeat's sleeper")
	}
	s.releaseLease(key)
	close(wake)
	select {
	case <-h.exited:
	case <-time.After(5 * time.Second):
		t.Fatal("heartbeat goroutine did not exit after stop")
	}
	if _, err := os.Stat(s.leasePath(key)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("lease file came back after release: %v", err)
	}
}

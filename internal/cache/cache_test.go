package cache

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

type payload struct {
	N int    `json:"n"`
	S string `json:"s"`
}

// do runs one Do round-trip with JSON encode/decode glue.
func do(t *testing.T, s *Store, key string, compute func() (payload, error)) (payload, bool) {
	t.Helper()
	var got payload
	hit, err := s.Do(key,
		func(data []byte) error { return json.Unmarshal(data, &got) },
		func() ([]byte, error) {
			p, err := compute()
			if err != nil {
				return nil, err
			}
			return json.Marshal(p)
		})
	if err != nil {
		t.Fatalf("Do(%s): %v", key, err)
	}
	return got, hit
}

func TestKeyOfDeterministicAndSensitive(t *testing.T) {
	type k struct {
		A int
		B string
	}
	k1, err := KeyOf(k{1, "x"})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := KeyOf(k{1, "x"})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("equal values keyed differently: %s vs %s", k1, k2)
	}
	if len(k1) != 64 {
		t.Errorf("key %q is not a sha256 hex digest", k1)
	}
	k3, err := KeyOf(k{2, "x"})
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k1 {
		t.Error("distinct values share a key")
	}
	if _, err := KeyOf(func() {}); err == nil {
		t.Error("unkeyable value accepted")
	}
}

func TestParseMode(t *testing.T) {
	for in, want := range map[string]Mode{"off": Off, "ro": ReadOnly, "rw": ReadWrite} {
		m, err := ParseMode(in)
		if err != nil || m != want {
			t.Errorf("ParseMode(%q) = %v, %v", in, m, err)
		}
		if m.String() != in {
			t.Errorf("Mode(%q).String() = %q", in, m.String())
		}
	}
	if _, err := ParseMode("yes"); err == nil {
		t.Error("bad mode accepted")
	}
}

func TestHitMissRoundTrip(t *testing.T) {
	dir := t.TempDir()
	key, _ := KeyOf("scenario-1")
	want := payload{N: 42, S: "answer"}
	computes := 0

	s := Open(dir, ReadWrite)
	got, hit := do(t, s, key, func() (payload, error) { computes++; return want, nil })
	if hit || got != want {
		t.Fatalf("first Do: hit=%v got=%+v", hit, got)
	}
	got, hit = do(t, s, key, func() (payload, error) { computes++; return payload{}, nil })
	if !hit || got != want {
		t.Fatalf("second Do: hit=%v got=%+v", hit, got)
	}
	if computes != 1 {
		t.Errorf("computes = %d, want 1", computes)
	}

	// A fresh store over the same directory serves the persisted entry.
	s2 := Open(dir, ReadOnly)
	got, hit = do(t, s2, key, func() (payload, error) {
		t.Error("recomputed despite persisted entry")
		return payload{}, nil
	})
	if !hit || got != want {
		t.Fatalf("fresh store: hit=%v got=%+v", hit, got)
	}

	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Corrupt != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.BytesRead == 0 || st.BytesWritten == 0 {
		t.Errorf("byte counters empty: %+v", st)
	}
}

func TestReadOnlyDoesNotPersist(t *testing.T) {
	dir := t.TempDir()
	s := Open(dir, ReadOnly)
	key, _ := KeyOf("ro")
	if _, hit := do(t, s, key, func() (payload, error) { return payload{N: 1}, nil }); hit {
		t.Fatal("miss reported as hit")
	}
	if _, err := os.Stat(s.entryPath(key)); !os.IsNotExist(err) {
		t.Errorf("read-only store wrote an entry: %v", err)
	}
	if st := s.Stats(); st.BytesWritten != 0 {
		t.Errorf("BytesWritten = %d in ro mode", st.BytesWritten)
	}
}

func TestOffModeAlwaysComputes(t *testing.T) {
	s := Open(t.TempDir(), Off)
	key, _ := KeyOf("off")
	computes := 0
	for i := 0; i < 2; i++ {
		if _, hit := do(t, s, key, func() (payload, error) { computes++; return payload{}, nil }); hit {
			t.Fatal("off-mode store reported a hit")
		}
	}
	if computes != 2 {
		t.Errorf("computes = %d, want 2", computes)
	}
	// A nil store behaves the same.
	var nilStore *Store
	if _, hit := do(t, nilStore, key, func() (payload, error) { return payload{}, nil }); hit {
		t.Fatal("nil store reported a hit")
	}
	if nilStore.Mode() != Off || (nilStore.Stats() != Stats{}) {
		t.Error("nil store accessors not zero")
	}
}

func TestSingleFlight(t *testing.T) {
	s := Open(t.TempDir(), ReadWrite)
	key, _ := KeyOf("contended")
	var computes atomic.Int64
	gate := make(chan struct{})

	const workers = 16
	var wg sync.WaitGroup
	results := make([]payload, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var got payload
			_, err := s.Do(key,
				func(data []byte) error { return json.Unmarshal(data, &got) },
				func() ([]byte, error) {
					computes.Add(1)
					<-gate // hold every follower in the dedup path
					return json.Marshal(payload{N: 7})
				})
			if err != nil {
				t.Error(err)
			}
			results[w] = got
		}(w)
	}
	// Let the leader enter compute, give followers time to queue, then
	// release. Followers arriving after close(gate) still dedup onto
	// the flight until it completes, or hit the persisted entry after.
	close(gate)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		// More than one compute is only possible if a worker arrived
		// after the flight fully retired AND the entry was not yet
		// persisted — impossible here since persist happens before the
		// flight closes.
		t.Errorf("computes = %d, want 1 (single-flight)", n)
	}
	for w, got := range results {
		if got.N != 7 {
			t.Errorf("worker %d got %+v", w, got)
		}
	}
	st := s.Stats()
	if st.Misses != 1 || st.Hits+st.Deduped != workers-1 {
		t.Errorf("stats = %+v, want 1 miss and %d hits+dedups", st, workers-1)
	}
}

func TestComputeErrorPropagates(t *testing.T) {
	s := Open(t.TempDir(), ReadWrite)
	key, _ := KeyOf("boom")
	wantErr := fmt.Errorf("engine exploded")
	_, err := s.Do(key,
		func([]byte) error { return nil },
		func() ([]byte, error) { return nil, wantErr })
	if err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if _, err := os.Stat(s.entryPath(key)); !os.IsNotExist(err) {
		t.Error("failed compute left an entry behind")
	}
	// The failed flight must not wedge the key: a later call computes.
	got, hit := do(t, s, key, func() (payload, error) { return payload{N: 3}, nil })
	if hit || got.N != 3 {
		t.Errorf("retry after error: hit=%v got=%+v", hit, got)
	}
}

func corruptionCase(t *testing.T, name string, damage func(path string)) {
	t.Run(name, func(t *testing.T) {
		dir := t.TempDir()
		var warnings []string
		s := Open(dir, ReadWrite)
		s.Warnf = func(format string, args ...any) {
			warnings = append(warnings, fmt.Sprintf(format, args...))
		}
		key, _ := KeyOf(name)
		want := payload{N: 9, S: name}
		do(t, s, key, func() (payload, error) { return want, nil })
		damage(s.entryPath(key))

		got, hit := do(t, s, key, func() (payload, error) { return want, nil })
		if hit || got != want {
			t.Fatalf("damaged entry: hit=%v got=%+v", hit, got)
		}
		if st := s.Stats(); st.Corrupt == 0 {
			t.Errorf("corruption not counted: %+v", st)
		}
		if len(warnings) == 0 {
			t.Error("corruption not warned about")
		}
		// Read-write mode heals the entry: third call hits again.
		got, hit = do(t, s, key, func() (payload, error) {
			t.Error("entry not rewritten after corruption")
			return payload{}, nil
		})
		if !hit || got != want {
			t.Fatalf("healed entry: hit=%v got=%+v", hit, got)
		}
	})
}

func TestCorruptEntryFallsBackToRecompute(t *testing.T) {
	corruptionCase(t, "truncated", func(path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	})
	corruptionCase(t, "garbage", func(path string) {
		if err := os.WriteFile(path, []byte("not json at all"), 0o644); err != nil {
			t.Fatal(err)
		}
	})
	corruptionCase(t, "empty", func(path string) {
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	corruptionCase(t, "key-mismatch", func(path string) {
		data, err := json.Marshal(entry{Schema: entrySchema, Key: strings.Repeat("0", 64),
			Value: json.RawMessage(`{"n":1,"s":""}`)})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	corruptionCase(t, "value-type-mismatch", func(path string) {
		// Envelope is intact but the value does not decode into the
		// caller's type.
		key := filepath.Base(path)
		key = strings.TrimSuffix(key, ".json")
		data, err := json.Marshal(entry{Schema: entrySchema, Key: key,
			Value: json.RawMessage(`[1,2,3]`)})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

func TestPersistIsAtomicAndLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	s := Open(dir, ReadWrite)
	for i := 0; i < 8; i++ {
		key, _ := KeyOf(i)
		do(t, s, key, func() (payload, error) { return payload{N: i}, nil })
	}
	var leftovers []string
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(path, ".tmp") {
			leftovers = append(leftovers, path)
		}
		return nil
	})
	if len(leftovers) > 0 {
		t.Errorf("temp files left behind: %v", leftovers)
	}
}

// TestPersistedEntryIsReadable: an entry lands world-readable, not
// with its temp file's 0600, so a cache directory can be shared.
func TestPersistedEntryIsReadable(t *testing.T) {
	s := Open(t.TempDir(), ReadWrite)
	key, _ := KeyOf("readable")
	do(t, s, key, func() (payload, error) { return payload{N: 1}, nil })
	info, err := os.Stat(s.entryPath(key))
	if err != nil {
		t.Fatal(err)
	}
	if mode := info.Mode().Perm(); mode != 0o644 {
		t.Errorf("entry mode %v, want 0644", mode)
	}
}

func TestTimeSavedFromRecordedComputeDuration(t *testing.T) {
	dir := t.TempDir()
	var now int64
	clock := func() int64 { n := now; now += 1_000_000; return n } // 1ms per read

	s := Open(dir, ReadWrite)
	s.Clock = clock
	key, _ := KeyOf("timed")
	do(t, s, key, func() (payload, error) { return payload{N: 1}, nil })
	if st := s.Stats(); st.TimeSavedNS != 0 {
		t.Errorf("miss credited time saved: %+v", st)
	}

	s2 := Open(dir, ReadWrite)
	do(t, s2, key, func() (payload, error) { return payload{}, nil })
	if st := s2.Stats(); st.TimeSavedNS != 1_000_000 {
		t.Errorf("TimeSavedNS = %d, want the recorded 1ms", st.TimeSavedNS)
	}
}

func TestStatsSubAndString(t *testing.T) {
	a := Stats{Hits: 5, Misses: 3, Deduped: 2, Corrupt: 1, BytesRead: 100, BytesWritten: 50, TimeSavedNS: 2e9}
	b := Stats{Hits: 2, Misses: 1, Deduped: 1, Corrupt: 0, BytesRead: 40, BytesWritten: 20, TimeSavedNS: 1e9}
	d := a.Sub(b)
	want := Stats{Hits: 3, Misses: 2, Deduped: 1, Corrupt: 1, BytesRead: 60, BytesWritten: 30, TimeSavedNS: 1e9}
	if d != want {
		t.Errorf("Sub = %+v, want %+v", d, want)
	}
	const wantStr = "hits=3 misses=2 deduped=1 corrupt=1 read=60B written=30B saved=1.00s"
	if d.String() != wantStr {
		t.Errorf("String() = %q, want %q", d.String(), wantStr)
	}
}

func TestDefaultDirNonEmpty(t *testing.T) {
	if DefaultDir() == "" {
		t.Error("DefaultDir() empty")
	}
}

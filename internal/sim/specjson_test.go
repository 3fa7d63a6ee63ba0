package sim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"

	"nbtinoc/internal/cache"
	"nbtinoc/internal/nbti"
	"nbtinoc/internal/noc"
	"nbtinoc/internal/pv"
	"nbtinoc/internal/sensor"
)

// TestSpecJSONRoundTrip: a serialised spec rebuilds to the same content
// address and the same structural value — the property sweep manifests
// rely on to re-run recorded campaigns.
func TestSpecJSONRoundTrip(t *testing.T) {
	orig := quickSpec()
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, back) {
		t.Errorf("round trip changed the spec:\n got %+v\nwant %+v", back, orig)
	}
	if mustKey(t, back) != mustKey(t, orig) {
		t.Error("round trip changed the content address")
	}
}

// rrPeriodSpec32 is quickSpec under a declared rotation period at the
// 32 nm corner with the noisy reference sensor: the second pinned wire
// format, exercising every nested Config struct away from its default.
func rrPeriodSpec32() Spec {
	s := quickSpec()
	s.Policy = PolicySpec{RRPeriod: 256}
	s.Net.NBTI = nbti.Default32nm()
	s.Net.PV = pv.Default32nm()
	s.Net.Sensor = sensor.DefaultConfig()
	s.Net.SensorSeed = 5
	return s
}

// TestSpecWireFormatPinned pins the content address and the JSON bytes
// of two specs to the values the pre-refactor codec (a hand-written
// mirror of noc.Config) produced, so cache directories, sweep manifests
// and -emit-spec bodies written by earlier builds keep resolving. A
// changed pin means every existing cache entry is orphaned: bump
// EngineVersion instead of re-pinning.
func TestSpecWireFormatPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
		key  string
		json string
	}{
		{"quick", quickSpec(),
			"2a1cfff5c19e47aa2d6c0fb77820d4c96a5e5f6a4854d16ec6f49877b8dc29a8",
			`{"net":{"Width":2,"Height":2,"VNets":1,"VCsPerVNet":2,"BufferDepth":4,"FlitWidthBits":64,"LinkLatency":1,"PhitsPerFlit":1,"Routing":0,"EjectRate":1,"EjectBufferDepth":4,"GateEjection":false,"WakeupLatency":0,"NBTI":{"Vdd":1.2,"Vth0":0.18,"TempK":350,"Tclk":1e-9,"Tox":1.3e-7,"Te":1.3e-7,"N":0.16666666666666666,"Ea":0.13,"E0":8000000,"D0":1e-16,"Xi1":0.9,"Xi2":0.5,"A":30757458818.45351},"PV":{"MeanVth":0.18,"Sigma":0.005,"ClampSigmas":6},"PVSeed":1,"Sensor":{"SamplePeriod":1024,"LSB":0,"NoiseSigma":0,"Horizon":0},"SensorSeed":1},"policy":{"name":"sensor-wise"},"gen":{"kind":"synthetic","pattern":"uniform","width":2,"height":2,"rate":0.1,"packet_len":4,"seed":7},"warmup":500,"measure":5000,"probes":[{"Node":0,"Port":2,"VNet":0}]}`},
		{"rr-period-32nm-noisy", rrPeriodSpec32(),
			"1059a1e9ac8aa384cf5c9344c281f68b34561412c31026809ead0dc6bbc01e43",
			`{"net":{"Width":2,"Height":2,"VNets":1,"VCsPerVNet":2,"BufferDepth":4,"FlitWidthBits":64,"LinkLatency":1,"PhitsPerFlit":1,"Routing":0,"EjectRate":1,"EjectBufferDepth":4,"GateEjection":false,"WakeupLatency":0,"NBTI":{"Vdd":1.2,"Vth0":0.16,"TempK":350,"Tclk":1e-9,"Tox":1.1e-7,"Te":1.1e-7,"N":0.16666666666666666,"Ea":0.13,"E0":8000000,"D0":1e-16,"Xi1":0.9,"Xi2":0.5,"A":23066953753.319733},"PV":{"MeanVth":0.16,"Sigma":0.005,"ClampSigmas":6},"PVSeed":1,"Sensor":{"SamplePeriod":1024,"LSB":0.0005,"NoiseSigma":0.00025,"Horizon":0},"SensorSeed":5},"policy":{"rr_period":256},"gen":{"kind":"synthetic","pattern":"uniform","width":2,"height":2,"rate":0.1,"packet_len":4,"seed":7},"warmup":500,"measure":5000,"probes":[{"Node":0,"Port":2,"VNet":0}]}`},
	} {
		if got := mustKey(t, tc.spec); got != tc.key {
			t.Errorf("%s: SpecKey = %s, want %s", tc.name, got, tc.key)
		}
		data, err := json.Marshal(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != tc.json {
			t.Errorf("%s: JSON =\n%s\nwant\n%s", tc.name, data, tc.json)
		}
		back, err := decodeSpec([]byte(tc.json))
		if err != nil {
			t.Fatalf("%s: strict decode of the pinned bytes: %v", tc.name, err)
		}
		if !reflect.DeepEqual(back, tc.spec) {
			t.Errorf("%s: pinned bytes decode to %+v, want %+v", tc.name, back, tc.spec)
		}
	}
}

// TestSpecJSONCarriesEveryConfigField: every noc.Config field except
// the Policy factory appears in a spec's JSON — and so in its content
// address, which hashes the same encoding. A Config field hidden from
// JSON would alias distinct scenarios in the cache.
func TestSpecJSONCarriesEveryConfigField(t *testing.T) {
	data, err := json.Marshal(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	var wire struct{ Net map[string]json.RawMessage }
	if err := json.Unmarshal(data, &wire); err != nil {
		t.Fatal(err)
	}
	ct := reflect.TypeOf(noc.Config{})
	for i := 0; i < ct.NumField(); i++ {
		name := ct.Field(i).Name
		_, ok := wire.Net[name]
		if want := name != "Policy"; ok != want {
			t.Errorf("noc.Config.%s: in spec JSON = %v, want %v", name, ok, want)
		}
	}
	if len(wire.Net) != ct.NumField()-1 {
		t.Errorf("spec JSON net has %d fields, want %d (Config minus Policy)", len(wire.Net), ct.NumField()-1)
	}
}

// decodeSpec decodes one spec the way the daemon does: unknown fields
// at any depth and trailing bytes are errors.
func decodeSpec(data []byte) (Spec, error) {
	var s Spec
	err := DecodeStrict(bytes.NewReader(data), &s)
	return s, err
}

// FuzzSpecJSON drives the spec decode boundary with arbitrary bytes:
// strict decoding and Validate must never panic, and a spec that
// validates must survive encode → decode → encode unchanged with a
// stable content address — the properties the daemon, manifests and
// the cache rely on.
func FuzzSpecJSON(f *testing.F) {
	for _, s := range []Spec{quickSpec(), rrPeriodSpec32()} {
		data, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		// An explicit empty probe list must key like an omitted one.
		f.Add(bytes.Replace(data, []byte(`"probes":[{"Node":0,"Port":2,"VNet":0}]`), []byte(`"probes":[]`), 1))
	}
	f.Add([]byte(`{"warm_up":5}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeSpec(data)
		if err != nil || s.Validate() != nil {
			return
		}
		enc1, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("valid spec does not encode: %v", err)
		}
		back, err := decodeSpec(enc1)
		if err != nil {
			t.Fatalf("encoded spec does not decode: %v\n%s", err, enc1)
		}
		enc2, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("encode is not a fixed point:\n%s\n%s", enc1, enc2)
		}
		k1, err1 := SpecKey(s)
		k2, err2 := SpecKey(back)
		if err1 != nil || err2 != nil || k1 != k2 {
			t.Fatalf("content address unstable across a round trip: %s (%v) vs %s (%v)", k1, err1, k2, err2)
		}
	})
}

// TestRunnerRecordHook: the hook sees every completed run with its key
// and cache disposition, with and without a store.
func TestRunnerRecordHook(t *testing.T) {
	type event struct {
		key    string
		cached bool
	}
	var mu sync.Mutex
	var events []event
	record := func(_ Spec, key string, cached bool) {
		mu.Lock()
		events = append(events, event{key, cached})
		mu.Unlock()
	}
	spec := quickSpec()
	key := mustKey(t, spec)

	store := cache.Open(t.TempDir(), cache.ReadWrite)
	r := Runner{Store: store, Record: record}
	if _, err := r.Run(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(spec); err != nil {
		t.Fatal(err)
	}
	// No store: the spec still computes under its key, so a manifest
	// records it whatever the cache mode.
	if _, err := (Runner{Record: record}).Run(spec); err != nil {
		t.Fatal(err)
	}
	want := []event{{key, false}, {key, true}, {key, false}}
	if !reflect.DeepEqual(events, want) {
		t.Errorf("record events = %+v, want %+v", events, want)
	}
}

// TestRunnerTryRun: completes on idle keys, persisting what Run then
// serves byte for byte, steps aside while the key is claimed by a
// foreign lease, and finds a finished key without reading it.
func TestRunnerTryRun(t *testing.T) {
	dir := t.TempDir()
	store := cache.Open(dir, cache.ReadWrite)
	store.Clock = func() int64 { return 1_000_000 }
	store.Lease = &cache.LeasePolicy{
		TTLNS:       1 << 62,
		HeartbeatNS: int64(time.Millisecond),
		PollNS:      1,
		Sleep:       func(ns int64) { time.Sleep(time.Duration(ns)) },
	}
	r := Runner{Store: store}
	spec := quickSpec()

	done, err := r.TryRun(spec)
	if err != nil || !done {
		t.Fatalf("TryRun on idle key: done=%v err=%v", done, err)
	}
	sum, err := r.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Runner{}.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sum, want) || store.Stats().Hits != 1 {
		t.Errorf("the entry TryRun persisted differs from a direct compute, or was not served: %s", store.Stats())
	}

	// Claim a second spec's key from a fake foreign holder: TryRun must
	// step aside without computing.
	spec2 := quickSpec()
	spec2.Gen.Seed++
	key2 := mustKey(t, spec2)
	holder := cache.Open(dir, cache.ReadWrite)
	holder.Clock = store.Clock
	holder.Lease = store.Lease
	claimed := make(chan struct{})
	release := make(chan struct{})
	donec := make(chan error, 1)
	go func() {
		_, err := holder.Do(key2,
			func([]byte) error { return nil },
			func() ([]byte, error) {
				close(claimed)
				<-release
				s, err := spec2.Compute()
				if err != nil {
					return nil, err
				}
				return json.Marshal(s)
			})
		donec <- err
	}()
	<-claimed
	done, err = r.TryRun(spec2)
	if err != nil || done {
		t.Errorf("TryRun on claimed key: done=%v err=%v, want step-aside", done, err)
	}
	close(release)
	if err := <-donec; err != nil {
		t.Fatal(err)
	}
	// Once released and persisted, TryRun finds the entry unread.
	before := store.Stats()
	done, err = r.TryRun(spec2)
	if err != nil || !done {
		t.Fatalf("TryRun after release: done=%v err=%v", done, err)
	}
	if st := store.Stats(); st.Hits != before.Hits || st.BytesRead != before.BytesRead || st.Misses != before.Misses {
		t.Errorf("TryRun of a finished key touched it: %s, before %s", st, before)
	}
}

package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nbtinoc/internal/cache"
	"nbtinoc/internal/metrics"
	"nbtinoc/internal/noc"
	"nbtinoc/internal/sim"
)

// testSpec is a small, fast, fully declarative scenario; the seed
// parameter varies the content address so tests can mint distinct jobs.
func testSpec(seed uint64) sim.Spec {
	cfg := noc.DefaultConfig()
	cfg.Width, cfg.Height = 2, 2
	cfg.VCsPerVNet = 2
	return sim.Spec{
		Net:     cfg,
		Policy:  sim.PolicySpec{Name: "sensor-wise"},
		Gen:     sim.GenSpec{Kind: "synthetic", Pattern: "uniform", Width: 2, Height: 2, Rate: 0.1, PacketLen: 4, Seed: seed},
		Warmup:  200,
		Measure: 2_000,
		Probes:  []sim.PortProbe{{Node: 0, Port: noc.East}},
	}
}

// testClock is an injected clock ticking once per read, so timestamps
// are deterministic and strictly ordered without any wall time.
func testClock() func() int64 {
	var t atomic.Int64
	return func() int64 { return t.Add(1) }
}

func newTestServer(t *testing.T, mod func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Store:   cache.Open(t.TempDir(), cache.ReadWrite),
		Workers: 2,
		Clock:   testClock(),
	}
	if mod != nil {
		mod(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postSpec(t *testing.T, client *http.Client, base string, spec sim.Spec, headers map[string]string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", base+"/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getJSON(t *testing.T, client *http.Client, url string, v any) *http.Response {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("decode %s: %v\n%s", url, err, data)
		}
	}
	return resp
}

func pollDone(t *testing.T, client *http.Client, base, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var view JobView
		resp := getJSON(t, client, base+"/jobs/"+id, &view)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll: status %d", resp.StatusCode)
		}
		if view.State == StateDone || view.State == StateFailed {
			return view
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job did not finish in time")
	return JobView{}
}

// TestSubmitPollResult walks the whole happy path: submit a real spec,
// poll to done, and check every result format against the shared
// renderers (the CLI-parity contract the e2e CI job re-checks over a
// real socket).
func TestSubmitPollResult(t *testing.T) {
	srv := newTestServer(t, nil)
	srv.Start()
	t.Cleanup(srv.Drain)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	spec := testSpec(7)
	resp, data := postSpec(t, ts.Client(), ts.URL, spec, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, data)
	}
	var view JobView
	if err := json.Unmarshal(data, &view); err != nil {
		t.Fatal(err)
	}
	key, err := sim.SpecKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	if view.ID != key {
		t.Errorf("job id %q is not the spec content address %q", view.ID, key)
	}
	if view.Submissions != 1 || view.State == "" {
		t.Errorf("fresh job view: %+v", view)
	}

	final := pollDone(t, ts.Client(), ts.URL, view.ID)
	if final.State != StateDone {
		t.Fatalf("job finished as %s: %s", final.State, final.Error)
	}
	if final.Cached {
		t.Error("first execution reported cached=true")
	}
	if final.StartedNS == 0 || final.FinishedNS < final.StartedNS {
		t.Errorf("timestamps not ordered: %+v", final)
	}

	want, err := spec.Compute()
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range sim.RenderFormats() {
		resp, err := ts.Client().Get(ts.URL + "/jobs/" + view.ID + "/result?format=" + format)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("result %s: status %d", format, resp.StatusCode)
		}
		var buf bytes.Buffer
		if err := want.Render(&buf, format); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, buf.Bytes()) {
			t.Errorf("result %s differs from the shared renderer:\n--- daemon ---\n%s--- direct ---\n%s", format, got, buf.Bytes())
		}
	}
	// The summary format is the raw RunSummary for programmatic
	// clients; it must decode back to the computed summary's numbers.
	var sum sim.RunSummary
	resp2 := getJSON(t, ts.Client(), ts.URL+"/jobs/"+view.ID+"/result?format=summary", &sum)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("summary: status %d", resp2.StatusCode)
	}
	if sum.AvgLatency != want.AvgLatency || sum.Cycles != want.Cycles {
		t.Errorf("summary mismatch: got latency %v cycles %d, want %v %d",
			sum.AvgLatency, sum.Cycles, want.AvgLatency, want.Cycles)
	}

	// The listing carries the job in submission order.
	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	getJSON(t, ts.Client(), ts.URL+"/jobs", &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != view.ID {
		t.Errorf("listing: %+v", list)
	}
}

// TestConcurrentSubmissionsDedup is the tentpole invariant: N racing
// submissions of one spec create one job and one execution.
func TestConcurrentSubmissionsDedup(t *testing.T) {
	var calls atomic.Int32
	release := make(chan struct{})
	srv := newTestServer(t, func(cfg *Config) { cfg.Workers = 4 })
	inner := srv.runJob
	srv.runJob = func(spec sim.Spec) (*sim.RunSummary, bool, error) {
		calls.Add(1)
		<-release
		return inner(spec)
	}
	srv.Start()
	t.Cleanup(srv.Drain)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	const n = 16
	spec := testSpec(3)
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postSpec(t, ts.Client(), ts.URL, spec, nil)
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	created, deduped := 0, 0
	for _, c := range codes {
		switch c {
		case http.StatusAccepted:
			created++
		case http.StatusOK:
			deduped++
		default:
			t.Fatalf("unexpected status %d", c)
		}
	}
	if created != 1 || deduped != n-1 {
		t.Fatalf("created %d, deduped %d; want 1 and %d", created, deduped, n-1)
	}
	close(release)
	id, err := sim.SpecKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := pollDone(t, ts.Client(), ts.URL, id)
	if final.State != StateDone {
		t.Fatalf("job finished as %s: %s", final.State, final.Error)
	}
	if final.Submissions != n {
		t.Errorf("submissions = %d, want %d", final.Submissions, n)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("runJob executed %d times, want 1", got)
	}
}

// TestWarmSubmitServesFromCache: a second server over the same cache
// directory serves the spec as a store hit — zero additional misses,
// the cross-restart half of dedup.
func TestWarmSubmitServesFromCache(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(11)
	srvA := newTestServer(t, func(cfg *Config) { cfg.Store = cache.Open(dir, cache.ReadWrite) })
	srvA.Start()
	tsA := httptest.NewServer(srvA.Handler())
	resp, data := postSpec(t, tsA.Client(), tsA.URL, spec, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit A: %d %s", resp.StatusCode, data)
	}
	id, _ := sim.SpecKey(spec)
	if v := pollDone(t, tsA.Client(), tsA.URL, id); v.State != StateDone {
		t.Fatalf("A finished as %s: %s", v.State, v.Error)
	}
	srvA.Drain()
	tsA.Close()

	storeB := cache.Open(dir, cache.ReadWrite)
	srvB := newTestServer(t, func(cfg *Config) { cfg.Store = storeB })
	srvB.Start()
	t.Cleanup(srvB.Drain)
	tsB := httptest.NewServer(srvB.Handler())
	t.Cleanup(tsB.Close)
	if resp, data := postSpec(t, tsB.Client(), tsB.URL, spec, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit B: %d %s", resp.StatusCode, data)
	}
	final := pollDone(t, tsB.Client(), tsB.URL, id)
	if final.State != StateDone {
		t.Fatalf("B finished as %s: %s", final.State, final.Error)
	}
	if !final.Cached {
		t.Error("restarted server recomputed a cached spec (cached=false)")
	}
	st := storeB.Stats()
	if st.Misses != 0 || st.Hits != 1 {
		t.Errorf("store stats after warm submit: %+v, want 1 hit / 0 misses", st)
	}
	var stats statsBody
	getJSON(t, tsB.Client(), tsB.URL+"/stats", &stats)
	if stats.Store.Misses != 0 {
		t.Errorf("/stats reports %d misses, want 0", stats.Store.Misses)
	}
}

func TestSubmitValidation(t *testing.T) {
	srv := newTestServer(t, nil)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	bad := testSpec(1)
	bad.Measure = 0
	bad.Gen.Pattern = "no-such-pattern"
	resp, data := postSpec(t, ts.Client(), ts.URL, bad, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec: status %d, body %s", resp.StatusCode, data)
	}
	var body errorBody
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatal(err)
	}
	if body.Code != "invalid_spec" || len(body.Fields) != 2 {
		t.Errorf("error body: %+v", body)
	}
	fields := make(map[string]bool)
	for _, f := range body.Fields {
		fields[f.Field] = true
	}
	if !fields["measure"] || !fields["gen.pattern"] {
		t.Errorf("field tags: %+v", body.Fields)
	}

	// Malformed JSON is a bad_request, not a panic or a 500.
	resp2, err := ts.Client().Post(ts.URL+"/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d", resp2.StatusCode)
	}

	resp3, err := ts.Client().Post(ts.URL+"/jobs?priority=high", "application/json", specReader(t, testSpec(1)))
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("non-integer priority: status %d", resp3.StatusCode)
	}
}

// TestSubmitStrictDecoding: a misspelled field, at the top level or
// nested in net, and bytes after the spec object are refused as
// bad_request instead of running a silently defaulted spec; the
// -emit-spec body itself, trailing newline included, is accepted.
func TestSubmitStrictDecoding(t *testing.T) {
	srv := newTestServer(t, nil)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	emitted, err := json.MarshalIndent(testSpec(1), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	body := string(emitted) + "\n"
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"misspelled warmup", strings.Replace(body, `"warmup"`, `"warm_up"`, 1), http.StatusBadRequest},
		{"misspelled net field", strings.Replace(body, `"PVSeed"`, `"PV_Seed"`, 1), http.StatusBadRequest},
		{"trailing object", body + "{}", http.StatusBadRequest},
		{"emitted spec", body, http.StatusAccepted},
	} {
		resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d; body %s", tc.name, resp.StatusCode, tc.status, data)
			continue
		}
		if tc.status == http.StatusBadRequest {
			var eb errorBody
			if err := json.Unmarshal(data, &eb); err != nil || eb.Code != "bad_request" {
				t.Errorf("%s: error body %s", tc.name, data)
			}
		}
	}
}

func specReader(t *testing.T, spec sim.Spec) io.Reader {
	t.Helper()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(data)
}

func TestJobLookupErrors(t *testing.T) {
	srv := newTestServer(t, nil)
	srv.Start()
	t.Cleanup(srv.Drain)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	var body errorBody
	resp := getJSON(t, ts.Client(), ts.URL+"/jobs/nope", &body)
	if resp.StatusCode != http.StatusNotFound || body.Code != "unknown_job" {
		t.Errorf("unknown job: %d %+v", resp.StatusCode, body)
	}
	resp = getJSON(t, ts.Client(), ts.URL+"/jobs/nope/result", &body)
	if resp.StatusCode != http.StatusNotFound || body.Code != "unknown_job" {
		t.Errorf("unknown job result: %d %+v", resp.StatusCode, body)
	}
}

func TestResultBeforeDone(t *testing.T) {
	srv := newTestServer(t, nil) // workers never started: job stays queued
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	spec := testSpec(5)
	if resp, data := postSpec(t, ts.Client(), ts.URL, spec, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	id, _ := sim.SpecKey(spec)
	var body errorBody
	resp := getJSON(t, ts.Client(), ts.URL+"/jobs/"+id+"/result", &body)
	if resp.StatusCode != http.StatusConflict || body.Code != "not_done" {
		t.Errorf("result before done: %d %+v", resp.StatusCode, body)
	}
}

func TestMetricsAndIndexEndpoints(t *testing.T) {
	// A live registry so the /metrics endpoints expose real families
	// and the HTTP middleware exercises its counting path.
	metrics.SetDefault(metrics.New())
	t.Cleanup(func() { metrics.SetDefault(nil) })
	srv := newTestServer(t, nil)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	for _, path := range []string{"/metrics", "/metrics.json", "/", "/healthz", "/stats"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	expo, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(expo, []byte(MetricQueueDepth)) {
		t.Errorf("/metrics exposition lacks %s:\n%s", MetricQueueDepth, expo)
	}
	if !bytes.Contains(expo, []byte(metrics.MetricHTTPRequests)) {
		t.Errorf("/metrics exposition lacks %s", metrics.MetricHTTPRequests)
	}
}

func TestNewRejectsMissingClock(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted a config without a clock")
	}
	if _, err := New(Config{Clock: func() int64 { return 0 }, JobTimeoutNS: 1}); err == nil {
		t.Error("New accepted a timeout without After")
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"nbtinoc/internal/cache"
	"nbtinoc/internal/metrics"
	"nbtinoc/internal/noc"
	"nbtinoc/internal/service"
	"nbtinoc/internal/sim"
)

// The service-campaign mix. Each pass runs a fresh daemon for phase A,
// drains it, restarts it on the same cache directory for phase B, and
// drains it again. Clients submit the phase's job sequence in a closed
// loop. Of each phase's jobs, a fixed number submit a spec the daemon
// has never seen, which it computes; the rest repeat a spec first seen
// at least campaignGap positions earlier (or, before any is that old,
// the phase's first spec), which the job store dedups, except that the
// first repeat after the restart of a phase-A spec is a new job the
// worker serves from the cache on disk. The gap is long enough that a
// repeat almost never finds its job still running.
const (
	campaignClients = 2
	campaignLenA    = 500
	campaignLenB    = 500
	campaignNewA    = 30
	campaignNewB    = 20
	campaignGap     = 120
	pollInterval    = 200 * time.Microsecond
	pollTimeout     = 30 * time.Second
)

// campaignSpec is one spec of the campaign's pool with its expected
// result: Spec.Compute rendered in the format the clients fetch.
type campaignSpec struct {
	spec         sim.Spec
	body         []byte
	format       string
	sum          *sim.RunSummary
	want         []byte
	routerCycles uint64
}

// campaignPool builds the pool of small specs: 2×2 and 4×4 meshes
// alternately, with windows sized so both cost the same router-cycles,
// the three policies of the synthetic tables in turn, and seeded PV and
// traffic seeds and result formats.
func campaignPool(r *rand.Rand, n int) ([]campaignSpec, error) {
	policies := sim.SyntheticPolicies()
	formats := sim.RenderFormats()
	pool := make([]campaignSpec, n)
	for i := range pool {
		cores, warmup, measure := 4, uint64(400), uint64(1600)
		if i%2 == 1 {
			cores, warmup, measure = 16, 100, 400
		}
		cfg, err := sim.BaseConfig(cores, 2)
		if err != nil {
			return nil, err
		}
		cfg.PhitsPerFlit = 2
		cfg.PVSeed = r.Uint64()
		side := cfg.Width
		spec := sim.Spec{
			Net:    cfg,
			Policy: sim.PolicySpec{Name: policies[i%len(policies)]},
			Gen: sim.GenSpec{
				Kind: "synthetic", Pattern: "uniform", Width: side, Height: side,
				Rate: 0.1, PacketLen: 4, Seed: r.Uint64(),
			},
			Warmup:  warmup,
			Measure: measure,
			Probes:  []sim.PortProbe{{Node: 0, Port: noc.East}},
		}
		body, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		sum, err := spec.Compute()
		if err != nil {
			return nil, err
		}
		format := formats[r.IntN(len(formats))]
		var want bytes.Buffer
		if err := sum.Render(&want, format); err != nil {
			return nil, err
		}
		pool[i] = campaignSpec{spec, body, format, sum, want.Bytes(), uint64(cores) * (warmup + measure)}
	}
	return pool, nil
}

// campaignPlan returns the two phases' job sequences as pool indices.
// Pool entries [0, newA) are first seen in phase A, [newA, newA+newB)
// in phase B; first sightings are spread evenly over each phase.
func campaignPlan(r *rand.Rand) (seqA, seqB []int) {
	phase := func(length, first, count int, old []int) []int {
		firstAt := make(map[int]int) // pool index -> position of first sighting
		seq := make([]int, length)
		k := 0
		for i := range seq {
			if k < count && i == k*length/count {
				seq[i] = first + k
				firstAt[first+k] = i
				k++
				continue
			}
			eligible := append([]int(nil), old...)
			for j := first; j < first+k; j++ {
				if firstAt[j] <= i-campaignGap {
					eligible = append(eligible, j)
				}
			}
			if len(eligible) == 0 {
				seq[i] = first
			} else {
				seq[i] = eligible[r.IntN(len(eligible))]
			}
		}
		return seq
	}
	seqA = phase(campaignLenA, 0, campaignNewA, nil)
	old := make([]int, campaignNewA)
	for i := range old {
		old[i] = i
	}
	seqB = phase(campaignLenB, campaignNewA, campaignNewB, old)
	return seqA, seqB
}

// daemon is one in-process nbtisimd: the service and its loopback
// HTTP server.
type daemon struct {
	srv     *service.Server
	hs      *http.Server
	served  chan error
	base    string
	prevReg *metrics.Registry
}

// startDaemon starts a daemon the way cmd/nbtisimd does, with one
// worker, and waits until /healthz answers.
func startDaemon(dir string, hc *http.Client) (*daemon, error) {
	d := &daemon{prevReg: metrics.Default(), served: make(chan error, 1)}
	metrics.SetDefault(metrics.New())
	srv, err := service.New(service.Config{
		Store:       openStore(dir),
		Workers:     1,
		QueueCap:    service.DefaultQueueCap,
		ClientLimit: 64,
		Clock:       func() int64 { return time.Now().UnixNano() },
		After: func(ns int64) <-chan struct{} {
			c := make(chan struct{})
			time.AfterFunc(time.Duration(ns), func() { close(c) })
			return c
		},
	})
	if err != nil {
		metrics.SetDefault(d.prevReg)
		return nil, err
	}
	d.srv = srv
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		metrics.SetDefault(d.prevReg)
		return nil, err
	}
	d.base = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: srv.Handler()}
	go func() { d.served <- d.hs.Serve(ln) }()
	for deadline := time.Now().Add(10 * time.Second); ; {
		status, _, err := call(hc, http.MethodGet, d.base+"/healthz", nil, "")
		if err == nil && status == http.StatusOK {
			return d, nil
		}
		if time.Now().After(deadline) {
			d.stop(hc)
			return nil, fmt.Errorf("daemon not healthy: status %d, %v", status, err)
		}
		time.Sleep(pollInterval)
	}
}

// stop drains the daemon, closes its listener and waits for the server
// to return, then restores the metrics default.
func (d *daemon) stop(hc *http.Client) error {
	d.srv.Drain()
	err := d.hs.Shutdown(context.Background())
	<-d.served
	hc.CloseIdleConnections()
	metrics.SetDefault(d.prevReg)
	return err
}

// call performs one HTTP request and reads the whole body.
func call(hc *http.Client, method, url string, body []byte, clientID string) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if clientID != "" {
		req.Header.Set("X-Client-ID", clientID)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// jobResult is what one client saw of one job.
type jobResult struct {
	err      error
	rejected bool
	latency  time.Duration
	// created is a 202 answer: the submission made a new job.
	created bool
	// view is the job as the last poll saw it.
	view               service.JobView
	post, poll, result time.Duration
	pollWait           time.Duration
	polls              int
}

// runJob submits a spec, polls the job until it is done and fetches the
// result, checking it against the expected bytes.
func runJob(hc *http.Client, base, clientID string, cs *campaignSpec) (res jobResult) {
	start := time.Now()
	defer func() { res.latency = time.Since(start) }()
	status, body, err := call(hc, http.MethodPost, base+"/jobs", cs.body, clientID)
	res.post = time.Since(start)
	switch {
	case err != nil:
		res.err = err
		return res
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		res.rejected = true
		res.err = fmt.Errorf("submit rejected: %d %s", status, bytes.TrimSpace(body))
		return res
	case status != http.StatusOK && status != http.StatusAccepted:
		res.err = fmt.Errorf("submit: %d %s", status, bytes.TrimSpace(body))
		return res
	}
	res.created = status == http.StatusAccepted
	if err := json.Unmarshal(body, &res.view); err != nil {
		res.err = err
		return res
	}
	id := res.view.ID
	for deadline := time.Now().Add(pollTimeout); ; {
		t := time.Now()
		status, body, err := call(hc, http.MethodGet, base+"/jobs/"+id, nil, clientID)
		res.poll += time.Since(t)
		res.polls++
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("poll: %d %s", status, bytes.TrimSpace(body))
		}
		if err == nil {
			err = json.Unmarshal(body, &res.view)
		}
		if err != nil {
			res.err = err
			return res
		}
		if res.view.State == service.StateDone {
			break
		}
		if res.view.State == service.StateFailed {
			res.err = fmt.Errorf("job failed: %s", res.view.Error)
			return res
		}
		if time.Now().After(deadline) {
			res.err = errors.New("poll timed out")
			return res
		}
		t = time.Now()
		time.Sleep(pollInterval)
		res.pollWait += time.Since(t)
	}
	t := time.Now()
	status, body, err = call(hc, http.MethodGet, base+"/jobs/"+id+"/result?format="+cs.format, nil, clientID)
	res.result = time.Since(t)
	switch {
	case err != nil:
		res.err = err
	case status != http.StatusOK:
		res.err = fmt.Errorf("result: %d %s", status, bytes.TrimSpace(body))
	case !bytes.Equal(body, cs.want):
		res.err = fmt.Errorf("result of %s (%s) differs from Spec.Compute + Render", id[:12], cs.format)
	}
	return res
}

// runPhase drives one phase's sequence through the daemon from
// campaignClients closed-loop clients and returns the per-position
// results and the phase's wall time.
func runPhase(hc *http.Client, base string, pool []campaignSpec, seq []int) ([]jobResult, time.Duration) {
	results := make([]jobResult, len(seq))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < campaignClients; c++ {
		wg.Add(1)
		go func(clientID string) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(seq) {
					return
				}
				results[i] = runJob(hc, base, clientID, &pool[seq[i]])
			}
		}(fmt.Sprintf("client-%d", c))
	}
	wg.Wait()
	return results, time.Since(start)
}

// campaignPass is one pass: start, phase A, drain and restart, phase B,
// drain.
type campaignPass struct {
	setup   time.Duration
	loop    time.Duration
	results [2][]jobResult
	stats   [2]cache.Stats
}

func runCampaignPass(hc *http.Client, dir string, pool []campaignSpec, seqs [2][]int, traced bool) (*campaignPass, error) {
	p := &campaignPass{}
	for ph, seq := range seqs {
		start := time.Now()
		d, err := startDaemon(dir, hc)
		if err != nil {
			return nil, err
		}
		p.setup += time.Since(start)
		results, wall := runPhase(hc, d.base, pool, seq)
		p.results[ph], p.loop = results, p.loop+wall
		if traced {
			// The traced run reads the store counters the way an
			// operator would, from /stats.
			var body struct {
				Store cache.Stats `json:"store"`
			}
			status, data, err := call(hc, http.MethodGet, d.base+"/stats", nil, "")
			if err == nil && status == http.StatusOK {
				err = json.Unmarshal(data, &body)
			}
			if err != nil {
				d.stop(hc)
				return nil, fmt.Errorf("stats: %d %v", status, err)
			}
			p.stats[ph] = body.Store
		}
		if err := d.stop(hc); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// campaignReplay is the replay of a traced pass's operations directly
// through the sim and cache entry points the daemon calls.
type campaignReplay struct {
	// submit is Validate and SpecKey on the submission path; job is
	// the same pair on the worker path.
	submit, job                validateKey
	render, compute, hit, miss span
}

type validateKey struct{ validate, key span }

func (vk *validateKey) run(spec sim.Spec) string {
	t := time.Now()
	_ = spec.Validate()
	t = vk.validate.lap(t)
	k, _ := sim.SpecKey(spec)
	vk.key.lap(t)
	return k
}

// replay repeats a pass's operations in sequence order: per submission
// Spec.Validate and SpecKey (handleSubmit); per new job Validate,
// SpecKey and Store.Do (Runner.RunJob on the worker); per fetched
// result Render. The store is reopened at the restart, like the daemon.
func (rp *campaignReplay) replay(dir string, pool []campaignSpec, seqs [2][]int, p *campaignPass) error {
	for ph, seq := range seqs {
		store := openStore(dir)
		for i, idx := range seq {
			cs := &pool[idx]
			jr := &p.results[ph][i]
			rp.submit.run(cs.spec)
			if !jr.created {
				rp.renderResult(cs)
				continue
			}
			k := rp.job.run(cs.spec)
			var sum sim.RunSummary
			var computeNS time.Duration
			t := time.Now()
			cached, err := store.Do(k, func(b []byte) error { return json.Unmarshal(b, &sum) },
				func() ([]byte, error) {
					t := time.Now()
					s, err := cs.spec.Compute()
					computeNS = time.Since(t)
					if err != nil {
						return nil, err
					}
					return json.Marshal(s)
				})
			d := time.Since(t)
			if err != nil {
				return err
			}
			if cached {
				rp.hit.add(d)
			} else {
				rp.compute.add(computeNS)
				rp.miss.add(d - computeNS)
			}
			rp.renderResult(cs)
		}
	}
	return nil
}

func (rp *campaignReplay) renderResult(cs *campaignSpec) {
	var buf bytes.Buffer
	t := time.Now()
	_ = cs.sum.Render(&buf, cs.format)
	rp.render.lap(t)
}

func runCampaign(opt options, traced bool) (*outcome, error) {
	r := rand.New(rand.NewPCG(opt.seed, 0x6e627469))
	pool, err := campaignPool(r, campaignNewA+campaignNewB)
	if err != nil {
		return nil, err
	}
	hc := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: campaignClients,
		MaxConnsPerHost:     campaignClients,
	}}
	defer hc.CloseIdleConnections()

	out := &outcome{metrics: metricSet{}}
	var (
		setups, latMS            []float64
		loop                     time.Duration
		jobs                     int
		routerCycles             uint64
		tracedLoop               time.Duration
		tracedJobs               int
		rp                       campaignReplay
		stats                    cache.Stats
		post, poll, result, wait span
		queueWait, run           time.Duration
		deduped, rejected        int
		passes                   float64
	)
	// account checks one pass's results and returns its job count.
	account := func(p *campaignPass) int {
		n := 0
		for ph := range p.results {
			for i, jr := range p.results[ph] {
				n++
				out.attempted++
				if jr.err != nil {
					out.fail("service-campaign phase %d job %d: %v", ph, i, jr.err)
				}
			}
		}
		return n
	}
	err = timed(opt.seconds, 2, func(i int) error {
		// Each pass draws its own sequence, so a run averages over many.
		seqA, seqB := campaignPlan(rand.New(rand.NewPCG(opt.seed, uint64(i))))
		seqs := [2][]int{seqA, seqB}
		dir := filepath.Join(opt.dir, fmt.Sprintf("pass-%d", i))
		defer os.RemoveAll(dir)
		p, err := runCampaignPass(hc, dir, pool, seqs, false)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "perfbench: pass %d: %.3f s closed loop\n", i, p.loop.Seconds())
		jobs += account(p)
		loop += p.loop
		setups = append(setups, p.setup.Seconds())
		for ph, seq := range seqs {
			for j, jr := range p.results[ph] {
				latMS = append(latMS, float64(jr.latency)/1e6)
				if jr.created && !jr.view.Cached {
					routerCycles += pool[seq[j]].routerCycles
				}
			}
		}
		if !traced {
			return nil
		}
		tdir := filepath.Join(opt.dir, fmt.Sprintf("traced-%d", i))
		rdir := filepath.Join(opt.dir, fmt.Sprintf("replay-%d", i))
		defer os.RemoveAll(tdir)
		defer os.RemoveAll(rdir)
		tp, err := runCampaignPass(hc, tdir, pool, seqs, true)
		if err != nil {
			return err
		}
		tracedJobs += account(tp)
		tracedLoop += tp.loop
		for ph := range tp.results {
			stats = stats.Add(tp.stats[ph])
			for _, jr := range tp.results[ph] {
				post.add(jr.post)
				poll.calls += int64(jr.polls)
				poll.ns += int64(jr.poll)
				result.add(jr.result)
				wait.add(jr.pollWait)
				if jr.rejected {
					rejected++
				}
				if !jr.created {
					deduped++
					continue
				}
				queueWait += time.Duration(jr.view.StartedNS - jr.view.SubmittedNS)
				run += time.Duration(jr.view.FinishedNS - jr.view.StartedNS)
			}
		}
		passes++
		return rp.replay(rdir, pool, seqs, tp)
	})
	if err != nil {
		return nil, err
	}
	m := out.metrics
	if !traced {
		m.sec("setup_s", median(setups))
		m.set("router_cycles_per_s", float64(routerCycles)/loop.Seconds(), "1/s")
		m.set("jobs_per_s", float64(jobs)/loop.Seconds(), "1/s")
		m.set("job_p50_ms", percentile(latMS, 50), "ms")
		m.set("job_p99_ms", percentile(latMS, 99), "ms")
		m.set("peak_rss_mb", peakRSSMB(), "MB")
		return out, nil
	}
	if passes == 0 {
		return out, nil
	}
	per := func(s float64) float64 { return s / passes }
	validate, key := rp.submit.validate, rp.submit.key
	validate.merge(rp.job.validate)
	key.merge(rp.job.key)
	m.sec("sim.validate.self_s", per(validate.seconds()))
	m.count("sim.spec_key.calls", per(float64(key.calls)))
	m.sec("sim.spec_key.self_s", per(key.seconds()))
	m.sec("sim.render.self_s", per(rp.render.seconds()))
	m.sec("sim.compute.self_s", per(rp.compute.seconds()))
	cacheMetrics(m, stats, passes)
	m.sec("cache.hit.self_s", per(rp.hit.seconds()))
	m.sec("cache.miss.self_s", per(rp.miss.seconds()))
	m.sec("service.submit.self_s", per(post.seconds()-rp.submit.validate.seconds()-rp.submit.key.seconds()))
	m.count("service.poll.calls", per(float64(poll.calls)))
	m.ratio("service.polls_per_job", ratio(float64(poll.calls), float64(tracedJobs)))
	m.sec("service.poll.self_s", per(poll.seconds()))
	m.sec("service.poll_wait_s", per(wait.seconds()))
	m.sec("service.result.self_s", per(result.seconds()-rp.render.seconds()))
	m.sec("service.queue_wait_s", per(queueWait.Seconds()))
	m.sec("service.run_s", per(run.Seconds()))
	m.count("service.deduped", per(float64(deduped)))
	m.count("service.rejected", per(float64(rejected)))
	busy := (post.seconds() + poll.seconds() + wait.seconds() + result.seconds()) / campaignClients
	traceTotals(m, tracedLoop.Seconds(), busy, passes,
		float64(jobs)/loop.Seconds(), float64(tracedJobs)/tracedLoop.Seconds())
	return out, nil
}

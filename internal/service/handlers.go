package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"

	"nbtinoc/internal/cache"
	"nbtinoc/internal/sim"
)

// maxSpecBytes bounds a submission body. Specs are small structured
// JSON; anything near a megabyte is a mistake or an attack.
const maxSpecBytes = 1 << 20

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
	// Code is a stable machine-readable discriminator: invalid_spec,
	// queue_full, client_limit, draining, unknown_job, not_done,
	// job_failed, bad_request.
	Code string `json:"code"`
	// Fields carries the per-field validation report for invalid_spec.
	Fields sim.SpecErrors `json:"fields,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...), Code: code})
}

// Handler builds the service's HTTP mux. Routes use the Go 1.22 method
// and wildcard patterns; every route is wrapped in the HTTP metrics
// middleware under its pattern as the label.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, s.met.http.Wrap(pattern, h))
	}
	route("POST /jobs", s.handleSubmit)
	route("GET /jobs", s.handleList)
	route("GET /jobs/{id}", s.handleJob)
	route("GET /jobs/{id}/result", s.handleResult)
	route("GET /healthz", s.handleHealth)
	route("GET /stats", s.handleStats)
	route("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.reg.r.WritePrometheus(w)
	})
	route("GET /metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = s.reg.r.WriteJSON(w)
	})
	if s.cfg.Debug != nil {
		mux.Handle("/debug/", s.cfg.Debug)
	}
	route("GET /{$}", s.handleIndex)
	return mux
}

// clientID identifies the submitter for in-flight accounting: the
// X-Client-ID header when present, otherwise the remote host.
func clientID(r *http.Request) string {
	if id := strings.TrimSpace(r.Header.Get("X-Client-ID")); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// handleSubmit accepts a sim.Spec body and returns the job view: 202
// for a newly created job, 200 when the submission collapsed into an
// existing one (the id in both cases is the spec's content address).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		s.met.rejectDrain.Inc()
		w.Header().Set("Retry-After", "60")
		writeError(w, http.StatusServiceUnavailable, "draining", "server is draining; resubmit elsewhere or later")
		return
	}
	// Decoding is strict: a misspelled field (at any depth) or bytes
	// after the object are refused rather than silently defaulted.
	var spec sim.Spec
	if err := sim.DecodeStrict(http.MaxBytesReader(w, r.Body, maxSpecBytes), &spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "decode spec: %v", err)
		return
	}
	if err := spec.Validate(); err != nil {
		var fields sim.SpecErrors
		if se, ok := err.(sim.SpecErrors); ok {
			fields = se
		}
		writeJSON(w, http.StatusBadRequest, errorBody{
			Error:  err.Error(),
			Code:   "invalid_spec",
			Fields: fields,
		})
		return
	}
	priority := 0
	if p := r.URL.Query().Get("priority"); p != "" {
		n, err := strconv.Atoi(p)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", "priority %q is not an integer", p)
			return
		}
		priority = n
	}
	key, err := sim.SpecKey(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "derive spec key: %v", err)
		return
	}
	s.met.submissions.Inc()
	j, created, err := s.store.submit(s.queue, key, spec, priority, clientID(r), s.cfg.ClientLimit, s.cfg.Clock())
	switch {
	case err == ErrQueueFull:
		s.met.rejectFull.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "queue_full", "job queue is full (%d queued)", s.queue.depth())
		return
	case err == ErrClientLimit:
		s.met.rejectLimit.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "client_limit", "client has %d jobs in flight (limit %d)", s.cfg.ClientLimit, s.cfg.ClientLimit)
		return
	case err == ErrDraining:
		s.met.rejectDrain.Inc()
		w.Header().Set("Retry-After", "60")
		writeError(w, http.StatusServiceUnavailable, "draining", "server is draining; resubmit elsewhere or later")
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "internal", "%v", err)
		return
	}
	s.met.queueDepth.Set(int64(s.queue.depth()))
	if created {
		writeJSON(w, http.StatusAccepted, s.store.view(j))
		return
	}
	s.met.deduped.Inc()
	writeJSON(w, http.StatusOK, s.store.view(j))
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobView `json:"jobs"`
	}{Jobs: s.store.list()})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown_job", "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.store.view(j))
}

// handleResult serves a done job's summary: ?format=json (default),
// csv or text through the shared sim renderers — byte-identical to the
// nbtisim CLI — or ?format=summary for the raw RunSummary JSON.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown_job", "no job %q", r.PathValue("id"))
		return
	}
	sum, view := s.store.result(j)
	switch view.State {
	case StateDone:
	case StateFailed:
		writeError(w, http.StatusConflict, "job_failed", "job failed: %s", view.Error)
		return
	default:
		writeError(w, http.StatusConflict, "not_done", "job is %s; poll /jobs/%s until done", view.State, view.ID)
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "json"
	}
	if format == "summary" {
		writeJSON(w, http.StatusOK, sum)
		return
	}
	// Render into a buffer first so a format error can still become a
	// clean 400 instead of a half-written 200.
	var buf bytes.Buffer
	if err := sum.Render(&buf, format); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	if format == "json" {
		w.Header().Set("Content-Type", "application/json")
	} else {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	w.WriteHeader(http.StatusOK)
	_, _ = buf.WriteTo(w)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, "draining", "draining")
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{Status: "ok"})
}

// statsBody is the /stats response: queue and job-store gauges plus
// the cache store counters (the "misses" field is what the service-e2e
// CI job asserts on to prove dedup).
type statsBody struct {
	Draining   bool        `json:"draining"`
	QueueDepth int         `json:"queue_depth"`
	Queued     int         `json:"jobs_queued"`
	Running    int         `json:"jobs_running"`
	Done       int         `json:"jobs_done"`
	Failed     int         `json:"jobs_failed"`
	Store      cache.Stats `json:"store"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	counts := s.store.counts()
	writeJSON(w, http.StatusOK, statsBody{
		Draining:   s.Draining(),
		QueueDepth: s.queue.depth(),
		Queued:     counts[StateQueued],
		Running:    counts[StateRunning],
		Done:       counts[StateDone],
		Failed:     counts[StateFailed],
		Store:      s.cfg.Store.Stats(),
	})
}

func (s *Server) handleIndex(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, `nbtisimd: NoC NBTI simulation service

POST /jobs              submit a sim.Spec (JSON body; ?priority=N); job id = spec content address
GET  /jobs              list jobs in submission order
GET  /jobs/{id}         poll one job
GET  /jobs/{id}/result  fetch a done job's report (?format=json|csv|text|summary)
GET  /healthz           liveness (503 while draining)
GET  /stats             queue, job and cache-store counters
GET  /metrics           Prometheus exposition
GET  /metrics.json      JSON exposition
`)
}

package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

const ndjsonContentType = "application/x-ndjson"

// Server is the HTTP face of the mining service.
//
//	GET    /healthz                 liveness probe
//	GET    /version                 build identity
//	GET    /metrics                 Prometheus text exposition
//	GET    /v1/datasets             registered dataset names + shapes
//	PUT    /v1/datasets/{name}      register a dataset (body = data;
//	                                ?format=transactions|matrix&buckets=N)
//	POST   /v1/query                submit a QuerySpec and stream its NDJSON
//	                                results in one round trip; warm repeats
//	                                replay the result cache zero-copy and
//	                                honour If-None-Match with 304
//	POST   /v1/jobs                 submit a QuerySpec, returns the job status
//	GET    /v1/jobs                 job statuses (?state= ?tenant= ?limit=)
//	GET    /v1/jobs/{id}            job status + live progress
//	GET    /v1/jobs/{id}/results    NDJSON result stream, follows a live job
//	DELETE /v1/jobs/{id}            cancel (queued or running)
//
// When the manager carries a keyed tenant registry, every request outside
// /healthz, /version and /metrics must present an API key; the tenant's
// token bucket, quotas and admission budget apply before any work is done.
type Server struct {
	mgr     *Manager
	mux     *http.ServeMux
	build   VersionInfo
	metrics *Metrics // nil when disabled via WithoutMetrics
	handler http.Handler
}

// ServerOption configures NewServer.
type ServerOption func(*Server)

// WithoutMetrics disables both the /metrics endpoint and the request
// instrumentation (the -metrics=false deployment).
func WithoutMetrics() ServerOption {
	return func(s *Server) { s.metrics = nil }
}

// WithMetrics installs a caller-owned metrics registry (for sharing one
// registry across servers, or pre-registering collectors).
func WithMetrics(m *Metrics) ServerOption {
	return func(s *Server) { s.metrics = m }
}

// serverRoutes is the complete v1 route table — the single source the mux
// registration and the HTTP-surface golden test both read.
var serverRoutes = []string{
	"GET /healthz",
	"GET /version",
	"GET /metrics",
	"GET /v1/datasets",
	"PUT /v1/datasets/{name}",
	"POST /v1/query",
	"POST /v1/jobs",
	"GET /v1/jobs",
	"GET /v1/jobs/{id}",
	"GET /v1/jobs/{id}/results",
	"DELETE /v1/jobs/{id}",
}

// Routes returns the registered route patterns (a copy), for surface
// pinning.
func Routes() []string {
	out := make([]string, len(serverRoutes))
	copy(out, serverRoutes)
	return out
}

// NewServer wires the routes of the service around mgr. Every error
// response — including the mux's own 404/405 — leaves as structured JSON
// with a stable machine-readable code (see jsonErrors), so machine clients
// such as cluster workers parse one shape uniformly. Metrics are on by
// default: the manager reports job lifecycle events into the server's
// registry and GET /metrics renders it.
func NewServer(mgr *Manager, opts ...ServerOption) *Server {
	s := &Server{mgr: mgr, mux: http.NewServeMux(), build: versionInfo(), metrics: NewMetrics()}
	for _, opt := range opts {
		opt(s)
	}
	s.mux.HandleFunc("GET /healthz", s.health)
	s.mux.HandleFunc("GET /version", s.version)
	if s.metrics != nil {
		s.mux.HandleFunc("GET /metrics", s.metricsEndpoint)
		mgr.SetMetrics(s.metrics)
	}
	s.mux.HandleFunc("GET /v1/datasets", s.listDatasets)
	s.mux.HandleFunc("PUT /v1/datasets/{name}", s.putDataset)
	s.mux.HandleFunc("POST /v1/query", s.query)
	s.mux.HandleFunc("POST /v1/jobs", s.submitJob)
	s.mux.HandleFunc("GET /v1/jobs", s.listJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.jobStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/results", s.jobResults)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.cancelJob)
	s.handler = jsonErrors(s.withAuth(s.mux), s.metrics)
	return s
}

// Metrics returns the server's metrics registry (nil when disabled) so
// callers can register extra collectors — how cmd/farmerd hooks the
// cluster coordinator's gauges into the scrape.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Handle registers an extra route on the server's mux — how cmd/farmerd
// mounts the cluster coordinator and worker endpoints under the same
// listener (and the same JSON-error envelope) as the mining API.
func (s *Server) Handle(pattern string, h http.Handler) {
	s.mux.Handle(pattern, h)
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// responseBufPool recycles the encode buffers behind every JSON response,
// so status and submit traffic does not allocate a fresh buffer (or take
// chunked encoding) per request.
var responseBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := responseBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
	responseBufPool.Put(buf)
}

func (s *Server) health(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// metricsEndpoint renders the Prometheus text exposition: the server's
// request metrics, the manager's live gauges and per-tenant accounting,
// then any registered collectors (the cluster coordinator).
func (s *Server) metricsEndpoint(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	buf := responseBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	_ = s.metrics.render(buf)
	s.renderManagerMetrics(buf)
	h := w.Header()
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
	responseBufPool.Put(buf)
}

// renderManagerMetrics writes the gauges and per-tenant series that live
// on the manager rather than in the Metrics registry: queue occupancy,
// cache state, and each tenant's resource roll-up.
func (s *Server) renderManagerMetrics(w io.Writer) {
	p := &promWriter{w: w, b: make([]byte, 0, 2048)}
	queued, running := s.mgr.QueueStats()
	p.line("# HELP farmerd_queue_depth Jobs currently queued across all tenants.")
	p.line("# TYPE farmerd_queue_depth gauge")
	p.counter("farmerd_queue_depth", "", int64(queued))
	p.line("# HELP farmerd_jobs_running Jobs currently executing on workers.")
	p.line("# TYPE farmerd_jobs_running gauge")
	p.counter("farmerd_jobs_running", "", int64(running))

	entries, bytes := s.mgr.CacheStats()
	hits, misses := s.mgr.CacheCounters()
	p.line("# HELP farmerd_cache_entries Result-cache entries resident.")
	p.line("# TYPE farmerd_cache_entries gauge")
	p.counter("farmerd_cache_entries", "", int64(entries))
	p.line("# HELP farmerd_cache_bytes Result-cache bytes resident.")
	p.line("# TYPE farmerd_cache_bytes gauge")
	p.counter("farmerd_cache_bytes", "", bytes)
	p.line("# HELP farmerd_cache_hits_total Result-cache lookup hits.")
	p.line("# TYPE farmerd_cache_hits_total counter")
	p.counter("farmerd_cache_hits_total", "", hits)
	p.line("# HELP farmerd_cache_misses_total Result-cache lookup misses.")
	p.line("# TYPE farmerd_cache_misses_total counter")
	p.counter("farmerd_cache_misses_total", "", misses)

	tenants := s.mgr.Tenants().All()
	names := make([]string, 0, len(tenants))
	byName := make(map[string]*Tenant, len(tenants))
	for _, t := range tenants {
		n := t.Name()
		names = append(names, n)
		byName[n] = t
	}
	sort.Strings(names)
	p.line("# HELP farmerd_tenant_jobs_total Jobs finished per tenant.")
	p.line("# TYPE farmerd_tenant_jobs_total counter")
	for _, n := range names {
		p.counter("farmerd_tenant_jobs_total", `tenant="`+n+`"`, byName[n].Acct.Jobs.Load())
	}
	p.line("# HELP farmerd_tenant_rows_expanded_total Enumeration nodes expanded per tenant.")
	p.line("# TYPE farmerd_tenant_rows_expanded_total counter")
	for _, n := range names {
		p.counter("farmerd_tenant_rows_expanded_total", `tenant="`+n+`"`, byName[n].Acct.RowsExpanded.Load())
	}
	p.line("# HELP farmerd_tenant_arena_bytes_total Arena bytes retained by runs, per tenant.")
	p.line("# TYPE farmerd_tenant_arena_bytes_total counter")
	for _, n := range names {
		p.counter("farmerd_tenant_arena_bytes_total", `tenant="`+n+`"`, byName[n].Acct.ArenaBytes.Load())
	}
	p.line("# HELP farmerd_tenant_run_seconds_total Worker seconds consumed per tenant.")
	p.line("# TYPE farmerd_tenant_run_seconds_total counter")
	for _, n := range names {
		p.sample("farmerd_tenant_run_seconds_total", `tenant="`+n+`"`, float64(byName[n].Acct.RunNS.Load())/1e9)
	}
	p.line("# HELP farmerd_tenant_queue_seconds_total Queue-wait seconds accumulated per tenant.")
	p.line("# TYPE farmerd_tenant_queue_seconds_total counter")
	for _, n := range names {
		p.sample("farmerd_tenant_queue_seconds_total", `tenant="`+n+`"`, float64(byName[n].Acct.QueueNS.Load())/1e9)
	}
	p.line("# HELP farmerd_tenant_rejected_total Requests refused per tenant by layer.")
	p.line("# TYPE farmerd_tenant_rejected_total counter")
	for _, n := range names {
		a := &byName[n].Acct
		p.counter("farmerd_tenant_rejected_total", `tenant="`+n+`",reason="rate_limited"`, a.RateLimited.Load())
		p.counter("farmerd_tenant_rejected_total", `tenant="`+n+`",reason="quota"`, a.QuotaRejected.Load())
		p.counter("farmerd_tenant_rejected_total", `tenant="`+n+`",reason="admission"`, a.AdmissionRejected.Load())
	}
	_ = p.flush()
}

// DatasetInfo describes one registered dataset.
type DatasetInfo struct {
	Name    string   `json:"name"`
	Rows    int      `json:"rows"`
	Items   int      `json:"items"`
	Classes []string `json:"classes"`
}

func (s *Server) listDatasets(w http.ResponseWriter, _ *http.Request) {
	reg := s.mgr.Registry()
	infos := []DatasetInfo{}
	for _, name := range reg.Names() {
		// Info reads registration metadata only: listing never forces a
		// cold store-backed snapshot to decode.
		if info, ok := reg.Info(name); ok {
			infos = append(infos, info)
		}
	}
	writeJSON(w, http.StatusOK, infos)
}

func (s *Server) putDataset(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	buckets := 0
	if b := r.URL.Query().Get("buckets"); b != "" {
		n, err := strconv.Atoi(b)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("bad buckets %q: %w", b, err))
			return
		}
		buckets = n
	}
	d, err := s.mgr.Registry().Load(name, r.URL.Query().Get("format"), buckets, r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, DatasetInfo{
		Name:    name,
		Rows:    d.NumRows(),
		Items:   d.NumItems,
		Classes: d.ClassNames,
	})
}

// query is the one-round-trip request path tuned for repeat traffic: the
// spec is submitted and its NDJSON results stream back on the same
// response. A request whose canonical hash matches a cached completed run
// replays the pre-encoded body without touching the job manager — one
// header write plus one body write of an immutable shared buffer, with
// Content-Length set (no chunked encoding) and a strong ETag; a matching
// If-None-Match returns 304 without reading the body at all. Cache misses
// fall back to a normal submission (singleflight, queueing, backpressure
// and cancellation all apply) whose results are streamed live.
func (s *Server) query(w http.ResponseWriter, r *http.Request) {
	var spec QuerySpec
	if err := decodeSpec(r, &spec); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	if res, ok := s.mgr.cachedFor(spec); ok {
		serveReplay(w, r, res.body, res.etag, true)
		return
	}
	job, err := s.mgr.SubmitAs(s.tenantOf(r), spec)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	// Submit may still have resolved a replay (cache filled between the
	// lookup and the submission, or a mined job that already finished);
	// only a cached job turns the miss into a hit.
	w.Header().Set("X-Cache", "MISS")
	if body, etag, ok := job.replay(); ok {
		serveReplay(w, r, body, etag, job.cached)
		return
	}
	w.Header().Set("Content-Type", ndjsonContentType)
	w.WriteHeader(http.StatusOK)
	streamFollow(w, r, job)
}

// writeSubmitError maps a Manager submission failure to its HTTP shape:
// status, stable code, and Retry-After where retrying can help.
func writeSubmitError(w http.ResponseWriter, err error) {
	var quota *QuotaError
	var admission *AdmissionError
	switch {
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, CodeDraining, err)
	case errors.Is(err, ErrQueueFull):
		writeErrorRetry(w, http.StatusServiceUnavailable, CodeQueueFull, err, time.Second)
	case errors.Is(err, ErrUnknownDataset):
		writeError(w, http.StatusNotFound, CodeDatasetNotFound, err)
	case errors.As(err, &quota):
		writeErrorRetry(w, http.StatusTooManyRequests, CodeQuotaExceeded, err, time.Second)
	case errors.As(err, &admission):
		writeError(w, http.StatusForbidden, CodeAdmissionRejected, err)
	default:
		writeError(w, http.StatusBadRequest, CodeBadRequest, err)
	}
}

func (s *Server) submitJob(w http.ResponseWriter, r *http.Request) {
	var spec QuerySpec
	if err := decodeSpec(r, &spec); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	job, err := s.mgr.SubmitAs(s.tenantOf(r), spec)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, job.Status())
}

// defaultJobsPageSize bounds GET /v1/jobs when no ?limit= is given: the
// newest jobs are what operators want, and an unbounded dump of a
// long-lived daemon's history is never it.
const defaultJobsPageSize = 100

// listJobs returns job statuses newest-first, filtered by ?state= and
// ?tenant= when given, bounded by ?limit= (default 100; limit=0 is
// rejected rather than meaning unlimited).
func (s *Server) listJobs(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := defaultJobsPageSize
	if l := q.Get("limit"); l != "" {
		n, err := strconv.Atoi(l)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("bad limit %q", l))
			return
		}
		limit = n
	}
	stateFilter := q.Get("state")
	if stateFilter != "" && !validState(stateFilter) {
		writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("bad state %q", stateFilter))
		return
	}
	tenantFilter := q.Get("tenant")

	jobs := s.mgr.Jobs()
	// Newest first: job ids are dense sequence numbers, so creation time
	// sorts identically but ties (same-nanosecond submissions) stay
	// deterministic by sequence.
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].seqNum() > jobs[j].seqNum() })
	statuses := []JobStatus{}
	for _, j := range jobs {
		if len(statuses) >= limit {
			break
		}
		st := j.Status()
		if stateFilter != "" && string(st.State) != stateFilter {
			continue
		}
		if tenantFilter != "" && st.Tenant != tenantFilter {
			continue
		}
		statuses = append(statuses, st)
	}
	writeJSON(w, http.StatusOK, statuses)
}

// validState reports whether s names a job lifecycle state.
func validState(s string) bool {
	switch State(s) {
	case StateQueued, StateRunning, StateDone, StateFailed, StateCancelled:
		return true
	}
	return false
}

func (s *Server) jobStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, CodeJobNotFound, ErrNotFound)
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

func (s *Server) cancelJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.mgr.Cancel(id); err != nil {
		writeError(w, http.StatusNotFound, CodeJobNotFound, err)
		return
	}
	job, _ := s.mgr.Get(id)
	writeJSON(w, http.StatusOK, job.Status())
}

// etagMatches reports whether the If-None-Match header value matches the
// given strong ETag. The comparison accepts "*", a single ETag, or a
// comma-separated list, tolerating a W/ weakness prefix (weak comparison
// is permitted for GET/HEAD conditionals) — all without allocating.
func etagMatches(header, etag string) bool {
	if header == "*" {
		return true
	}
	for {
		header = strings.TrimLeft(header, " \t,")
		if header == "" {
			return false
		}
		candidate := header
		if strings.HasPrefix(candidate, "W/") {
			candidate = candidate[2:]
		}
		// The ETag ends with '"', so a prefix match cannot stop short of a
		// token boundary.
		if strings.HasPrefix(candidate, etag) {
			return true
		}
		i := strings.IndexByte(header, ',')
		if i < 0 {
			return false
		}
		header = header[i+1:]
	}
}

// serveReplay writes a fully-known NDJSON body in one shot: strong ETag,
// explicit Content-Length (the stack skips chunked transfer encoding),
// and a single Write of the shared immutable buffer. An If-None-Match hit
// answers 304 before the body is ever touched. cacheHit marks responses
// served from the result cache (X-Cache: HIT) as the cached flag does on
// job statuses.
func serveReplay(w http.ResponseWriter, r *http.Request, body []byte, etag string, cacheHit bool) {
	h := w.Header()
	h.Set("ETag", etag)
	if cacheHit {
		h.Set("X-Cache", "HIT")
	}
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h.Set("Content-Type", ndjsonContentType)
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// streamFollow replays the records already emitted and follows the live
// job until it finishes or the client goes away, closing the stream with
// the job's end frame — the trailer that tells the client whether the
// answer is complete or partial. Headers must be written before the call.
// The bytes written here for a clean completion are identical to the
// pre-encoded replay body, so warm replays and live streams compare equal.
func streamFollow(w http.ResponseWriter, r *http.Request, job *Job) {
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush() // commit headers before the first (possibly slow) record
	}
	from := 0
	for {
		batch, terminal, wake := job.next(from)
		for _, raw := range batch {
			if _, err := w.Write(raw); err != nil {
				return
			}
			if _, err := w.Write([]byte{'\n'}); err != nil {
				return
			}
		}
		from += len(batch)
		if flusher != nil && len(batch) > 0 {
			flusher.Flush()
		}
		if terminal {
			if frame := job.endBytes(); frame != nil {
				if _, err := w.Write(frame); err != nil {
					return
				}
				_, _ = w.Write([]byte{'\n'})
			}
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

// jobResults streams the job's result records as NDJSON. A cleanly
// completed job — cached replay or original run — is served through the
// zero-copy path (one write of the pre-encoded body, Content-Length and
// ETag set, If-None-Match honoured); anything still live or terminated
// early is replayed record by record, following the job until it finishes
// or the client goes away.
func (s *Server) jobResults(w http.ResponseWriter, r *http.Request) {
	job, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, CodeJobNotFound, ErrNotFound)
		return
	}
	if body, etag, ok := job.replay(); ok {
		serveReplay(w, r, body, etag, job.cached)
		return
	}
	w.Header().Set("Content-Type", ndjsonContentType)
	w.WriteHeader(http.StatusOK)
	streamFollow(w, r, job)
}

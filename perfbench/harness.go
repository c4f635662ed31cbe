package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	farmer "repro"
	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/synth"
)

// Inputs. The paper shapes keep the expression values of synth.PaperSpecs
// and take their gene order from the seed: a column permutation changes
// every item id the service sees, but leaves the row-enumeration search
// (node counts, groups) identical, so every seed poses the same amount of
// work. The bench shapes are left in their preset order, because the
// column-enumeration baselines mined on them do depend on item order;
// there the seed drives the traffic instead.

func permuteColumns(m *farmer.Matrix, seed int64) *farmer.Matrix {
	perm := rand.New(rand.NewSource(seed)).Perm(len(m.ColNames))
	out := &farmer.Matrix{
		ClassNames: m.ClassNames,
		Labels:     m.Labels,
		ColNames:   make([]string, len(perm)),
		Values:     make([][]float64, len(m.Values)),
	}
	for j, c := range perm {
		out.ColNames[j] = m.ColNames[c]
	}
	for r, row := range m.Values {
		nr := make([]float64, len(perm))
		for j, c := range perm {
			nr[j] = row[c]
		}
		out.Values[r] = nr
	}
	return out
}

func discretize(m *farmer.Matrix) (*farmer.Dataset, error) {
	disc, err := farmer.EqualDepth(m, 10)
	if err != nil {
		return nil, err
	}
	return disc.Apply(m)
}

// paperMatrix returns the paper-shape matrix name with a seeded gene order.
func paperMatrix(name string, seed int64) (*farmer.Matrix, error) {
	spec, ok := synth.PaperSpec(name)
	if !ok {
		return nil, fmt.Errorf("no spec %q", name)
	}
	m, err := spec.Generate()
	if err != nil {
		return nil, err
	}
	return permuteColumns(m, seed^int64(len(name))<<32), nil
}

// paperDataset returns the paper-shape dataset name with a seeded gene
// order; bench selects the 18–20-row synth.BenchSpecs variant, unpermuted.
func paperDataset(name string, seed int64, bench bool) (*farmer.Dataset, error) {
	if !bench {
		m, err := paperMatrix(name, seed)
		if err != nil {
			return nil, err
		}
		return discretize(m)
	}
	spec, ok := synth.BenchSpec(name)
	if !ok {
		return nil, fmt.Errorf("no bench spec %q", name)
	}
	m, err := spec.Generate()
	if err != nil {
		return nil, err
	}
	return discretize(m)
}

// matrixCSV renders m as the labeled expression CSV the service's matrix
// upload reads.
func matrixCSV(m *farmer.Matrix) ([]byte, error) {
	var buf bytes.Buffer
	if err := farmer.WriteMatrixCSV(&buf, m); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// svcConfig configures one in-process farmerd.
type svcConfig struct {
	managerWorkers int
	cacheBytes     int64  // 0 disables the result cache
	storeDir       string // non-empty selects a store-backed registry
	clusterWorkers int    // > 0 mounts a coordinator with this many local workers
	clusterChunks  int
	pollInterval   time.Duration
	workerClient   *http.Client
}

// service is farmerd's request path assembled in process: registry,
// manager, server, optional store and cluster, on a loopback listener.
type service struct {
	reg   *serve.Registry
	mgr   *serve.Manager
	st    *store.Store
	coord *cluster.Coordinator
	hs    *http.Server
	url   string

	served        chan struct{}
	cancelWorkers context.CancelFunc
	workers       sync.WaitGroup
}

func startService(cfg svcConfig) (*service, error) {
	s := &service{served: make(chan struct{}), cancelWorkers: func() {}}
	if cfg.storeDir != "" {
		st, err := store.Open(cfg.storeDir, store.Options{CacheBytes: store.DefaultCacheBytes})
		if err != nil {
			return nil, err
		}
		s.st = st
		s.reg = serve.NewRegistryWithStore(st)
	} else {
		s.reg = serve.NewRegistry()
	}
	s.mgr = serve.NewManager(s.reg, cfg.managerWorkers, 256, cfg.cacheBytes)
	srv := serve.NewServer(s.mgr)
	if cfg.clusterWorkers > 0 {
		s.coord = cluster.NewCoordinator(s.mgr, cluster.Options{Chunks: cfg.clusterChunks})
		s.coord.RegisterRoutes(srv)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	if cfg.clusterWorkers > 0 {
		ctx, cancel := context.WithCancel(context.Background())
		s.cancelWorkers = cancel
		for i := 0; i < cfg.clusterWorkers; i++ {
			w := cluster.NewWorker(s.url, cluster.WorkerOptions{
				ID: fmt.Sprintf("w%d", i), Workers: 1, PollInterval: cfg.pollInterval, Client: cfg.workerClient,
			})
			s.workers.Add(1)
			go func() {
				defer s.workers.Done()
				_ = w.Run(ctx)
			}()
		}
		deadline := time.Now().Add(10 * time.Second)
		for s.coord.ActiveWorkers() < cfg.clusterWorkers {
			if time.Now().After(deadline) {
				s.close()
				return nil, errors.New("cluster workers did not join")
			}
			time.Sleep(time.Millisecond)
		}
	}
	return s, nil
}

// close stops the workers, drains the manager, and releases the listener
// and the store; it returns once every goroutine it started has exited.
func (s *service) close() {
	s.cancelWorkers()
	s.workers.Wait()
	if s.mgr != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = s.mgr.Shutdown(ctx) // a forced drain still waits for the workers
		cancel()
	}
	if s.coord != nil {
		_ = s.coord.Close()
	}
	if s.hs != nil {
		_ = s.hs.Close()
		<-s.served
	}
	if s.st != nil {
		_ = s.st.Close()
	}
}

// client is a farmerd HTTP client limited to conns connections.
type client struct {
	hc   *http.Client
	tr   *http.Transport
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns,
		DisableCompression: true, IdleConnTimeout: time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, tr: tr, base: base}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

type response struct {
	status int
	body   []byte
	etag   string
}

// query posts spec to /v1/query, with an If-None-Match validator when inm
// is set, and reads the whole response.
func (c *client) query(spec serve.QuerySpec, inm string) (response, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return response{}, err
	}
	return c.post(raw, inm, new(bytes.Buffer))
}

// post sends an encoded spec to /v1/query and reads the response into
// buf, which the returned body aliases; callers that pool buffers must
// be done with the body before reusing buf.
func (c *client) post(spec []byte, inm string, buf *bytes.Buffer) (response, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/query", bytes.NewReader(spec))
	if err != nil {
		return response{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return response{}, err
	}
	r := response{status: resp.StatusCode, body: buf.Bytes(), etag: resp.Header.Get("ETag")}
	if r.status != http.StatusOK && r.status != http.StatusNotModified {
		return r, fmt.Errorf("query %s: status %d: %s", spec, r.status, strings.TrimSpace(buf.String()))
	}
	return r, nil
}

// putMatrix uploads a labeled expression CSV for equal-depth
// discretization into 10 buckets.
func (c *client) putMatrix(name string, csv []byte) error {
	req, err := http.NewRequest(http.MethodPut, c.base+"/v1/datasets/"+name+"?format=matrix&buckets=10", bytes.NewReader(csv))
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body) // only read for the error message
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("put %s: status %d: %s", name, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return nil
}

func (c *client) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("get %s: status %d", path, resp.StatusCode)
	}
	return body, nil
}

// scrape reads /metrics into a map from "name{labels}" to value.
func (c *client) scrape() (map[string]float64, error) {
	body, err := c.get("/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// serveCounters are the /metrics figures the per-layer report reads,
// taken as deltas between two scrapes.
type serveCounters struct {
	queueSum, queueCount float64
	runSum, runCount     float64
	hits, misses         float64
	rejected, submitted  float64
}

func countersOf(m map[string]float64) serveCounters {
	var c serveCounters
	c.queueSum = m["farmerd_job_queue_wait_seconds_sum"]
	c.queueCount = m["farmerd_job_queue_wait_seconds_count"]
	c.runSum = m["farmerd_job_run_seconds_sum"]
	c.runCount = m["farmerd_job_run_seconds_count"]
	c.hits = m["farmerd_cache_hits_total"]
	c.misses = m["farmerd_cache_misses_total"]
	c.submitted = m["farmerd_jobs_submitted_total"]
	for k, v := range m {
		if strings.HasPrefix(k, "farmerd_rejected_total{") {
			c.rejected += v
		}
	}
	return c
}

func (c serveCounters) minus(o serveCounters) serveCounters {
	return serveCounters{
		queueSum: c.queueSum - o.queueSum, queueCount: c.queueCount - o.queueCount,
		runSum: c.runSum - o.runSum, runCount: c.runCount - o.runCount,
		hits: c.hits - o.hits, misses: c.misses - o.misses,
		rejected: c.rejected - o.rejected, submitted: c.submitted - o.submitted,
	}
}

// layerMetrics adds the serve-layer figures read from /metrics.
func (c serveCounters) layerMetrics(out map[string]float64) {
	out["serve.queue_ms"] = 1000 * ratio(c.queueSum, c.queueCount)
	out["serve.run_ms"] = 1000 * ratio(c.runSum, c.runCount)
	out["serve.cache_hit_ratio"] = ratio(c.hits, c.hits+c.misses)
	out["serve.rejected_frac"] = ratio(c.rejected, c.rejected+c.submitted)
}

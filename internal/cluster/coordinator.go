package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	farmer "repro"
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/store"
)

// Errors surfaced by the coordinator's HTTP handlers.
var (
	// ErrLeaseGone reports a lease that is no longer outstanding — it
	// expired and was re-queued, its job finished or was cancelled. A
	// worker receiving it discards its local work for the lease.
	ErrLeaseGone = errors.New("cluster: lease is no longer outstanding")
)

// Options tunes a Coordinator.
type Options struct {
	// LeaseTTL is how long a worker holds a lease between renewals
	// before the reaper re-queues it. <= 0 selects 15s.
	LeaseTTL time.Duration
	// Chunks is how many partition leases a FARMER job is initially cut
	// into. <= 0 selects 8. Expired leases re-split further, so this is
	// a starting granularity, not a limit.
	Chunks int
	// MaxAttempts bounds how often one lease may be re-queued before its
	// job fails. <= 0 selects 5.
	MaxAttempts int
}

func (o Options) withDefaults() Options {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 15 * time.Second
	}
	if o.Chunks <= 0 {
		o.Chunks = 8
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 5
	}
	return o
}

// lease is the coordinator-side state of one unit of work.
type lease struct {
	id        string
	job       *cjob
	part      plan.Partition
	attempts  int
	notBefore time.Time // earliest next assignment (retry backoff)
	deadline  time.Time // renewal deadline while outstanding
	worker    string
}

// cjob is the coordinator-side state of one distributed FARMER run.
type cjob struct {
	id     string
	spec   serve.JobSpec
	digest string
	name   string

	d          *farmer.Dataset
	consequent int
	opt        farmer.MineOptions
	cov        *plan.Coverage
	partials   []*core.Partial

	err  error
	done chan struct{} // closed exactly once: complete, failed, or cancelled
}

func (j *cjob) finish(err error) {
	select {
	case <-j.done:
	default:
		j.err = err
		close(j.done)
	}
}

type snapEntry struct {
	buf  []byte
	refs int
}

// Coordinator turns FARMER jobs submitted to a farmerd manager into leases
// over the enumeration-task universe and merges what workers report back;
// every other miner runs on the coordinator's local runner. It
// plugs into the manager through SetRunnerBuilder, so queueing,
// singleflight, result caching, NDJSON streaming and cancellation are the
// ordinary serve machinery — only the runner's insides change.
type Coordinator struct {
	mgr *serve.Manager
	opt Options

	mu      sync.Mutex
	seq     int64
	pending []*lease
	leases  map[string]*lease // outstanding, keyed by lease id
	jobs    map[string]*cjob
	workers map[string]time.Time // worker id → last poll
	snaps   map[string]*snapEntry

	closeCh chan struct{}
	doneCh  chan struct{}
}

// NewCoordinator builds a coordinator over mgr and installs its runner
// builder. Call Close on shutdown to stop the lease reaper.
func NewCoordinator(mgr *serve.Manager, opt Options) *Coordinator {
	c := &Coordinator{
		mgr:     mgr,
		opt:     opt.withDefaults(),
		leases:  map[string]*lease{},
		jobs:    map[string]*cjob{},
		workers: map[string]time.Time{},
		snaps:   map[string]*snapEntry{},
		closeCh: make(chan struct{}),
		doneCh:  make(chan struct{}),
	}
	mgr.SetRunnerBuilder(c.buildRunner)
	go c.reaper()
	return c
}

// Close stops the reaper. In-flight jobs are not cancelled — the manager
// owns job lifecycle; Close is for process shutdown after mgr.Shutdown.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	select {
	case <-c.closeCh:
	default:
		close(c.closeCh)
	}
	c.mu.Unlock()
	<-c.doneCh
	return nil
}

// RouteRegistrar is the slice of serve.Server (or http.ServeMux) the
// coordinator mounts its endpoints on.
type RouteRegistrar interface {
	Handle(pattern string, h http.Handler)
}

// RegisterMetrics contributes the coordinator's lease-economy gauges to a
// serve metrics registry: they render on every GET /metrics scrape after
// the daemon's own series.
func (c *Coordinator) RegisterMetrics(m *serve.Metrics) {
	m.Register(func(w io.Writer) {
		c.mu.Lock()
		st := Stats{
			ActiveWorkers: c.activeWorkersLocked(),
			PendingLeases: len(c.pending),
			Outstanding:   len(c.leases),
			Jobs:          len(c.jobs),
		}
		c.mu.Unlock()
		fmt.Fprintf(w, "# HELP farmerd_cluster_active_workers Workers that polled within three lease TTLs.\n")
		fmt.Fprintf(w, "# TYPE farmerd_cluster_active_workers gauge\n")
		fmt.Fprintf(w, "farmerd_cluster_active_workers %d\n", st.ActiveWorkers)
		fmt.Fprintf(w, "# HELP farmerd_cluster_pending_leases Leases queued for assignment.\n")
		fmt.Fprintf(w, "# TYPE farmerd_cluster_pending_leases gauge\n")
		fmt.Fprintf(w, "farmerd_cluster_pending_leases %d\n", st.PendingLeases)
		fmt.Fprintf(w, "# HELP farmerd_cluster_outstanding_leases Leases held by workers.\n")
		fmt.Fprintf(w, "# TYPE farmerd_cluster_outstanding_leases gauge\n")
		fmt.Fprintf(w, "farmerd_cluster_outstanding_leases %d\n", st.Outstanding)
		fmt.Fprintf(w, "# HELP farmerd_cluster_jobs Distributed jobs in flight.\n")
		fmt.Fprintf(w, "# TYPE farmerd_cluster_jobs gauge\n")
		fmt.Fprintf(w, "farmerd_cluster_jobs %d\n", st.Jobs)
	})
}

// RegisterRoutes mounts the cluster protocol endpoints.
func (c *Coordinator) RegisterRoutes(mux RouteRegistrar) {
	mux.Handle("POST /cluster/v1/poll", http.HandlerFunc(c.handlePoll))
	mux.Handle("GET /cluster/v1/snapshots/{digest}", http.HandlerFunc(c.handleSnapshot))
	mux.Handle("POST /cluster/v1/leases/{id}/renew", http.HandlerFunc(c.handleRenew))
	mux.Handle("POST /cluster/v1/leases/{id}/results", http.HandlerFunc(c.handleResults))
	mux.Handle("GET /cluster/v1/stats", http.HandlerFunc(c.handleStats))
}

// Stats is the wire form of GET /cluster/v1/stats: a point-in-time view
// of the coordinator for operators and smoke tests (e.g. waiting until
// every worker has joined before submitting).
type Stats struct {
	ActiveWorkers int `json:"active_workers"`
	PendingLeases int `json:"pending_leases"`
	Outstanding   int `json:"outstanding_leases"`
	Jobs          int `json:"jobs"`
}

func (c *Coordinator) handleStats(w http.ResponseWriter, _ *http.Request) {
	c.mu.Lock()
	st := Stats{
		ActiveWorkers: c.activeWorkersLocked(),
		PendingLeases: len(c.pending),
		Outstanding:   len(c.leases),
		Jobs:          len(c.jobs),
	}
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// ActiveWorkers reports how many workers polled recently enough to be
// considered alive (within three lease TTLs).
func (c *Coordinator) ActiveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.activeWorkersLocked()
}

func (c *Coordinator) activeWorkersLocked() int {
	cutoff := time.Now().Add(-3 * c.opt.LeaseTTL)
	n := 0
	for _, t := range c.workers {
		if t.After(cutoff) {
			n++
		}
	}
	return n
}

// buildRunner is the coordinator's serve.RunnerBuilder: it validates the
// spec through the standard in-process builder. Only FARMER's row
// enumeration splits into independent pair tasks, so every other miner
// gets that local runner as is. A FARMER job is leased out when workers
// are available at run time; with no live workers it runs in-process, so
// a daemon started with -coordinator behaves exactly like a standalone
// one until workers join.
func (c *Coordinator) buildRunner(d *farmer.Dataset, snap *farmer.Snapshot, spec serve.JobSpec) (serve.RunnerFunc, error) {
	local, err := serve.BuildRunner(d, snap, spec)
	if err != nil {
		return nil, err
	}
	if spec.Miner != "farmer" {
		return local, nil
	}
	consequent, opt, err := serve.FarmerJobOptions(d, snap, spec)
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context, emit func(v any) error) (farmer.MinerResult, error) {
		if c.ActiveWorkers() == 0 {
			return local(ctx, emit)
		}
		return c.runFarmer(ctx, d, snap, spec, consequent, opt, emit)
	}, nil
}

// newJobLocked allocates a cluster job and pins the encoded snapshot for
// workers to fetch by digest. Callers hold c.mu.
func (c *Coordinator) newJobLocked(spec serve.JobSpec, snap *farmer.Snapshot) (*cjob, error) {
	buf, err := store.Encode(snap)
	if err != nil {
		return nil, fmt.Errorf("cluster: encode snapshot: %w", err)
	}
	digest := store.DigestBytes(buf)
	if e, ok := c.snaps[digest]; ok {
		e.refs++
	} else {
		c.snaps[digest] = &snapEntry{buf: buf, refs: 1}
	}
	c.seq++
	j := &cjob{
		id:     fmt.Sprintf("cjob-%d", c.seq),
		spec:   spec,
		digest: digest,
		name:   spec.Dataset,
		done:   make(chan struct{}),
	}
	c.jobs[j.id] = j
	return j, nil
}

// releaseJob drops the job and its pending/outstanding leases and unpins
// its snapshot. Outstanding leases simply vanish: the next renew or
// results POST gets ErrLeaseGone and the worker abandons the run.
func (c *Coordinator) releaseJob(j *cjob) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.jobs, j.id)
	kept := c.pending[:0]
	for _, l := range c.pending {
		if l.job != j {
			kept = append(kept, l)
		}
	}
	c.pending = kept
	for id, l := range c.leases {
		if l.job == j {
			delete(c.leases, id)
		}
	}
	if e, ok := c.snaps[j.digest]; ok {
		if e.refs--; e.refs <= 0 {
			delete(c.snaps, j.digest)
		}
	}
}

// enqueueLocked adds a lease to the assignable queue. Callers hold c.mu.
func (c *Coordinator) enqueueLocked(l *lease) {
	c.pending = append(c.pending, l)
}

func (c *Coordinator) newLeaseLocked(j *cjob, part plan.Partition) *lease {
	c.seq++
	return &lease{
		id:   fmt.Sprintf("lease-%d", c.seq),
		job:  j,
		part: part,
	}
}

// runFarmer distributes one FARMER job: cut the universe into partition
// leases, wait for coverage, merge, emit the records the single-node
// parallel runner would emit.
func (c *Coordinator) runFarmer(ctx context.Context, d *farmer.Dataset, snap *farmer.Snapshot, spec serve.JobSpec, consequent int, opt farmer.MineOptions, emit func(v any) error) (farmer.MinerResult, error) {
	// The universe is over the consequent view's rows, which equal the
	// dataset's row count; resolve it cheaply via the snapshot-backed
	// prepared path when merging. Here only n is needed.
	n := d.NumRows()

	c.mu.Lock()
	j, err := c.newJobLocked(spec, snap)
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	j.d, j.consequent, j.opt = d, consequent, opt
	j.cov = plan.NewCoverage(n)
	parts := plan.Universe(n).SplitN(c.opt.Chunks)
	for _, p := range parts {
		c.enqueueLocked(c.newLeaseLocked(j, p))
	}
	if len(parts) == 0 {
		j.finish(nil) // empty universe: nothing to lease
	}
	c.mu.Unlock()
	defer c.releaseJob(j)

	if err := c.wait(ctx, j); err != nil {
		return nil, err
	}

	c.mu.Lock()
	partials := j.partials
	c.mu.Unlock()
	res, err := core.MergePartials(ctx, d, consequent, opt, partials)
	if err != nil {
		return nil, err
	}
	for _, g := range res.Groups {
		if emitErr := emit(serve.MakeGroupRecord(d, g)); emitErr != nil {
			return res, emitErr
		}
	}
	return res, nil
}

// wait blocks until the job completes, reclaiming work locally if every
// worker disappears mid-job so a run never hangs on an empty cluster.
func (c *Coordinator) wait(ctx context.Context, j *cjob) error {
	tick := time.NewTicker(c.opt.LeaseTTL)
	defer tick.Stop()
	for {
		select {
		case <-j.done:
			return j.err
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
			c.reclaimLocal(ctx, j)
		}
	}
}

// reclaimLocal executes the job's still-pending partition leases on the
// coordinator itself when no workers are alive — the straggler handler of
// last resort. Outstanding leases are left alone; if their workers died
// too, the reaper expires them back into pending and the next tick picks
// them up here.
func (c *Coordinator) reclaimLocal(ctx context.Context, j *cjob) {
	c.mu.Lock()
	if c.activeWorkersLocked() > 0 {
		c.mu.Unlock()
		return
	}
	var mine []*lease
	kept := c.pending[:0]
	for _, l := range c.pending {
		if l.job == j {
			mine = append(mine, l)
		} else {
			kept = append(kept, l)
		}
	}
	c.pending = kept
	// Mark them outstanding under far deadlines so expiry cannot race the
	// local run.
	for _, l := range mine {
		l.deadline = time.Now().Add(24 * time.Hour)
		l.worker = "coordinator-local"
		c.leases[l.id] = l
	}
	c.mu.Unlock()

	for _, l := range mine {
		partial, err := core.MinePartitions(ctx, j.d, j.consequent, j.opt, l.part, j.spec.Workers)
		if err != nil {
			c.failLease(l, err)
			continue
		}
		c.commitPartition(l, partial)
	}
}

// handlePoll assigns the oldest eligible pending lease to the polling
// worker.
func (c *Coordinator) handlePoll(w http.ResponseWriter, r *http.Request) {
	var req PollRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Worker == "" {
		writeJSONError(w, http.StatusBadRequest, fmt.Errorf("cluster: poll needs a worker id"))
		return
	}
	now := time.Now()
	c.mu.Lock()
	c.workers[req.Worker] = now
	var assigned *lease
	for i, l := range c.pending {
		if l.notBefore.After(now) {
			continue
		}
		assigned = l
		c.pending = append(c.pending[:i], c.pending[i+1:]...)
		break
	}
	var resp PollResponse
	if assigned != nil {
		assigned.worker = req.Worker
		assigned.deadline = now.Add(c.opt.LeaseTTL)
		c.leases[assigned.id] = assigned
		resp.Lease = &Lease{
			ID:           assigned.id,
			Job:          assigned.job.id,
			Spec:         assigned.job.spec,
			Partition:    assigned.part,
			SnapshotName: assigned.job.name,
			Digest:       assigned.job.digest,
			TTLMS:        c.opt.LeaseTTL.Milliseconds(),
		}
	}
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	c.mu.Lock()
	e, ok := c.snaps[digest]
	c.mu.Unlock()
	if !ok {
		writeJSONError(w, http.StatusNotFound, fmt.Errorf("cluster: no pinned snapshot %s", digest))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(e.buf)
}

func (c *Coordinator) handleRenew(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	c.mu.Lock()
	l, ok := c.leases[id]
	if ok {
		l.deadline = time.Now().Add(c.opt.LeaseTTL)
	}
	c.mu.Unlock()
	if !ok {
		writeJSONError(w, http.StatusNotFound, ErrLeaseGone)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// handleResults consumes a lease's NDJSON frame stream. Nothing commits
// until the end frame has been read intact — a worker dying mid-stream
// leaves no trace, its lease simply expires and re-queues.
func (c *Coordinator) handleResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var (
		partial *core.Partial
		end     *EndFrame
	)
	dec := json.NewDecoder(r.Body)
	for end == nil {
		var f Frame
		if err := dec.Decode(&f); err != nil {
			writeJSONError(w, http.StatusBadRequest, fmt.Errorf("cluster: bad result frame: %v", err))
			return
		}
		switch {
		case f.End != nil:
			end = f.End
		case f.Partial != nil:
			p := new(core.Partial)
			if err := json.Unmarshal(f.Partial, p); err != nil {
				writeJSONError(w, http.StatusBadRequest, fmt.Errorf("cluster: bad partial: %v", err))
				return
			}
			partial = p
		}
	}

	c.mu.Lock()
	l, ok := c.leases[id]
	c.mu.Unlock()
	if !ok {
		writeJSONError(w, http.StatusGone, ErrLeaseGone)
		return
	}
	if end.Error != "" {
		// Worker-side failure (fetch error, local cancellation): requeue
		// with backoff rather than failing the job — the work itself is
		// deterministic and another node can do it.
		c.failLease(l, errors.New(end.Error))
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
		return
	}
	if partial == nil {
		c.failLease(l, errors.New("cluster: partition lease reported no partial"))
	} else {
		c.commitPartition(l, partial)
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// commitPartition records a completed partition lease: coverage first (the
// exactly-once oracle), then the partial. Closing the job's done channel
// when the universe is fully covered hands control back to the runner.
func (c *Coordinator) commitPartition(l *lease, partial *core.Partial) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.leases[l.id]; !ok || cur != l {
		return // expired/cancelled while mining; the requeued copy owns the slice now
	}
	delete(c.leases, l.id)
	j := l.job
	if err := j.cov.Add(l.part); err != nil {
		// Double execution would corrupt counters; this cannot happen
		// while commit-or-requeue is exclusive, so treat it as fatal.
		j.finish(fmt.Errorf("cluster: coverage violation: %w", err))
		return
	}
	j.partials = append(j.partials, partial)
	if j.cov.Done() {
		j.finish(nil)
	}
}

// failLease handles a lease whose attempt failed (worker error or
// expiry): requeue with backoff — split in two so a straggler's slice
// spreads across workers — or fail the job once the attempt budget is
// exhausted.
func (c *Coordinator) failLease(l *lease, cause error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failLeaseLocked(l, cause)
}

func (c *Coordinator) failLeaseLocked(l *lease, cause error) {
	if cur, ok := c.leases[l.id]; ok && cur == l {
		delete(c.leases, l.id)
	}
	j := l.job
	select {
	case <-j.done:
		return
	default:
	}
	if l.attempts+1 >= c.opt.MaxAttempts {
		j.finish(fmt.Errorf("cluster: lease %s failed after %d attempts: %w", l.id, l.attempts+1, cause))
		return
	}
	backoff := time.Duration(l.attempts+1) * c.opt.LeaseTTL / 8
	notBefore := time.Now().Add(backoff)
	if l.part.Len() > 1 {
		lo, hi := l.part.Split()
		for _, p := range []plan.Partition{lo, hi} {
			nl := c.newLeaseLocked(j, p)
			nl.attempts = l.attempts + 1
			nl.notBefore = notBefore
			c.enqueueLocked(nl)
		}
		return
	}
	nl := c.newLeaseLocked(j, l.part)
	nl.attempts = l.attempts + 1
	nl.notBefore = notBefore
	c.enqueueLocked(nl)
}

// reaper expires outstanding leases whose workers stopped renewing.
func (c *Coordinator) reaper() {
	defer close(c.doneCh)
	interval := c.opt.LeaseTTL / 4
	if interval < 25*time.Millisecond {
		interval = 25 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-c.closeCh:
			return
		case <-tick.C:
			now := time.Now()
			c.mu.Lock()
			var expired []*lease
			for _, l := range c.leases {
				if now.After(l.deadline) {
					expired = append(expired, l)
				}
			}
			for _, l := range expired {
				c.failLeaseLocked(l, fmt.Errorf("lease deadline passed (worker %s lost)", l.worker))
			}
			c.mu.Unlock()
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeJSONError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

package serve

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	farmer "repro"
	"repro/internal/engine"
)

// Sentinel errors mapped to HTTP statuses by the server.
var (
	// ErrDraining rejects submissions while the manager shuts down (503).
	ErrDraining = errors.New("serve: manager is draining")
	// ErrQueueFull rejects submissions when the job queue is at capacity
	// (503): backpressure instead of unbounded memory growth.
	ErrQueueFull = errors.New("serve: job queue is full")
	// ErrNotFound reports an unknown job id (404).
	ErrNotFound = errors.New("serve: no such job")
)

// DefaultCacheBytes is the result-cache bound selected by a negative
// cacheBytes argument to NewManager (and by farmerd's flag default).
const DefaultCacheBytes int64 = 64 << 20

// tenantQueue is one tenant's FIFO of queued jobs plus its smooth
// weighted-round-robin state. Queues are created on a tenant's first
// submission and kept for the manager's lifetime (tenant counts are
// small); emptiness, not existence, is what the scheduler tests.
type tenantQueue struct {
	t    *Tenant
	jobs []*Job
	// fast is the tenant's interactive lane: budgeted anytime jobs, whose
	// cost is capped by their own budget. The scheduler drains fast lanes
	// with strict priority over the batch lanes — a bounded interactive
	// query never waits behind an unbounded batch mine — still WRR-fair
	// between tenants within the lane.
	fast []*Job
	// current is the smooth-WRR credit: every scheduling round adds the
	// tenant's weight to each non-empty queue, picks the largest, and
	// subtracts the round's total weight from the winner — interleaving
	// proportionally instead of bursting. currentFast is the same credit
	// for the interactive lane (the lanes run separate WRR rounds).
	current     int
	currentFast int
}

// Manager owns the per-tenant job queues and the bounded worker pool that
// drains them. Jobs pass through queued -> running -> done/failed/
// cancelled; a DELETE cancels a queued job immediately and interrupts a
// running one through its context (the engine stops within one node
// expansion).
//
// Scheduling is weighted round-robin across tenants with queued work
// (nginx's smooth WRR), so a tenant flooding its queue delays only its own
// jobs: another tenant's next job is picked within one round regardless of
// backlog depth. The global queue depth still bounds total memory
// (ErrQueueFull), and per-tenant quotas bound any one tenant's share of
// it.
//
// Two layers sit in front of the queues, both keyed by the canonical
// request hash (miner + dataset generation + options — see requestKey):
// inflight coalesces identical concurrent submissions onto one live job
// (singleflight), and cache replays the NDJSON records of identical
// completed jobs without re-mining.
type Manager struct {
	reg     *Registry
	cache   *resultCache
	tenants atomic.Pointer[Tenants]
	metrics atomic.Pointer[Metrics]     // nil-safe: no-op until SetMetrics
	audit   atomic.Pointer[AuditLogger] // nil-safe: no-op until SetAudit

	// builder compiles validated specs into runners; nil selects the
	// in-process buildRunner. A cluster coordinator installs its
	// distributed builder here via SetRunnerBuilder.
	builder RunnerBuilder

	mu       sync.Mutex
	cond     *sync.Cond // signalled when work is queued or draining starts
	jobs     map[string]*Job
	finished []string        // terminal job ids in m.jobs, oldest first
	inflight map[reqKey]*Job // request key -> queued/running job
	seq      int
	queues   []*tenantQueue // WRR order: first-submission order, stable
	queueOf  map[*Tenant]*tenantQueue
	queued   int // jobs across all queues (bounded by depth)
	running  int
	depth    int
	draining bool

	wg sync.WaitGroup // live workers
}

// maxFinishedJobs bounds how many terminal jobs the manager keeps for
// status and result lookups. A finished job holds its records and encoded
// body, so an unbounded table grows the heap with every request. Beyond
// the bound the oldest terminal jobs are forgotten, and their ids answer
// 404 job_not_found; queued and running jobs are never evicted.
const maxFinishedJobs = 64

// NewManager starts workers goroutines (<= 0 selects GOMAXPROCS) serving
// queues with a total depth bound (<= 0 selects 64). cacheBytes bounds the
// result cache: negative selects DefaultCacheBytes, zero disables caching
// (singleflight coalescing stays on — it holds no extra memory). The
// manager starts with an open tenant registry (one unlimited anonymous
// tenant); install a keyed one with SetTenants before serving traffic.
func NewManager(reg *Registry, workers, depth int, cacheBytes int64) *Manager {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if depth <= 0 {
		depth = 64
	}
	if cacheBytes < 0 {
		cacheBytes = DefaultCacheBytes
	}
	m := &Manager{
		reg:      reg,
		cache:    newResultCache(cacheBytes),
		jobs:     make(map[string]*Job),
		inflight: make(map[reqKey]*Job),
		queueOf:  make(map[*Tenant]*tenantQueue),
		depth:    depth,
	}
	m.tenants.Store(NewTenants())
	m.cond = sync.NewCond(&m.mu)
	for i := 0; i < workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Registry returns the dataset registry jobs resolve their input from.
func (m *Manager) Registry() *Registry { return m.reg }

// Tenants returns the manager's tenant registry.
func (m *Manager) Tenants() *Tenants { return m.tenants.Load() }

// SetTenants installs a tenant registry (from a keys file). Call before
// serving traffic: jobs already queued keep the tenant they resolved.
func (m *Manager) SetTenants(t *Tenants) { m.tenants.Store(t) }

// SetMetrics installs the metrics sink the manager reports job lifecycle
// events into (nil disables).
func (m *Manager) SetMetrics(mx *Metrics) { m.metrics.Store(mx) }

// SetAudit installs the audit logger (nil disables).
func (m *Manager) SetAudit(a *AuditLogger) { m.audit.Store(a) }

// auditLog returns the current audit logger (nil-safe to call Log on).
func (m *Manager) auditLog() *AuditLogger { return m.audit.Load() }

// RunnerBuilder compiles a validated (dataset, snapshot, spec) triple into
// the RunnerFunc that will execute the job. The default is the in-process
// BuildRunner; a cluster coordinator substitutes one that leases
// partitions to remote workers and merges their partials, leaving every
// other manager behavior — queueing, singleflight, result cache, NDJSON
// streaming, cancellation — untouched.
type RunnerBuilder func(d *farmer.Dataset, snap *farmer.Snapshot, spec JobSpec) (RunnerFunc, error)

// SetRunnerBuilder installs b as the manager's runner builder (nil
// restores the in-process default). Call before serving traffic: jobs
// already queued keep the runner they were compiled with.
func (m *Manager) SetRunnerBuilder(b RunnerBuilder) {
	m.mu.Lock()
	m.builder = b
	m.mu.Unlock()
}

// Submit is SubmitAs for the anonymous tenant — the library entry point
// open deployments and tests use.
func (m *Manager) Submit(spec JobSpec) (*Job, error) {
	return m.SubmitAs(m.Tenants().Anonymous(), spec)
}

// SubmitAs validates spec, applies the tenant's admission checks, compiles
// the spec into a runner and enqueues the job on the tenant's queue.
// Validation failures (unknown miner, dataset or class) are returned
// immediately; ErrDraining, ErrQueueFull, *QuotaError and *AdmissionError
// signal admission refusal.
//
// Identical requests are served without re-mining: a submission whose
// canonical request key matches a live (queued or running) job returns
// that job — both callers stream the same run — and one matching a cached
// completed result returns a fresh job that is already done, flagged
// Cached in its status, replaying the stored records byte for byte.
// Replays and coalesced joins bypass cost admission: they do no new work.
func (m *Manager) SubmitAs(t *Tenant, spec JobSpec) (*Job, error) {
	if t == nil {
		t = m.Tenants().Anonymous()
	}
	spec = canonicalSpec(spec)
	d, snap, gen, err := m.reg.Entry(spec.Dataset)
	if err != nil {
		return nil, err
	}
	key := requestKey(spec, gen)
	// Fast path: an identical live job or a cached result serves the
	// submission without compiling a runner. An invalid spec can never be
	// inflight or cached (it could not have been enqueued), so skipping
	// compilation here skips no validation.
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	if live, ok := m.inflight[key]; ok {
		m.mu.Unlock()
		return live, nil
	}
	if res, ok := m.cache.get(key); ok {
		job := m.addCachedJobLocked(spec, res)
		m.mu.Unlock()
		return job, nil
	}
	build := m.builder
	m.mu.Unlock()

	// Cost admission: predicted enumeration cost against the tenant
	// budget, before compiling a runner or touching the queue. Only
	// genuinely new work reaches this point. Budgeted anytime jobs skip
	// the check: their max_millis/max_nodes budget caps their cost more
	// tightly than any prediction, so the interactive lane stays open
	// even to tenants whose batch budget is exhausted.
	if t != nil && !spec.Budgeted() {
		if budget := t.Config().MaxCost; budget > 0 {
			if cost := m.reg.CostModelFor(spec.Dataset, d); cost != nil {
				if est := cost.Estimate(spec); est > budget {
					t.Acct.AdmissionRejected.Add(1)
					m.metricsRef().AdmissionRejected()
					err := &AdmissionError{Tenant: t.Name(), Predicted: est, Budget: budget}
					m.auditLog().Log(AuditEvent{Event: "admission_rejected", Tenant: t.Name(), Detail: err.Error()})
					return nil, err
				}
			}
		}
	}

	if build == nil {
		build = buildRunner
	}
	run, err := build(d, snap, spec)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return nil, ErrDraining
	}
	if live, ok := m.inflight[key]; ok {
		return live, nil
	}
	if res, ok := m.cache.get(key); ok {
		return m.addCachedJobLocked(spec, res), nil
	}
	if m.queued >= m.depth {
		m.metricsRef().QueueRejected()
		return nil, ErrQueueFull
	}
	if t != nil {
		if limit := t.Config().MaxInflight; limit > 0 && t.inflight >= limit {
			t.Acct.QuotaRejected.Add(1)
			m.metricsRef().QuotaRejected()
			err := &QuotaError{Tenant: t.Name(), Inflight: t.inflight, Limit: limit}
			m.auditLog().Log(AuditEvent{Event: "quota_exceeded", Tenant: t.Name(), Detail: err.Error()})
			return nil, err
		}
	}
	m.seq++
	job := newJob(jobID(m.seq), spec, run)
	job.key, job.hasKey = key, true
	job.tenant = t
	m.jobs[job.ID] = job
	m.inflight[key] = job
	q := m.queueForLocked(t)
	if spec.Budgeted() {
		q.fast = append(q.fast, job)
	} else {
		q.jobs = append(q.jobs, job)
	}
	m.queued++
	if t != nil {
		t.inflight++
	}
	m.metricsRef().JobSubmitted()
	m.auditLog().Log(AuditEvent{Event: "job_submitted", Tenant: tenantName(t), Job: job.ID, Detail: spec.Miner + "/" + spec.Dataset})
	m.cond.Signal()
	return job, nil
}

// queueForLocked returns (creating if needed) the tenant's queue. Callers
// hold m.mu. A nil tenant shares one queue.
func (m *Manager) queueForLocked(t *Tenant) *tenantQueue {
	if q, ok := m.queueOf[t]; ok {
		return q
	}
	q := &tenantQueue{t: t}
	m.queueOf[t] = q
	m.queues = append(m.queues, q)
	return q
}

// tenantName renders a possibly-nil tenant for statuses and logs.
func tenantName(t *Tenant) string {
	if t == nil {
		return AnonymousTenant
	}
	return t.Name()
}

// metricsRef returns the current metrics sink (nil-safe to call methods
// on).
func (m *Manager) metricsRef() *Metrics { return m.metrics.Load() }

// addCachedJobLocked registers a born-terminal replay job for res. Callers
// hold m.mu.
func (m *Manager) addCachedJobLocked(spec JobSpec, res cachedResult) *Job {
	m.seq++
	job := newCachedJob(jobID(m.seq), spec, res)
	m.jobs[job.ID] = job
	m.retireLocked(job)
	return job
}

// retireLocked records that job reached a terminal state and evicts the
// oldest terminal job once more than maxFinishedJobs are retained.
// Callers hold m.mu.
func (m *Manager) retireLocked(job *Job) {
	m.finished = append(m.finished, job.ID)
	if len(m.finished) > maxFinishedJobs {
		delete(m.jobs, m.finished[0])
		copy(m.finished, m.finished[1:])
		m.finished = m.finished[:len(m.finished)-1]
	}
}

// jobID renders the job identifier without fmt's reflection overhead.
func jobID(seq int) string {
	return "job-" + strconv.Itoa(seq)
}

// seqNum recovers the dense sequence number from a job id, giving
// listJobs a total newest-first order without a clock comparison.
func (j *Job) seqNum() int {
	n, _ := strconv.Atoi(j.ID[len("job-"):])
	return n
}

// cachedFor resolves spec straight to its cached pre-encoded result, the
// zero-copy warm path behind POST /v1/query: only the registration
// generation is consulted (never the snapshot store, never the job
// machinery), so a warm hit costs one hash and two map lookups and
// creates nothing that must be tracked or reclaimed.
func (m *Manager) cachedFor(spec JobSpec) (cachedResult, bool) {
	if m.cache == nil {
		return cachedResult{}, false
	}
	spec = canonicalSpec(spec)
	gen, ok := m.reg.GenerationOf(spec.Dataset)
	if !ok {
		return cachedResult{}, false
	}
	return m.cache.get(requestKey(spec, gen))
}

// CacheStats reports the result cache's current entry count and byte size
// (zeros when caching is disabled).
func (m *Manager) CacheStats() (entries int, bytes int64) {
	return m.cache.len(), m.cache.bytes()
}

// CacheCounters reports the result cache's lifetime hit/miss totals.
func (m *Manager) CacheCounters() (hits, misses int64) {
	return m.cache.counters()
}

// QueueStats reports the scheduler's current occupancy: jobs queued
// across all tenants and jobs running on workers.
func (m *Manager) QueueStats() (queued, running int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.queued, m.running
}

// detachLocked removes job from the singleflight table. Callers hold m.mu.
func (m *Manager) detachLocked(job *Job) {
	if job.hasKey && m.inflight[job.key] == job {
		delete(m.inflight, job.key)
	}
}

// Get returns the job with the given id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs returns a snapshot of all jobs, newest first not guaranteed.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j)
	}
	return out
}

// releaseTenantLocked returns a finished/cancelled job's quota slot.
// Callers hold m.mu.
func (m *Manager) releaseTenantLocked(job *Job) {
	if job.tenant != nil {
		job.tenant.inflight--
	}
}

// Cancel stops the job with the given id: a queued job turns cancelled
// immediately (the worker skips it when it is popped), a running job has
// its context cancelled and finishes with partial statistics. Cancelling
// a terminal job is a no-op.
func (m *Manager) Cancel(id string) error {
	job, ok := m.Get(id)
	if !ok {
		return ErrNotFound
	}
	job.mu.Lock()
	switch {
	case job.state == StateQueued:
		job.state = StateCancelled
		job.errMsg = context.Canceled.Error()
		job.stopReason = "cancel"
		job.endedAt = time.Now()
		close(job.done)
		job.wakeLocked()
		job.mu.Unlock()
		m.mu.Lock()
		m.detachLocked(job)
		m.releaseTenantLocked(job)
		m.retireLocked(job)
		m.metricsRef().JobFinished(StateCancelled)
		m.mu.Unlock()
	case job.state == StateRunning:
		cancel := job.cancel
		job.mu.Unlock()
		cancel()
	default:
		job.mu.Unlock()
	}
	return nil
}

// Shutdown drains the service: no new submissions are admitted, workers
// finish the jobs already queued or running, and once ctx expires every
// remaining job is cancelled (each stops within one node expansion).
// Shutdown returns when all workers have exited; the error is ctx.Err()
// when the drain deadline forced cancellation, nil otherwise.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if !m.draining {
		m.draining = true
		m.cond.Broadcast()
	}
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	// Drain deadline hit: cancel everything still live and wait for the
	// workers — cancellation is honoured within one node expansion, so
	// this wait is short and bounded by the slowest expansion.
	m.mu.Lock()
	for _, j := range m.jobs {
		j.mu.Lock()
		switch j.state {
		case StateQueued:
			j.state = StateCancelled
			j.errMsg = context.Canceled.Error()
			j.stopReason = "cancel"
			j.endedAt = time.Now()
			close(j.done)
			j.wakeLocked()
			m.detachLocked(j)
			m.releaseTenantLocked(j)
			m.retireLocked(j)
			m.metricsRef().JobFinished(StateCancelled)
		case StateRunning:
			j.cancel()
		}
		j.mu.Unlock()
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	<-done
	return ctx.Err()
}

// dequeue blocks until a job is available (returning it) or the manager
// is draining with every queue empty (returning nil). The pick is smooth
// weighted round-robin across tenants with queued work, so one tenant's
// backlog cannot monopolize the workers.
func (m *Manager) dequeue() *Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if job := m.pickLocked(); job != nil {
			m.queued--
			m.running++
			return job
		}
		if m.draining {
			return nil
		}
		m.cond.Wait()
	}
}

// pickLocked picks the next job: the interactive lane (budgeted anytime
// jobs) drains with strict priority over the batch lane, each lane WRR-
// fair between its tenants. Strict priority cannot starve batch work —
// every interactive job bounds its own runtime, so the fast lane drains.
// Callers hold m.mu.
func (m *Manager) pickLocked() *Job {
	if job := m.pickLaneLocked(true); job != nil {
		return job
	}
	return m.pickLaneLocked(false)
}

// pickLaneLocked runs one smooth-WRR round over the non-empty queues of
// one lane: add each contender's weight to its credit, pick the largest
// credit (queue order breaks ties deterministically), charge the winner
// the round's total. With equal weights this interleaves tenants
// one-for-one; with weight 3 vs 1 the heavy tenant gets three picks
// spread across every four, never a burst. Callers hold m.mu.
func (m *Manager) pickLaneLocked(fast bool) *Job {
	lane := func(q *tenantQueue) *[]*Job {
		if fast {
			return &q.fast
		}
		return &q.jobs
	}
	credit := func(q *tenantQueue) *int {
		if fast {
			return &q.currentFast
		}
		return &q.current
	}
	total := 0
	var best *tenantQueue
	for _, q := range m.queues {
		if len(*lane(q)) == 0 {
			continue
		}
		w := 1
		if q.t != nil {
			w = q.t.weight()
		}
		*credit(q) += w
		total += w
		if best == nil || *credit(q) > *credit(best) {
			best = q
		}
	}
	if best == nil {
		return nil
	}
	*credit(best) -= total
	jobs := *lane(best)
	job := jobs[0]
	copy(jobs, jobs[1:])
	*lane(best) = jobs[:len(jobs)-1]
	return job
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		job := m.dequeue()
		if job == nil {
			return
		}
		m.run(job)
		m.mu.Lock()
		m.running--
		m.mu.Unlock()
	}
}

// run executes one job on the calling worker goroutine.
func (m *Manager) run(job *Job) {
	ctx := context.Background()
	var cancel context.CancelFunc
	if job.Spec.TimeoutMS > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(job.Spec.TimeoutMS)*time.Millisecond)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	job.mu.Lock()
	if job.state != StateQueued { // cancelled while waiting in the queue
		job.mu.Unlock()
		return
	}
	job.state = StateRunning
	job.startedAt = time.Now()
	job.cancel = cancel
	job.wakeLocked()
	queueWait := job.startedAt.Sub(job.createdAt)
	job.mu.Unlock()
	m.metricsRef().ObserveQueueWait(queueWait)

	res, err := job.runner(ctx, job.emit)
	var stats engine.Stats
	hasStats := res != nil
	if hasStats {
		stats = res.Stats()
	}
	// The anytime verdict, when the runner produced one (topk jobs): a
	// budget stop comes back as a successful partial result, not an error.
	partial, gap, hasGap := false, 0.0, false
	var nodes int64
	if ao, ok := res.(anytimeOutcome); ok {
		partial, gap, hasGap, nodes = ao.Partial, ao.Gap, ao.HasGap, ao.NodesExpanded
	}
	var state State
	switch {
	case err == nil:
		state = StateDone
		reason := ""
		if partial {
			reason = "budget"
		}
		job.setOutcome(partial, gap, hasGap, nodes, reason)
		if !partial {
			// Only complete, successful runs are replayable and cacheable:
			// the records are final, so they are flattened once — together
			// with the end frame — into the contiguous NDJSON body that the
			// cache stores and the job itself serves through the zero-copy
			// path; every later replay shares this one buffer. A partial
			// (budget-stopped) answer is never cached: re-asking must re-mine
			// for a chance at a better answer.
			etag := etagFor(job.key)
			body, count := job.sealReplay(etag)
			// The answer is cached, and the job leaves the singleflight
			// table, before the Done transition wakes any streamer: a
			// client that has read the end frame and asks again is served
			// from the cache, never joined to the finishing job.
			m.mu.Lock()
			m.cache.put(job.key, cachedResult{body: body, count: count, stats: stats, hasStats: hasStats, etag: etag})
			m.detachLocked(job)
			m.mu.Unlock()
		}
		job.finish(StateDone, stats, hasStats, "")
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// An interrupted run emitted a prefix of its answer: flag it
		// partial and say which of the deadline or an explicit cancel cut
		// it short.
		state = StateCancelled
		reason := "cancel"
		if errors.Is(err, context.DeadlineExceeded) {
			reason = "deadline"
		}
		job.setOutcome(true, gap, hasGap, nodes, reason)
		job.finish(StateCancelled, stats, hasStats, err.Error())
	default:
		state = StateFailed
		job.setOutcome(partial, gap, hasGap, nodes, "")
		job.finish(StateFailed, stats, hasStats, err.Error())
	}

	job.mu.Lock()
	runDur := job.endedAt.Sub(job.startedAt)
	job.mu.Unlock()
	if t := job.tenant; t != nil {
		t.Acct.Jobs.Add(1)
		t.Acct.RowsExpanded.Add(stats.NodesVisited)
		t.Acct.ArenaBytes.Add(stats.ArenaBytes)
		t.Acct.RunNS.Add(int64(runDur))
		t.Acct.QueueNS.Add(int64(queueWait))
	}
	m.metricsRef().ObserveRun(runDur)
	m.metricsRef().JobFinished(state)
	if partial || state == StateCancelled {
		m.metricsRef().JobPartial()
	}
	if job.Spec.MaxMillis > 0 {
		m.metricsRef().ObserveBudgetUtilization(float64(runDur) / float64(time.Duration(job.Spec.MaxMillis)*time.Millisecond))
	}
	m.auditLog().Log(AuditEvent{Event: "job_finished", Tenant: tenantName(job.tenant), Job: job.ID, Detail: string(state)})

	m.mu.Lock()
	m.detachLocked(job)
	m.releaseTenantLocked(job)
	m.retireLocked(job)
	m.mu.Unlock()
}

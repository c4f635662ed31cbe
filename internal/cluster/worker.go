package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	farmer "repro"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/store"
)

// WorkerOptions tunes a Worker.
type WorkerOptions struct {
	// ID names the worker in poll requests; must be unique per cluster.
	ID string
	// Store, when non-nil, is consulted before fetching snapshot bytes
	// over HTTP, and fetched snapshots are written through to it so a
	// restarted worker warm-starts from disk.
	Store *store.Store
	// Workers is the in-process mining parallelism per lease; <= 0 lets
	// the core pick GOMAXPROCS.
	Workers int
	// PollInterval paces empty polls. <= 0 selects 250ms.
	PollInterval time.Duration
	// Client overrides the HTTP client (tests). Nil uses a default with
	// no global timeout — result uploads of large partials may be slow.
	Client *http.Client
	// APIKey authenticates the worker against a coordinator running with
	// a keys file; sent as a bearer token on every request. Empty means
	// the coordinator is open.
	APIKey string

	// AbandonLeases makes the worker take — and then silently drop — the
	// first N leases it is assigned, without reporting results or
	// renewing. It simulates a worker crash mid-lease for failover tests
	// and is never set in production.
	AbandonLeases int
}

// Worker polls a coordinator for leases, resolves the compiled dataset by
// snapshot digest (memory → own store → HTTP fetch with digest
// verification), executes the lease, and reports results as NDJSON frames
// with a terminal end frame.
type Worker struct {
	base string
	opt  WorkerOptions
	hc   *http.Client

	mu        sync.Mutex
	snaps     map[string]*farmer.Snapshot // digest → decoded snapshot
	abandoned int
}

// NewWorker builds a worker against the coordinator's base URL (e.g.
// "http://127.0.0.1:7077").
func NewWorker(coordinatorURL string, opt WorkerOptions) *Worker {
	if opt.ID == "" {
		opt.ID = "worker"
	}
	if opt.PollInterval <= 0 {
		opt.PollInterval = 250 * time.Millisecond
	}
	hc := opt.Client
	if hc == nil {
		hc = &http.Client{}
	}
	return &Worker{
		base:  coordinatorURL,
		opt:   opt,
		hc:    hc,
		snaps: map[string]*farmer.Snapshot{},
	}
}

// Run polls until ctx is cancelled. Poll failures (coordinator down or
// restarting) back off at the poll interval rather than aborting, so a
// worker can outlive its coordinator.
func (w *Worker) Run(ctx context.Context) error {
	for {
		lease, err := w.poll(ctx)
		if err == nil && lease != nil {
			w.execute(ctx, lease)
			continue // immediately ask for more work
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(w.opt.PollInterval):
		}
	}
}

// newRequest builds a coordinator request with the worker's API key (when
// configured) attached — every call site goes through it so an
// authenticated cluster never leaks an anonymous request.
func (w *Worker) newRequest(ctx context.Context, method, url string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return nil, err
	}
	if w.opt.APIKey != "" {
		req.Header.Set("Authorization", "Bearer "+w.opt.APIKey)
	}
	return req, nil
}

func (w *Worker) poll(ctx context.Context) (*Lease, error) {
	body, err := json.Marshal(PollRequest{Worker: w.opt.ID})
	if err != nil {
		return nil, err
	}
	req, err := w.newRequest(ctx, http.MethodPost, w.base+"/cluster/v1/poll", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: poll status %d", resp.StatusCode)
	}
	var pr PollResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		return nil, err
	}
	return pr.Lease, nil
}

// execute runs one lease end to end. Errors are reported to the
// coordinator inside the end frame so it can requeue; only transport
// failures go unreported (the lease then expires on its own).
func (w *Worker) execute(ctx context.Context, l *Lease) {
	if w.takeAbandonSlot() {
		return // simulated crash: hold the lease silently until it expires
	}

	// Renewals run for the whole lease; a 404 on renew means the
	// coordinator re-queued the slice (or the job died) and local work
	// must stop.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	renewDone := make(chan struct{})
	go func() {
		defer close(renewDone)
		w.renewLoop(runCtx, cancel, l)
	}()
	defer func() { cancel(); <-renewDone }()

	end := &EndFrame{}
	partial, err := w.mine(runCtx, l)
	if err != nil {
		partial, end.Error = nil, err.Error()
	}
	w.report(ctx, l, partial, end)
}

// mine resolves the lease's dataset and mines its partition.
func (w *Worker) mine(ctx context.Context, l *Lease) (*core.Partial, error) {
	snap, err := w.snapshot(ctx, l)
	if err != nil {
		return nil, err
	}
	d := snap.Dataset()
	consequent, opt, err := serve.FarmerJobOptions(d, snap, l.Spec)
	if err != nil {
		return nil, err
	}
	return core.MinePartitions(ctx, d, consequent, opt, l.Partition, w.opt.Workers)
}

func (w *Worker) takeAbandonSlot() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.abandoned < w.opt.AbandonLeases {
		w.abandoned++
		return true
	}
	return false
}

// renewLoop heartbeats the lease at a third of its TTL and cancels the
// local run when the coordinator no longer recognises the lease.
func (w *Worker) renewLoop(ctx context.Context, cancel context.CancelFunc, l *Lease) {
	ttl := time.Duration(l.TTLMS) * time.Millisecond
	if ttl <= 0 {
		ttl = 15 * time.Second
	}
	tick := time.NewTicker(ttl / 3)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		req, err := w.newRequest(ctx, http.MethodPost,
			w.base+"/cluster/v1/leases/"+l.ID+"/renew", nil)
		if err != nil {
			return
		}
		resp, err := w.hc.Do(req)
		if err != nil {
			continue // transient; the lease may still be alive
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			cancel() // lease re-queued elsewhere: abandon local work
			return
		}
	}
}

// snapshot resolves the lease's compiled dataset: in-memory digest cache,
// then the worker's own store, then an HTTP fetch from the coordinator —
// verified against the digest and written through to the store.
func (w *Worker) snapshot(ctx context.Context, l *Lease) (*farmer.Snapshot, error) {
	w.mu.Lock()
	snap, ok := w.snaps[l.Digest]
	w.mu.Unlock()
	if ok {
		return snap, nil
	}

	if st := w.opt.Store; st != nil {
		if meta, ok := st.FindByDigest(l.Digest); ok {
			if snap, _, err := st.Load(meta.Name); err == nil {
				w.cache(l.Digest, snap)
				return snap, nil
			}
		}
	}

	buf, err := w.fetch(ctx, l.Digest)
	if err != nil {
		return nil, err
	}
	if got := store.DigestBytes(buf); got != l.Digest {
		return nil, fmt.Errorf("cluster: snapshot digest mismatch: want %s, got %s", l.Digest, got)
	}
	snap, err = store.Decode(buf)
	if err != nil {
		return nil, fmt.Errorf("cluster: decode fetched snapshot: %w", err)
	}
	if st := w.opt.Store; st != nil && l.SnapshotName != "" {
		// Best-effort warm cache for restarts; mining proceeds either way.
		_ = st.Put(l.SnapshotName, snap, st.Generation()+1)
	}
	w.cache(l.Digest, snap)
	return snap, nil
}

func (w *Worker) cache(digest string, snap *farmer.Snapshot) {
	w.mu.Lock()
	w.snaps[digest] = snap
	w.mu.Unlock()
}

func (w *Worker) fetch(ctx context.Context, digest string) ([]byte, error) {
	req, err := w.newRequest(ctx, http.MethodGet,
		w.base+"/cluster/v1/snapshots/"+digest, nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: snapshot fetch status %d", resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// report uploads the lease's result frames in one POST: the partial (nil
// when mining failed), then the terminal end frame. The body is built in
// memory — commit on the coordinator is atomic on the end frame, so
// streaming incrementally would buy nothing.
func (w *Worker) report(ctx context.Context, l *Lease, partial *core.Partial, end *EndFrame) {
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	if partial != nil {
		raw, err := json.Marshal(partial)
		if err != nil {
			end = &EndFrame{Error: fmt.Sprintf("cluster: encode partial: %v", err)}
		} else if err := enc.Encode(Frame{Partial: raw}); err != nil {
			return
		}
	}
	if err := enc.Encode(Frame{End: end}); err != nil {
		return
	}

	// Reporting must survive local-run cancellation caused by a renew 404
	// (the error frame is how the coordinator learns quickly); use the
	// outer context, falling back to a short independent deadline when
	// the worker itself is shutting down.
	rctx := ctx
	if ctx.Err() != nil {
		var cancel context.CancelFunc
		rctx, cancel = context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
	}
	req, err := w.newRequest(rctx, http.MethodPost,
		w.base+"/cluster/v1/leases/"+l.ID+"/results", &body)
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := w.hc.Do(req)
	if err != nil {
		return // lease will expire and requeue
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

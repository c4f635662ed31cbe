package difftest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/serve"
)

// DistOptions shapes the simulated cluster a DistHarness runs.
type DistOptions struct {
	// Workers is the number of in-process cluster workers; <= 0 selects 2.
	Workers int
	// AbandonLeases makes the first worker silently drop its first N
	// leases (no renew, no report) so its slices must expire and requeue —
	// the forced worker-loss path. 0 disables.
	AbandonLeases int
	// LeaseTTL for the coordinator; <= 0 selects 30s (effectively "no
	// expiry" for happy-path checks). Worker-loss checks want it short.
	LeaseTTL time.Duration
	// Chunks is the initial partition count per FARMER job; <= 0 selects
	// the coordinator default.
	Chunks int
}

// DistHarness is one live simulated cluster: a coordinator-enabled farmerd
// service plus in-process workers polling it over real HTTP. It is reused
// across many CheckDistributed cases so per-case cost is one dataset
// registration and two jobs, not a service bring-up.
type DistHarness struct {
	mgr    *serve.Manager
	coord  *cluster.Coordinator
	ts     *httptest.Server
	cancel context.CancelFunc
	seq    int
}

// NewDistHarness starts the simulated cluster and blocks until every
// worker has polled at least once, so jobs submitted afterwards take the
// distributed path rather than the no-workers local fallback.
func NewDistHarness(opt DistOptions) (*DistHarness, error) {
	if opt.Workers <= 0 {
		opt.Workers = 2
	}
	if opt.LeaseTTL <= 0 {
		opt.LeaseTTL = 30 * time.Second
	}
	reg := serve.NewRegistry()
	mgr := serve.NewManager(reg, 2, 16, serve.DefaultCacheBytes)
	coord := cluster.NewCoordinator(mgr, cluster.Options{LeaseTTL: opt.LeaseTTL, Chunks: opt.Chunks})
	srv := serve.NewServer(mgr)
	coord.RegisterRoutes(srv)
	ts := httptest.NewServer(srv)

	ctx, cancel := context.WithCancel(context.Background())
	for i := 0; i < opt.Workers; i++ {
		wopt := cluster.WorkerOptions{
			ID:           fmt.Sprintf("w%d", i),
			PollInterval: 5 * time.Millisecond,
		}
		if i == 0 {
			wopt.AbandonLeases = opt.AbandonLeases
		}
		w := cluster.NewWorker(ts.URL, wopt)
		go func() { _ = w.Run(ctx) }()
	}

	h := &DistHarness{mgr: mgr, coord: coord, ts: ts, cancel: cancel}
	deadline := time.Now().Add(5 * time.Second)
	for coord.ActiveWorkers() < opt.Workers {
		if time.Now().After(deadline) {
			h.Close()
			return nil, fmt.Errorf("difftest: workers never polled the coordinator")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return h, nil
}

// Close tears the cluster down: workers first, then the manager, then the
// coordinator's reaper and the listener.
func (h *DistHarness) Close() {
	h.cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = h.mgr.Shutdown(ctx)
	_ = h.coord.Close()
	h.ts.Close()
}

// CheckDistributed is equivalence class (f) of the harness: a job mined
// across cluster workers must be indistinguishable from the single-node
// run — the NDJSON result stream byte-identical and the deterministic
// Counters equal. FARMER exercises the partition-lease path against the
// in-process parallel runner (the counter-comparable baseline: the
// distributed universe decomposition is MineParallel's); CHARM checks that
// a miner the coordinator does not distribute runs on its local runner.
func CheckDistributed(h *DistHarness, c Case) error {
	h.seq++
	name := fmt.Sprintf("dist-%d", h.seq)
	if err := h.mgr.Registry().Put(name, c.D); err != nil {
		return fmt.Errorf("register: %w", err)
	}

	workers := c.Workers
	if workers == 0 {
		workers = -1 // the distributed baseline is the parallel batch path
	}
	farmerSpec := serve.JobSpec{
		Miner:       "farmer",
		Dataset:     name,
		Class:       c.D.ClassNames[c.Consequent],
		MinSup:      c.Opt.MinSup,
		MinConf:     c.Opt.MinConf,
		MinChi:      c.Opt.MinChi,
		LowerBounds: c.Opt.ComputeLowerBounds,
		Workers:     workers,
	}
	if err := h.compareJob(name, farmerSpec); err != nil {
		return fmt.Errorf("farmer: %w", err)
	}

	charmSpec := serve.JobSpec{Miner: "charm", Dataset: name, MinSup: c.MinSupCS}
	if err := h.compareJob(name, charmSpec); err != nil {
		return fmt.Errorf("charm: %w", err)
	}
	return nil
}

// compareJob runs spec once through the live cluster and once through the
// in-process runner the single-node service would use (same registry
// entry, same compiled snapshot) and diffs the streams and counters.
func (h *DistHarness) compareJob(name string, spec serve.JobSpec) error {
	wantBytes, wantStats, wantHasStats, err := h.localRun(name, spec)
	if err != nil {
		return fmt.Errorf("single-node baseline: %w", err)
	}
	gotBytes, gotStatus, err := h.clusterRun(spec)
	if err != nil {
		return err
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		return fmt.Errorf("NDJSON stream differs\ndistributed:\n%s\nsingle-node:\n%s", gotBytes, wantBytes)
	}
	if wantHasStats {
		if gotStatus.Stats == nil {
			return fmt.Errorf("distributed job has no stats")
		}
		if gotStatus.Stats.Counters != wantStats.Counters {
			return fmt.Errorf("counters differ\ndistributed: %+v\nsingle-node: %+v",
				gotStatus.Stats.Counters, wantStats.Counters)
		}
	}
	return nil
}

// localRun executes spec with the default in-process runner against the
// registry's compiled entry — exactly what a standalone daemon would do —
// and returns the NDJSON bytes its job would stream plus its stats.
func (h *DistHarness) localRun(name string, spec serve.JobSpec) ([]byte, engine.Stats, bool, error) {
	d, snap, _, err := h.mgr.Registry().Entry(name)
	if err != nil {
		return nil, engine.Stats{}, false, err
	}
	runner, err := serve.BuildRunner(d, snap, spec)
	if err != nil {
		return nil, engine.Stats{}, false, err
	}
	var buf bytes.Buffer
	emitted := 0
	emit := func(v any) error {
		raw, err := json.Marshal(v)
		if err != nil {
			return err
		}
		buf.Write(raw)
		buf.WriteByte('\n')
		emitted++
		return nil
	}
	res, err := runner(context.Background(), emit)
	if err != nil {
		return nil, engine.Stats{}, false, err
	}
	// A served stream closes with the end-frame trailer; render the one a
	// clean completion would carry so the byte comparison stays exact.
	frame, err := json.Marshal(serve.EndFrame{End: true, State: serve.StateDone, Emitted: emitted})
	if err != nil {
		return nil, engine.Stats{}, false, err
	}
	buf.Write(frame)
	buf.WriteByte('\n')
	if res == nil {
		return buf.Bytes(), engine.Stats{}, false, nil
	}
	return buf.Bytes(), res.Stats(), true, nil
}

// clusterRun submits spec over HTTP, waits for the job to finish, and
// returns the streamed NDJSON plus the terminal status.
func (h *DistHarness) clusterRun(spec serve.JobSpec) ([]byte, *serve.JobStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, nil, err
	}
	resp, err := http.Post(h.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return nil, nil, fmt.Errorf("submit status %d: %s", resp.StatusCode, raw)
	}
	var status serve.JobStatus
	if err := json.Unmarshal(raw, &status); err != nil {
		return nil, nil, err
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		sresp, err := http.Get(h.ts.URL + "/v1/jobs/" + status.ID)
		if err != nil {
			return nil, nil, err
		}
		sraw, err := io.ReadAll(sresp.Body)
		sresp.Body.Close()
		if err != nil {
			return nil, nil, err
		}
		if err := json.Unmarshal(sraw, &status); err != nil {
			return nil, nil, fmt.Errorf("status body %q: %w", sraw, err)
		}
		if status.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			return nil, nil, fmt.Errorf("job %s stuck in state %q", status.ID, status.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if status.State != serve.StateDone {
		return nil, nil, fmt.Errorf("job %s ended %q: %s", status.ID, status.State, status.Error)
	}

	rresp, err := http.Get(h.ts.URL + "/v1/jobs/" + status.ID + "/results")
	if err != nil {
		return nil, nil, err
	}
	defer rresp.Body.Close()
	records, err := io.ReadAll(rresp.Body)
	if err != nil {
		return nil, nil, err
	}
	return records, &status, nil
}

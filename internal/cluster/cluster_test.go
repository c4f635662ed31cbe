package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	farmer "repro"
	"repro/internal/dataset"
	"repro/internal/serve"
	"repro/internal/store"
)

func testDataset(t *testing.T) *farmer.Dataset {
	t.Helper()
	d, err := dataset.FromItemLists(
		[][]dataset.Item{{0, 1}, {0}, {1, 2}, {0, 2}, {0, 1, 2}},
		[]int{0, 0, 1, 1, 0}, 3, []string{"C", "N"})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// coordService stands up a manager with an installed coordinator and the
// full HTTP surface (mining API + cluster routes, JSON-error envelope).
func coordService(t *testing.T, opt Options) (*httptest.Server, *serve.Manager, *Coordinator) {
	t.Helper()
	reg := serve.NewRegistry()
	mgr := serve.NewManager(reg, 2, 16, serve.DefaultCacheBytes)
	coord := NewCoordinator(mgr, opt)
	srv := serve.NewServer(mgr)
	coord.RegisterRoutes(srv)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := mgr.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		coord.Close()
		ts.Close()
	})
	return ts, mgr, coord
}

// TestCoordinatorEndpointErrors pins the protocol's failure answers: they
// must be structured JSON with the right statuses, because workers parse
// every non-2xx body as {"error": ...}.
func TestCoordinatorEndpointErrors(t *testing.T) {
	ts, _, _ := coordService(t, Options{})

	for _, tc := range []struct {
		name, method, path, body string
		want                     int
	}{
		{"poll without worker id", http.MethodPost, "/cluster/v1/poll", `{}`, http.StatusBadRequest},
		{"poll bad json", http.MethodPost, "/cluster/v1/poll", `{nope`, http.StatusBadRequest},
		{"renew unknown lease", http.MethodPost, "/cluster/v1/leases/lease-404/renew", "", http.StatusNotFound},
		{"snapshot unknown digest", http.MethodGet, "/cluster/v1/snapshots/sha256:ffff", "", http.StatusNotFound},
		{"results missing end frame", http.MethodPost, "/cluster/v1/leases/lease-404/results", "", http.StatusBadRequest},
		{"results for gone lease", http.MethodPost, "/cluster/v1/leases/lease-404/results", `{"end":{}}` + "\n", http.StatusGone},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, raw)
		}
		var msg struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(raw, &msg); err != nil || msg.Error == "" {
			t.Errorf("%s: body %q is not an error envelope", tc.name, raw)
		}
	}
}

// TestNoWorkersRunsLocally: a daemon started with -coordinator but no
// joined workers must behave exactly like a standalone one — jobs run
// in-process through the fallback.
func TestNoWorkersRunsLocally(t *testing.T) {
	_, mgr, coord := coordService(t, Options{})
	if n := coord.ActiveWorkers(); n != 0 {
		t.Fatalf("ActiveWorkers = %d before any poll", n)
	}
	if err := mgr.Registry().Put("d", testDataset(t)); err != nil {
		t.Fatal(err)
	}
	job, err := mgr.Submit(serve.JobSpec{Miner: "farmer", Dataset: "d", Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("job did not finish")
	}
	st := job.Status()
	if st.State != serve.StateDone {
		t.Fatalf("job state %q: %s", st.State, st.Error)
	}
	if st.Emitted == 0 {
		t.Fatalf("local fallback emitted no records")
	}
}

// TestNonFarmerJobsRunLocally: only FARMER's enumeration splits into pair
// tasks, so every other miner runs on the coordinator's local runner even
// while workers are polling. No lease is ever offered, and the job streams
// exactly the records serve.BuildRunner produces.
func TestNonFarmerJobsRunLocally(t *testing.T) {
	ts, mgr, coord := coordService(t, Options{})
	if err := mgr.Registry().Put("d", testDataset(t)); err != nil {
		t.Fatal(err)
	}

	// A worker that polls but never executes or reports anything.
	ghost := NewWorker(ts.URL, WorkerOptions{ID: "ghost"})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if l, err := ghost.poll(ctx); err != nil || l != nil {
		t.Fatalf("first poll: lease %v, err %v", l, err)
	}
	if n := coord.ActiveWorkers(); n != 1 {
		t.Fatalf("ActiveWorkers = %d after poll, want 1", n)
	}
	leased := make(chan *Lease, 1)
	polling := make(chan struct{})
	go func() {
		defer close(polling)
		for ctx.Err() == nil {
			if l, _ := ghost.poll(ctx); l != nil {
				leased <- l
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	job, err := mgr.Submit(serve.JobSpec{Miner: "charm", Dataset: "d", MinSup: 1})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case l := <-leased:
		t.Fatalf("worker was offered lease %s for a CHARM job", l.ID)
	case <-time.After(10 * time.Second):
		t.Fatal("CHARM job did not finish")
	}
	cancel()
	<-polling
	select {
	case l := <-leased:
		t.Fatalf("worker was offered lease %s for a CHARM job", l.ID)
	default:
	}
	if st := job.Status(); st.State != serve.StateDone {
		t.Fatalf("job state %q: %s", st.State, st.Error)
	}

	d, snap, _, err := mgr.Registry().Entry("d")
	if err != nil {
		t.Fatal(err)
	}
	run, err := serve.BuildRunner(d, snap, job.Spec)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	if _, err := run(context.Background(), func(v any) error {
		raw, err := json.Marshal(v)
		want = append(want, string(raw))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("fixture mined no closed sets")
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	if got := lines[:len(lines)-1]; !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed records differ from serve.BuildRunner's:\n got %q\nwant %q", got, want)
	}
	var end serve.EndFrame
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &end); err != nil {
		t.Fatal(err)
	}
	if !end.End || end.State != serve.StateDone || end.Emitted != len(want) {
		t.Fatalf("end frame %+v, want done with %d records", end, len(want))
	}
}

// TestWorkerSnapshotResolution covers the fetch-or-load chain: HTTP fetch
// with digest verification and store write-through, then a second worker
// resolving the same digest purely from the shared store while the
// coordinator answers 500 — proving no network round trip is needed.
func TestWorkerSnapshotResolution(t *testing.T) {
	d := testDataset(t)
	snap, err := farmer.Prepare(d)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := store.Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	digest := store.DigestBytes(buf)

	fetches := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/cluster/v1/snapshots/") {
			http.NotFound(w, r)
			return
		}
		fetches++
		w.Write(buf)
	}))
	defer ts.Close()

	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	lease := &Lease{ID: "lease-1", SnapshotName: "d", Digest: digest, TTLMS: 60_000}
	w1 := NewWorker(ts.URL, WorkerOptions{ID: "w1", Store: st})
	got, err := w1.snapshot(context.Background(), lease)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dataset().NumRows() != d.NumRows() {
		t.Fatalf("fetched snapshot has %d rows, want %d", got.Dataset().NumRows(), d.NumRows())
	}
	if fetches != 1 {
		t.Fatalf("fetches = %d, want 1", fetches)
	}
	// The fetch must have been written through to the store under the
	// coordinator's digest.
	if _, ok := st.FindByDigest(digest); !ok {
		t.Fatalf("digest %s not in store after write-through", digest)
	}

	// Second worker, same store, coordinator now failing: the snapshot
	// must resolve from disk alone.
	ts2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer ts2.Close()
	w2 := NewWorker(ts2.URL, WorkerOptions{ID: "w2", Store: st})
	if _, err := w2.snapshot(context.Background(), lease); err != nil {
		t.Fatalf("store-backed resolution failed: %v", err)
	}

	// A corrupted body must be rejected by digest verification.
	ts3 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(append([]byte{0xFF}, buf...))
	}))
	defer ts3.Close()
	w3 := NewWorker(ts3.URL, WorkerOptions{ID: "w3"})
	if _, err := w3.snapshot(context.Background(), lease); err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("corrupt fetch err = %v, want digest mismatch", err)
	}
}

// TestLeaseExpiryRequeuesSplit drives the reaper directly: an assigned,
// never-renewed partition lease must come back as two pending halves with
// a bumped attempt count.
func TestLeaseExpiryRequeuesSplit(t *testing.T) {
	ts, mgr, coord := coordService(t, Options{LeaseTTL: 80 * time.Millisecond, Chunks: 1})
	if err := mgr.Registry().Put("d", testDataset(t)); err != nil {
		t.Fatal(err)
	}

	// One fake worker poll so the runner takes the distributed path.
	poll := func() *Lease {
		t.Helper()
		resp, err := http.Post(ts.URL+"/cluster/v1/poll", "application/json",
			strings.NewReader(`{"worker":"ghost"}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var pr PollResponse
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
		return pr.Lease
	}
	poll()
	if coord.ActiveWorkers() != 1 {
		t.Fatalf("ActiveWorkers = %d after poll", coord.ActiveWorkers())
	}

	job, err := mgr.Submit(serve.JobSpec{Miner: "farmer", Dataset: "d", Workers: -1})
	if err != nil {
		t.Fatal(err)
	}

	// Claim the single partition lease (the whole universe, Chunks: 1)
	// and never renew it.
	var first *Lease
	deadline := time.Now().Add(5 * time.Second)
	for first == nil && time.Now().Before(deadline) {
		first = poll()
		if first == nil {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if first == nil {
		t.Fatal("no lease offered")
	}

	// After expiry the reaper must requeue the slice split in two.
	var halves []*Lease
	deadline = time.Now().Add(5 * time.Second)
	for len(halves) < 2 && time.Now().Before(deadline) {
		if l := poll(); l != nil {
			halves = append(halves, l)
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if len(halves) != 2 {
		t.Fatalf("got %d requeued leases, want 2", len(halves))
	}
	total := halves[0].Partition.Len() + halves[1].Partition.Len()
	if total != first.Partition.Len() {
		t.Fatalf("halves cover %d subtasks, original %d", total, first.Partition.Len())
	}

	// The zombie's late report must get 410 Gone.
	resp, err := http.Post(ts.URL+"/cluster/v1/leases/"+first.ID+"/results",
		"application/x-ndjson", strings.NewReader(`{"end":{}}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("zombie report status %d, want 410", resp.StatusCode)
	}

	// Let the job finish: cancel it (workers are fake), which drops leases.
	if err := mgr.Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled job did not finish")
	}
}

package serve_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	farmer "repro"
	"repro/internal/serve"
)

const paperExample = `
C : a b c l o s
C : a d e h p l r
C : a c e h o q t
N : a e f h p r
N : b d f g l q s t
`

// slowExample builds a transactions text whose FARMER minsup=1 run takes
// on the order of a second — long enough to cancel mid-flight. Same
// recipe as internal/core's stress dataset, scaled up.
func slowExample() string {
	const rows, items = 70, 100
	rng := rand.New(rand.NewSource(4041))
	var b strings.Builder
	for i := 0; i < rows; i++ {
		if i%2 == 0 {
			b.WriteString("C :")
		} else {
			b.WriteString("N :")
		}
		for it := 0; it < items; it++ {
			p := 0.35
			if i%2 == 0 && it < 3 {
				p = 0.9
			}
			if rng.Float64() < p {
				fmt.Fprintf(&b, " g%d", it)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// service spins up a full server (registry + manager + HTTP) and tears it
// down at the end of the test, checking that no goroutines leak.
func service(t *testing.T, workers, depth int) (*httptest.Server, *serve.Manager) {
	t.Helper()
	base := runtime.NumGoroutine()
	reg := serve.NewRegistry()
	mgr := serve.NewManager(reg, workers, depth, serve.DefaultCacheBytes)
	ts := httptest.NewServer(serve.NewServer(mgr))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := mgr.Shutdown(ctx); err != nil {
			t.Errorf("manager shutdown: %v", err)
		}
		ts.Close()
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= base {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("goroutine leak: %d before, %d after shutdown", base, runtime.NumGoroutine())
	})
	return ts, mgr
}

func put(t *testing.T, url, body string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT %s: status %d", url, resp.StatusCode)
	}
}

func submit(t *testing.T, baseURL string, spec serve.JobSpec) serve.JobStatus {
	t.Helper()
	buf, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v1/jobs", "application/json", strings.NewReader(string(buf)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: status %d", resp.StatusCode)
	}
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func status(t *testing.T, baseURL, id string) serve.JobStatus {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls the status endpoint until pred accepts it.
func waitState(t *testing.T, baseURL, id string, pred func(serve.JobStatus) bool) serve.JobStatus {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		st := status(t, baseURL, id)
		if pred(st) {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s: timed out waiting for state, last %+v", id, status(t, baseURL, id))
	return serve.JobStatus{}
}

// streamLines reads the full NDJSON result stream (following the job
// until it terminates).
func streamLines(t *testing.T, baseURL, id string) []string {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/jobs/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET results: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("GET results: content-type %q", ct)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// Every finished stream closes with the end-frame trailer; validate and
	// strip it so callers compare result records only.
	if len(lines) == 0 || !strings.HasPrefix(lines[len(lines)-1], `{"end":true`) {
		t.Fatalf("stream missing end frame, got %d lines", len(lines))
	}
	return lines[:len(lines)-1]
}

// endFrameLine renders the end frame a cleanly completed, non-partial run
// closes its stream with — what the cached replay body embeds verbatim.
func endFrameLine(emitted int) string {
	return fmt.Sprintf(`{"end":true,"state":"done","emitted":%d}`, emitted)
}

func loadExample(t *testing.T) *farmer.Dataset {
	t.Helper()
	d, err := farmer.ReadTransactions(strings.NewReader(paperExample))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// expectedFarmerLines runs the library streaming call and renders each
// group the way the service does, so the comparison is byte-exact.
func expectedFarmerLines(t *testing.T, d *farmer.Dataset, consequent int, opt farmer.MineOptions) []string {
	t.Helper()
	var lines []string
	opt.OnGroup = func(g farmer.RuleGroup) error {
		rec := serve.GroupRecord{
			Antecedent: names(d, g.Antecedent),
			SupPos:     g.SupPos,
			SupNeg:     g.SupNeg,
			Confidence: g.Confidence,
			Chi:        g.Chi,
		}
		for _, lb := range g.LowerBounds {
			rec.LowerBounds = append(rec.LowerBounds, names(d, lb))
		}
		buf, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		lines = append(lines, string(buf))
		return nil
	}
	if _, err := farmer.RunFARMER(context.Background(), d, consequent, opt); err != nil {
		t.Fatal(err)
	}
	return lines
}

func names(d *farmer.Dataset, items []farmer.Item) []string {
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = d.ItemName(it)
	}
	return out
}

func equalLines(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d lines, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: line %d\n got %s\nwant %s", what, i, got[i], want[i])
		}
	}
}

func TestSubmitStatusAndStreamMatchesLibrary(t *testing.T) {
	ts, _ := service(t, 2, 8)
	put(t, ts.URL+"/v1/datasets/paper?format=transactions", paperExample)

	// FARMER, sequential + streaming, with lower bounds.
	st := submit(t, ts.URL, serve.JobSpec{
		Miner: "farmer", Dataset: "paper", Class: "C",
		MinSup: 2, MinConf: 0.7, LowerBounds: true,
	})
	if st.State != serve.StateQueued && st.State != serve.StateRunning {
		t.Fatalf("fresh job state %q", st.State)
	}
	final := waitState(t, ts.URL, st.ID, func(s serve.JobStatus) bool { return s.State == serve.StateDone })
	if final.Stats == nil || final.Stats.NodesVisited == 0 {
		t.Fatalf("done job must carry stats, got %+v", final.Stats)
	}

	d := loadExample(t)
	want := expectedFarmerLines(t, d, d.ClassIndex("C"),
		farmer.MineOptions{MinSup: 2, MinConf: 0.7, ComputeLowerBounds: true})
	got := streamLines(t, ts.URL, st.ID)
	equalLines(t, "farmer stream", got, want)
	if final.Emitted != len(want) {
		t.Fatalf("status reports %d emitted, stream has %d", final.Emitted, len(want))
	}

	// CHARM on the same dataset.
	ch := submit(t, ts.URL, serve.JobSpec{Miner: "charm", Dataset: "paper", MinSup: 2})
	waitState(t, ts.URL, ch.ID, func(s serve.JobStatus) bool { return s.State == serve.StateDone })
	var wantCh []string
	opt := farmer.CharmOptions{MinSup: 2}
	opt.OnClosed = func(c farmer.ClosedSet) error {
		buf, err := json.Marshal(serve.ClosedRecord{Items: names(d, c.Items), Support: c.Support})
		wantCh = append(wantCh, string(buf))
		return err
	}
	if _, err := farmer.RunCHARM(context.Background(), d, opt); err != nil {
		t.Fatal(err)
	}
	equalLines(t, "charm stream", streamLines(t, ts.URL, ch.ID), wantCh)
}

func TestParallelAndTopKJobs(t *testing.T) {
	ts, _ := service(t, 2, 8)
	put(t, ts.URL+"/v1/datasets/paper", paperExample)
	d := loadExample(t)

	// Parallel FARMER emits the same groups as the sequential run, in the
	// scheduler's sorted order; compare as sets of lines.
	par := submit(t, ts.URL, serve.JobSpec{Miner: "farmer", Dataset: "paper", MinSup: 2, Workers: -1})
	waitState(t, ts.URL, par.ID, func(s serve.JobStatus) bool { return s.State == serve.StateDone })
	want := expectedFarmerLines(t, d, 0, farmer.MineOptions{MinSup: 2})
	got := streamLines(t, ts.URL, par.ID)
	seen := make(map[string]int)
	for _, l := range want {
		seen[l]++
	}
	for _, l := range got {
		seen[l]--
	}
	for l, n := range seen {
		if n != 0 {
			t.Fatalf("parallel stream differs from library on %s (count %+d)", l, n)
		}
	}

	// TopK carries scores.
	tk := submit(t, ts.URL, serve.JobSpec{Miner: "topk", Dataset: "paper", K: 3, Measure: "chi2", MinSup: 1})
	waitState(t, ts.URL, tk.ID, func(s serve.JobStatus) bool { return s.State == serve.StateDone })
	lines := streamLines(t, ts.URL, tk.ID)
	res, err := farmer.RunTopK(context.Background(), d, 0, farmer.TopKOptions{K: 3, Measure: farmer.MeasureChi2, MinSup: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(res.Groups) {
		t.Fatalf("topk stream has %d lines, library returned %d groups", len(lines), len(res.Groups))
	}
	var first serve.GroupRecord
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.Score == nil || *first.Score != res.Groups[0].Score {
		t.Fatalf("topk first score = %v, want %v", first.Score, res.Groups[0].Score)
	}
}

func TestAllMinersRunToCompletion(t *testing.T) {
	ts, _ := service(t, 2, 16)
	put(t, ts.URL+"/v1/datasets/paper", paperExample)
	for _, miner := range []string{"farmer", "topk", "charm", "closet", "columne", "carpenter", "cobbler"} {
		st := submit(t, ts.URL, serve.JobSpec{Miner: miner, Dataset: "paper", MinSup: 2, K: 2})
		final := waitState(t, ts.URL, st.ID, func(s serve.JobStatus) bool { return s.State.Terminal() })
		if final.State != serve.StateDone {
			t.Errorf("%s: state %q (error %q)", miner, final.State, final.Error)
		}
		if final.Emitted == 0 {
			t.Errorf("%s: no results emitted", miner)
		}
	}
}

func TestMatrixUploadAndMine(t *testing.T) {
	ts, _ := service(t, 1, 4)
	matrix := "label,g1,g2,g3\nA,0.1,5.0,2.2\nA,0.2,4.8,2.4\nB,0.9,1.0,0.3\nB,0.8,1.2,0.2\n"
	put(t, ts.URL+"/v1/datasets/expr?format=matrix&buckets=2", matrix)
	st := submit(t, ts.URL, serve.JobSpec{Miner: "farmer", Dataset: "expr", Class: "A", MinSup: 1})
	final := waitState(t, ts.URL, st.ID, func(s serve.JobStatus) bool { return s.State.Terminal() })
	if final.State != serve.StateDone || final.Emitted == 0 {
		t.Fatalf("matrix mine: state %q, emitted %d, error %q", final.State, final.Emitted, final.Error)
	}
}

func TestCancelMidJobKeepsPartialStats(t *testing.T) {
	ts, _ := service(t, 1, 4)
	put(t, ts.URL+"/v1/datasets/slow", slowExample())

	st := submit(t, ts.URL, serve.JobSpec{Miner: "farmer", Dataset: "slow", MinSup: 1})
	// Wait until the job is demonstrably mid-run: running and streaming.
	waitState(t, ts.URL, st.ID, func(s serve.JobStatus) bool {
		return s.State == serve.StateRunning && s.Emitted > 0
	})

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	cancelledAt := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}

	final := waitState(t, ts.URL, st.ID, func(s serve.JobStatus) bool { return s.State.Terminal() })
	if wait := time.Since(cancelledAt); wait > 5*time.Second {
		t.Fatalf("job took %v to stop after cancellation", wait)
	}
	if final.State != serve.StateCancelled {
		t.Fatalf("state %q after DELETE, want cancelled", final.State)
	}
	if final.Stats == nil || final.Stats.NodesVisited == 0 {
		t.Fatalf("cancelled job must keep partial stats, got %+v", final.Stats)
	}
	if final.Emitted == 0 {
		t.Fatal("cancelled job lost its partial results")
	}
	// The stream of a cancelled job terminates with the partial results.
	if lines := streamLines(t, ts.URL, st.ID); len(lines) != final.Emitted {
		t.Fatalf("stream has %d lines, status says %d", len(lines), final.Emitted)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	ts, _ := service(t, 1, 4)
	put(t, ts.URL+"/v1/datasets/slow", slowExample())
	put(t, ts.URL+"/v1/datasets/paper", paperExample)

	// Occupy the single worker, then queue a second job and cancel it
	// before it ever runs.
	running := submit(t, ts.URL, serve.JobSpec{Miner: "farmer", Dataset: "slow", MinSup: 1})
	waitState(t, ts.URL, running.ID, func(s serve.JobStatus) bool { return s.State == serve.StateRunning })
	queued := submit(t, ts.URL, serve.JobSpec{Miner: "farmer", Dataset: "paper", MinSup: 2})

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	st := status(t, ts.URL, queued.ID)
	if st.State != serve.StateCancelled {
		t.Fatalf("queued job state %q after DELETE, want cancelled immediately", st.State)
	}
	if st.Emitted != 0 {
		t.Fatalf("never-run job has %d results", st.Emitted)
	}
	// Unblock the worker.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+running.ID, nil)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, ts.URL, running.ID, func(s serve.JobStatus) bool { return s.State.Terminal() })
}

func TestGracefulShutdownDrainsInFlightJobs(t *testing.T) {
	reg := serve.NewRegistry()
	mgr := serve.NewManager(reg, 1, 4, serve.DefaultCacheBytes)
	ts := httptest.NewServer(serve.NewServer(mgr))
	defer ts.Close()
	put(t, ts.URL+"/v1/datasets/paper", paperExample)

	// A healthy job is in flight when the drain starts: it must complete,
	// not be cancelled.
	st := submit(t, ts.URL, serve.JobSpec{Miner: "farmer", Dataset: "paper", MinSup: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := mgr.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	final := status(t, ts.URL, st.ID)
	if final.State != serve.StateDone {
		t.Fatalf("in-flight job state %q after graceful drain, want done", final.State)
	}

	// New submissions are refused while/after draining.
	if _, err := mgr.Submit(serve.JobSpec{Miner: "farmer", Dataset: "paper", MinSup: 2}); err != serve.ErrDraining {
		t.Fatalf("submit after drain: %v, want ErrDraining", err)
	}
}

func TestShutdownDeadlineCancelsStragglers(t *testing.T) {
	reg := serve.NewRegistry()
	mgr := serve.NewManager(reg, 1, 4, serve.DefaultCacheBytes)
	ts := httptest.NewServer(serve.NewServer(mgr))
	defer ts.Close()
	put(t, ts.URL+"/v1/datasets/slow", slowExample())

	st := submit(t, ts.URL, serve.JobSpec{Miner: "farmer", Dataset: "slow", MinSup: 1})
	waitState(t, ts.URL, st.ID, func(s serve.JobStatus) bool { return s.State == serve.StateRunning })

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := mgr.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("shutdown: %v, want DeadlineExceeded", err)
	}
	final := status(t, ts.URL, st.ID)
	if final.State != serve.StateCancelled {
		t.Fatalf("straggler state %q, want cancelled", final.State)
	}
}

func TestQueueBackpressure(t *testing.T) {
	ts, _ := service(t, 1, 1)
	put(t, ts.URL+"/v1/datasets/slow", slowExample())
	put(t, ts.URL+"/v1/datasets/paper", paperExample)

	running := submit(t, ts.URL, serve.JobSpec{Miner: "farmer", Dataset: "slow", MinSup: 1})
	waitState(t, ts.URL, running.ID, func(s serve.JobStatus) bool { return s.State == serve.StateRunning })
	submit(t, ts.URL, serve.JobSpec{Miner: "farmer", Dataset: "paper", MinSup: 2}) // fills the queue

	// A different minsup so the probe cannot coalesce with the queued job.
	buf, _ := json.Marshal(serve.JobSpec{Miner: "farmer", Dataset: "paper", MinSup: 3})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(buf)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit to full queue: status %d, want 503", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+running.ID, nil)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

func TestRequestValidation(t *testing.T) {
	ts, _ := service(t, 1, 4)
	put(t, ts.URL+"/v1/datasets/paper", paperExample)

	post := func(spec serve.JobSpec) int {
		buf, _ := json.Marshal(spec)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(buf)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(serve.JobSpec{Miner: "nope", Dataset: "paper"}); code != http.StatusBadRequest {
		t.Errorf("unknown miner: status %d", code)
	}
	if code := post(serve.JobSpec{Miner: "farmer", Dataset: "nope"}); code != http.StatusNotFound {
		t.Errorf("unknown dataset: status %d", code)
	}
	if code := post(serve.JobSpec{Miner: "farmer", Dataset: "paper", Class: "nope"}); code != http.StatusBadRequest {
		t.Errorf("unknown class: status %d", code)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/datasets/bad?format=nope", strings.NewReader("x"))
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad format: status %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d", resp.StatusCode)
	}
}

func TestJobTimeoutDeadline(t *testing.T) {
	ts, _ := service(t, 1, 4)
	put(t, ts.URL+"/v1/datasets/slow", slowExample())
	st := submit(t, ts.URL, serve.JobSpec{Miner: "farmer", Dataset: "slow", MinSup: 1, TimeoutMS: 50})
	final := waitState(t, ts.URL, st.ID, func(s serve.JobStatus) bool { return s.State.Terminal() })
	if final.State != serve.StateCancelled {
		t.Fatalf("timed-out job state %q, want cancelled", final.State)
	}
	if final.Error == "" {
		t.Fatal("timed-out job should carry the deadline error")
	}
}

// The manager keeps at most MaxFinishedJobs terminal jobs: the oldest
// ones are forgotten and answer 404 job_not_found, while a running job
// outlives any number of newer finished ones.
func TestFinishedJobRetentionIsBounded(t *testing.T) {
	ts, mgr := service(t, 2, 4)
	put(t, ts.URL+"/v1/datasets/slow", slowExample())
	put(t, ts.URL+"/v1/datasets/paper", paperExample)

	running := submit(t, ts.URL, serve.JobSpec{Miner: "farmer", Dataset: "slow", MinSup: 1})
	waitState(t, ts.URL, running.ID, func(s serve.JobStatus) bool { return s.State == serve.StateRunning })

	spec := serve.JobSpec{Miner: "farmer", Dataset: "paper", MinSup: 2}
	first := submit(t, ts.URL, spec)
	waitState(t, ts.URL, first.ID, func(s serve.JobStatus) bool { return s.State == serve.StateDone })
	const extra = 5
	var last serve.JobStatus
	for i := 0; i < serve.MaxFinishedJobs+extra; i++ {
		last = submit(t, ts.URL, spec) // cached replays: born terminal
	}

	if n := len(mgr.Jobs()); n != serve.MaxFinishedJobs+1 {
		t.Fatalf("manager retains %d jobs, want %d terminal + 1 running", n, serve.MaxFinishedJobs)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + first.ID)
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Code string `json:"code"`
	}
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusNotFound || body.Code != "job_not_found" {
		t.Fatalf("evicted job: status %d code %q (%v), want 404 job_not_found", resp.StatusCode, body.Code, err)
	}
	if st := status(t, ts.URL, last.ID); st.State != serve.StateDone {
		t.Fatalf("newest job state %q, want done", st.State)
	}
	if st := status(t, ts.URL, running.ID); st.State != serve.StateRunning {
		t.Fatalf("running job state %q after the flood, want running", st.State)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+running.ID, nil)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, ts.URL, running.ID, func(s serve.JobStatus) bool { return s.State.Terminal() })
}

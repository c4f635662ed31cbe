// Command benchjson measures the hot mining entry points — Mine,
// MineParallel at 1 and 2 workers, and CHARM — over the bench datasets,
// plus prepared sequential FARMER and exact chi-square top-20 on three
// paper-shape points (MinePaper, TopKPaper),
// with testing.Benchmark and writes the results as a JSON array (ns/op,
// allocs/op, B/op, and an env block — nproc, GOMAXPROCS, Go version — on
// every row), along with the two ways a service can obtain a prepared snapshot: Prepare
// (compile from the in-memory dataset) versus SnapshotLoad (read + decode
// the durable encoding, the farmerd -store restart path). CI runs it via
// `make bench-json` and archives BENCH_core.json so allocation regressions
// in the shared engine show up as a diff, not a vibe.
//
// -serve instead measures the farmerd request path end to end over
// httptest (submit + stream NDJSON): a cold service that mines every
// request versus a warm one replaying its result cache, plus a budgeted
// anytime top-k query (max_millis) that mines up to its deadline on every
// request. CI archives the output as BENCH_serve.json.
//
// -quality runs the anytime-tier quality harness instead of timing
// benchmarks: every (strategy, budget fraction) cell over the bench
// datasets scored against the exhausted exact top-k miner, under node
// budgets (deterministic) and wall-clock budgets (the serving-facing
// number). The run fails unless best-first at the 10% budget keeps at
// least 0.9 mean recall in the dimensions selected by -quality-gate
// (both by default; CI gates only the machine-independent node dimension
// and treats wall clock as reporting). CI runs this via
// `make bench-quality` and archives BENCH_quality.json.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	farmer "repro"
	"repro/internal/bitset"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/synth"
)

// Row is one benchmark measurement in the output file.
type Row struct {
	Name        string  `json:"name"`
	Dataset     string  `json:"dataset"`
	MinSup      int     `json:"minsup"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// Workers is the explicit worker count of a parallel-scheduler row;
	// zero means the row measures a sequential entry point.
	Workers int `json:"workers,omitempty"`
	// Env is the machine the row was measured on.
	Env *Env `json:"env,omitempty"`
}

// Env is the environment block every measured row carries, so a timing
// can be read against the machine that produced it.
type Env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// currentEnv describes the running process's machine.
func currentEnv() *Env {
	return &Env{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
}

// writeRestartFixtures writes d to temp files in both on-disk forms a
// restarting service can resume from: the transactions text and the
// durable snapshot encoding. The caller removes both.
func writeRestartFixtures(d *farmer.Dataset) (txtFile, snapFile string, err error) {
	writeTemp := func(pattern string, write func(io.Writer) error) (string, error) {
		f, err := os.CreateTemp("", pattern)
		if err != nil {
			return "", err
		}
		if err := write(f); err != nil {
			f.Close()
			os.Remove(f.Name())
			return "", err
		}
		if err := f.Close(); err != nil {
			os.Remove(f.Name())
			return "", err
		}
		return f.Name(), nil
	}
	txtFile, err = writeTemp("benchjson-*.txt", func(w io.Writer) error {
		return farmer.WriteTransactions(w, d)
	})
	if err != nil {
		return "", "", err
	}
	snap, err := farmer.Prepare(d)
	if err != nil {
		os.Remove(txtFile)
		return "", "", err
	}
	snapFile, err = writeTemp("benchjson-*.snap", func(w io.Writer) error {
		return farmer.WriteSnapshot(w, snap)
	})
	if err != nil {
		os.Remove(txtFile)
		return "", "", err
	}
	return txtFile, snapFile, nil
}

// midMinsup mirrors bench_test.go's representative Figure-10 sweep point.
func midMinsup(d *farmer.Dataset) int {
	m := d.ClassCount(0) / 3
	if m < 2 {
		m = 2
	}
	return m
}

func run(datasets []string) ([]Row, error) {
	var rows []Row
	for _, name := range datasets {
		spec, ok := synth.BenchSpec(name)
		if !ok {
			return nil, fmt.Errorf("no bench spec %q", name)
		}
		d, err := spec.GenerateDiscrete(10)
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", name, err)
		}
		minsup := midMinsup(d)

		// The two restart paths, both starting from a file on disk and
		// ending with a ready snapshot: Prepare re-reads the transactions
		// text and compiles (farmerd without -store), SnapshotLoad reads
		// and decodes the durable encoding (farmerd with -store).
		txtFile, snapFile, err := writeRestartFixtures(d)
		if err != nil {
			return nil, fmt.Errorf("write restart fixtures %s: %w", name, err)
		}
		defer os.Remove(txtFile)
		defer os.Remove(snapFile)

		benches := []struct {
			name    string
			workers int
			fn      func() error
		}{
			{"Prepare", 0, func() error {
				buf, err := os.ReadFile(txtFile)
				if err != nil {
					return err
				}
				d, err := farmer.ReadTransactions(bytes.NewReader(buf))
				if err != nil {
					return err
				}
				_, err = farmer.Prepare(d)
				return err
			}},
			{"SnapshotLoad", 0, func() error {
				// Exactly what store.Load does on an LRU miss.
				buf, err := os.ReadFile(snapFile)
				if err != nil {
					return err
				}
				_, err = store.Decode(buf)
				return err
			}},
			{"Mine", 0, func() error {
				_, err := farmer.RunFARMER(context.Background(), d, 0, farmer.MineOptions{MinSup: minsup})
				return err
			}},
			// Explicit worker counts, independent of the recording machine:
			// the bench datasets are small enough that Workers:-1 would take
			// the sequential fallback, and these rows exist to measure the
			// parallel scheduler — W1 against Mine, W2 for the scaling.
			{"MineParallelW1", 1, mineParallel(d, minsup, 1)},
			{"MineParallelW2", 2, mineParallel(d, minsup, 2)},
			{"CHARM", 0, func() error {
				_, err := farmer.RunCHARM(context.Background(), d, farmer.CharmOptions{MinSup: minsup})
				return err
			}},
		}
		for _, bench := range benches {
			row, err := measure(bench.name, name, minsup, bench.workers, bench.fn)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	paper, err := runPaper()
	if err != nil {
		return nil, err
	}
	rows = append(rows, paper...)
	return append(rows, runBitset()...), nil
}

// measure benchmarks fn with testing.Benchmark and returns its row.
func measure(name, dataset string, minsup, workers int, fn func() error) (Row, error) {
	var failure error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := fn(); err != nil {
				failure = err
				b.FailNow()
			}
		}
	})
	if failure != nil {
		return Row{}, fmt.Errorf("%s/%s: %w", name, dataset, failure)
	}
	row := Row{
		Name:        name,
		Dataset:     dataset,
		MinSup:      minsup,
		Iterations:  res.N,
		NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
		Workers:     workers,
	}
	fmt.Fprintf(os.Stderr, "%-14s %-4s minsup=%-3d %12.0f ns/op %8d allocs/op %10d B/op\n",
		name, dataset, minsup, row.NsPerOp, row.AllocsPerOp, row.BytesPerOp)
	return row, nil
}

// paperPoints are the paper-tier rows: sequential FARMER at minconf 0.9
// and minchi 10 (MinePaper), and exact chi-square top-20 (TopKPaper), on
// the full-shape synth.PaperSpecs (62–136 rows, unpermuted), at minsups
// that finish in tens of milliseconds.
var paperPoints = []struct {
	name   string
	minsup int
}{{"CT", 39}, {"ALL", 47}, {"PC", 52}}

// paperTopK is the K of the TopKPaper rows.
const paperTopK = 20

// runPaper measures the MinePaper and TopKPaper rows. Each run reuses a
// prepared snapshot whose consequent view is already built, so a row
// times the search alone — the row dimension where FARMER's cost lives.
func runPaper() ([]Row, error) {
	var rows []Row
	for _, pt := range paperPoints {
		spec, ok := synth.PaperSpec(pt.name)
		if !ok {
			return nil, fmt.Errorf("no paper spec %q", pt.name)
		}
		d, err := spec.GenerateDiscrete(10)
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", pt.name, err)
		}
		snap, err := farmer.Prepare(d)
		if err != nil {
			return nil, err
		}
		opt := farmer.MineOptions{MinSup: pt.minsup, MinConf: 0.9, MinChi: 10, Prepared: snap}
		mine := func() error {
			_, err := farmer.RunFARMER(context.Background(), d, 0, opt)
			return err
		}
		if err := mine(); err != nil { // builds the consequent view
			return nil, fmt.Errorf("MinePaper/%s: %w", pt.name, err)
		}
		row, err := measure("MinePaper", pt.name, pt.minsup, 0, mine)
		if err != nil {
			return nil, err
		}
		topk := func() error {
			_, err := farmer.RunTopK(context.Background(), d, 0, farmer.TopKOptions{
				K: paperTopK, Measure: farmer.MeasureChi2, MinSup: pt.minsup, Prepared: snap,
			})
			return err
		}
		trow, err := measure("TopKPaper", pt.name, pt.minsup, 0, topk)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row, trow)
	}
	return rows, nil
}

// mineParallel returns a benchmark body running FARMER on the parallel
// scheduler at an explicit worker count.
func mineParallel(d *farmer.Dataset, minsup, workers int) func() error {
	return func() error {
		_, err := farmer.RunFARMER(context.Background(), d, 0, farmer.MineOptions{MinSup: minsup, Workers: workers})
		return err
	}
}

// bitsetSink keeps the compiler from eliminating the pure bitset kernels
// under benchmark.
var bitsetSink int

// runBitset measures the widened bitset kernels in isolation — the
// word-level AND/ANDNOT/popcount loops under every tidset intersection the
// miners perform — so a regression in the 4-words-per-iteration code paths
// gates CI like any other core benchmark.
func runBitset() []Row {
	const nbits = 8192
	rng := rand.New(rand.NewSource(1))
	x, y, dst := bitset.New(nbits), bitset.New(nbits), bitset.New(nbits)
	for i := 0; i < nbits/2; i++ {
		x.Set(rng.Intn(nbits))
		y.Set(rng.Intn(nbits))
	}
	benches := []struct {
		name string
		fn   func()
	}{
		{"BitsetAnd", func() { bitset.AndTo(dst, x, y) }},
		{"BitsetAndNot", func() { bitset.AndNotTo(dst, x, y) }},
		{"BitsetPopcount", func() { bitsetSink = x.Count() }},
		{"BitsetAndCount", func() { bitsetSink = x.AndCount(y) }},
	}
	var rows []Row
	for _, bench := range benches {
		fn := bench.fn
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fn()
			}
		})
		rows = append(rows, Row{
			Name:        bench.name,
			Dataset:     "8192b",
			Iterations:  res.N,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		})
		fmt.Fprintf(os.Stderr, "%-14s %-5s %22.0f ns/op %8d allocs/op %10d B/op\n",
			bench.name, "8192b",
			rows[len(rows)-1].NsPerOp, rows[len(rows)-1].AllocsPerOp, rows[len(rows)-1].BytesPerOp)
	}
	return rows
}

// submitAndStream pushes one job through the full HTTP request path —
// POST the spec, then read the NDJSON result stream to EOF — and returns
// the number of result lines.
func submitAndStream(baseURL string, spec serve.JobSpec) (int, error) {
	buf, err := json.Marshal(spec)
	if err != nil {
		return 0, err
	}
	resp, err := http.Post(baseURL+"/v1/jobs", "application/json", strings.NewReader(string(buf)))
	if err != nil {
		return 0, err
	}
	var st serve.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return 0, fmt.Errorf("submit: status %d", resp.StatusCode)
	}
	rr, err := http.Get(baseURL + "/v1/jobs/" + st.ID + "/results")
	if err != nil {
		return 0, err
	}
	defer rr.Body.Close()
	lines := 0
	sc := bufio.NewScanner(rr.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		lines++
	}
	return lines, sc.Err()
}

// queryClient issues repeated POST /v1/query requests with minimal
// per-request allocation, so the benchmark measures the service, not the
// harness: the spec is marshaled once, the body reader and read buffer are
// reused across calls, and the response is consumed with a fixed buffer
// instead of a per-call bufio.Scanner.
type queryClient struct {
	client *http.Client
	url    *url.URL
	header http.Header
	body   []byte
	rd     *bytes.Reader
	buf    []byte
}

func newQueryClient(baseURL string, spec serve.JobSpec) (*queryClient, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	u, err := url.Parse(baseURL + "/v1/query")
	if err != nil {
		return nil, err
	}
	return &queryClient{
		client: http.DefaultClient,
		url:    u,
		header: http.Header{"Content-Type": []string{"application/json"}},
		body:   body,
		rd:     bytes.NewReader(nil),
		buf:    make([]byte, 64<<10),
	}, nil
}

// do runs one query round trip and returns the number of NDJSON result
// lines.
func (q *queryClient) do() (int, error) {
	q.rd.Reset(q.body)
	req := &http.Request{
		Method:        http.MethodPost,
		URL:           q.url,
		Header:        q.header,
		Body:          io.NopCloser(q.rd),
		ContentLength: int64(len(q.body)),
		// GetBody lets the transport safely replay the request when a
		// kept-alive connection turns out dead.
		GetBody: func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(q.body)), nil
		},
	}
	resp, err := q.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	lines := 0
	for {
		n, err := resp.Body.Read(q.buf)
		lines += bytes.Count(q.buf[:n], []byte{'\n'})
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("query: status %d", resp.StatusCode)
	}
	return lines, nil
}

// runServe measures cold-versus-warm repeated-request throughput over the
// one-round-trip query endpoint: ServeCold runs against a service with
// caching disabled (every request mines), ServeWarm against one whose
// cache was primed with the same request (every request replays the
// pre-encoded body zero-copy). ServeBudget drives the anytime tier: a
// deadline-bounded top-k query mined on every request — ns/op sits near
// the max_millis budget plus request overhead where the deadline binds,
// and near the exhaust time where the search finishes first. It runs
// cache-off like ServeCold: partial answers never enter the cache anyway
// (the serve suite asserts that), but a small dataset can complete inside
// the budget, and a cached clean run would turn the row into a replay
// measurement. All three go through real HTTP.
func runServe(datasets []string) ([]Row, error) {
	var rows []Row
	for _, name := range datasets {
		spec, ok := synth.BenchSpec(name)
		if !ok {
			return nil, fmt.Errorf("no bench spec %q", name)
		}
		d, err := spec.GenerateDiscrete(10)
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", name, err)
		}
		minsup := midMinsup(d)
		exactJob := serve.JobSpec{Miner: "farmer", Dataset: name, MinSup: minsup}
		// A low support floor keeps the top-k search space large enough
		// that the 25ms deadline binds on every bench dataset.
		budgetJob := serve.JobSpec{Miner: "topk", Dataset: name, MinSup: 2, K: 20, Measure: "chi2", MaxMillis: 25}

		for _, mode := range []struct {
			rowName    string
			cacheBytes int64
			job        serve.JobSpec
		}{
			{"ServeCold", 0, exactJob},
			{"ServeWarm", serve.DefaultCacheBytes, exactJob},
			{"ServeBudget", 0, budgetJob},
		} {
			reg := serve.NewRegistry()
			if err := reg.Put(name, d); err != nil {
				return nil, err
			}
			mgr := serve.NewManager(reg, 0, 64, mode.cacheBytes)
			ts := httptest.NewServer(serve.NewServer(mgr))
			shutdown := func() {
				ts.Close()
				mgr.Shutdown(context.Background())
			}
			qc, err := newQueryClient(ts.URL, mode.job)
			if err != nil {
				shutdown()
				return nil, fmt.Errorf("%s/%s: %w", mode.rowName, name, err)
			}
			if _, err := qc.do(); err != nil { // warm the cache / JIT the path
				shutdown()
				return nil, fmt.Errorf("%s/%s: %w", mode.rowName, name, err)
			}
			var failure error
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := qc.do(); err != nil {
						failure = err
						b.FailNow()
					}
				}
			})
			shutdown()
			if failure != nil {
				return nil, fmt.Errorf("%s/%s: %w", mode.rowName, name, failure)
			}
			rows = append(rows, Row{
				Name:        mode.rowName,
				Dataset:     name,
				MinSup:      mode.job.MinSup,
				Iterations:  res.N,
				NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
				AllocsPerOp: res.AllocsPerOp(),
				BytesPerOp:  res.AllocedBytesPerOp(),
			})
			fmt.Fprintf(os.Stderr, "%-12s %-4s minsup=%-3d %12.0f ns/op %8d allocs/op %10d B/op\n",
				mode.rowName, name, mode.job.MinSup,
				rows[len(rows)-1].NsPerOp, rows[len(rows)-1].AllocsPerOp, rows[len(rows)-1].BytesPerOp)
		}
	}
	return rows, nil
}

// qualityFracs are the budget fractions the quality sweep grades;
// qualityGateFrac is the serving target the run gates: at a tenth of the
// exact miner's budget, best-first must keep qualityGateRecall of the
// true top-k on average across the bench datasets.
var qualityFracs = []float64{0.05, 0.10, 0.25, 1.0}

const (
	qualityGateFrac   = 0.10
	qualityGateRecall = 0.9
)

// qualityCases pins each bench dataset's query shape to a point where the
// 10% budget is non-degenerate: the exact search is tens of thousands of
// nodes (so a 10% slice holds a real search, not the root layer) and the
// consequent/k pick a ranking the budgeted search can meaningfully chase.
// LC mines class 1 — its class 0 has too few rows to support any search —
// and PC keeps 30 groups, because its exact top-20 ends inside a tied
// plateau whose members sit structurally late in bound order.
var qualityCases = map[string]struct {
	consequent, k, minsup int
}{
	"BC": {0, 20, 2},
	"LC": {1, 10, 3},
	"CT": {0, 20, 4},
	"PC": {0, 30, 2},
}

// runQuality grades the anytime top-k tier over the bench datasets with
// the difftest quality harness: every (strategy, budget fraction) cell
// scored against the exhausted exact miner, once under node budgets
// (deterministic, machine-independent) and once under wall-clock budgets
// (what a max_millis caller experiences). Both dimensions mine from a
// prepared snapshot, as the serving tier does. gate selects which budget
// dimensions fail the run when best-first at the gate fraction falls
// below the recall floor: CI smoke-gates "nodes" (bit-stable on any
// machine), while the committed report is generated under "both".
func runQuality(datasets []string, gate string) ([]difftest.QualityRow, error) {
	var rows []difftest.QualityRow
	for _, name := range datasets {
		spec, ok := synth.BenchSpec(name)
		if !ok {
			return nil, fmt.Errorf("no bench spec %q", name)
		}
		d, err := spec.GenerateDiscrete(10)
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", name, err)
		}
		snap, err := farmer.Prepare(d)
		if err != nil {
			return nil, fmt.Errorf("prepare %s: %w", name, err)
		}
		c, ok := qualityCases[name]
		if !ok {
			c.consequent, c.k, c.minsup = 0, 20, midMinsup(d)
		}
		q := difftest.QualitySpec{
			Name: name, D: d, Consequent: c.consequent, K: c.k, MinSup: c.minsup,
			Measure:    core.MeasureChi2,
			Strategies: []core.Strategy{core.StrategyBestFirst, core.StrategyLeap, core.StrategySample},
			Fracs:      qualityFracs,
			Prepared:   snap,
			Reps:       3,
			SampleSeed: 7,
		}
		for _, wallClock := range []bool{false, true} {
			q.WallClock = wallClock
			got, err := difftest.RunQuality(q)
			if err != nil {
				return nil, fmt.Errorf("quality %s: %w", name, err)
			}
			for _, r := range got {
				fmt.Fprintf(os.Stderr, "%-10s %-4s %-6s frac=%.2f recall=%.3f regret=%.3f nodes=%d/%d\n",
					r.Strategy, r.Dataset, r.BudgetKind, r.BudgetFrac, r.Recall, r.Regret, r.NodesExpanded, r.ExactNodes)
			}
			rows = append(rows, got...)
		}
	}
	for _, kind := range []string{"nodes", "millis"} {
		mean := difftest.MeanRecall(rows, func(r difftest.QualityRow) bool {
			return r.Strategy == "best_first" && r.BudgetKind == kind && r.BudgetFrac == qualityGateFrac
		})
		fmt.Fprintf(os.Stderr, "best_first mean recall at the %.0f%% %s budget: %.3f\n",
			100*qualityGateFrac, kind, mean)
		if gate != "both" && gate != kind {
			continue
		}
		if mean < qualityGateRecall {
			return nil, fmt.Errorf("best_first mean recall %.3f at the %.0f%% %s budget, want >= %.2f",
				mean, 100*qualityGateFrac, kind, qualityGateRecall)
		}
	}
	return rows, nil
}

// runCluster measures distributed mining wall clock through real HTTP:
// ClusterSingle is a FARMER job on a standalone service (the single-node
// parallel runner), Cluster2W the same job through a coordinator with two
// local cluster workers — same machine, so the delta is pure protocol,
// serialization and merge overhead, the floor a real multi-host
// deployment pays before network time. Caching is disabled so every
// request mines.
func runCluster(datasets []string) ([]Row, error) {
	var rows []Row
	for _, name := range datasets {
		spec, ok := synth.BenchSpec(name)
		if !ok {
			return nil, fmt.Errorf("no bench spec %q", name)
		}
		d, err := spec.GenerateDiscrete(10)
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", name, err)
		}
		minsup := midMinsup(d)
		job := serve.JobSpec{Miner: "farmer", Dataset: name, MinSup: minsup, Workers: runtime.GOMAXPROCS(0)}

		for _, mode := range []struct {
			rowName string
			workers int
		}{
			{"ClusterSingle", 0},
			{"Cluster2W", 2},
		} {
			reg := serve.NewRegistry()
			if err := reg.Put(name, d); err != nil {
				return nil, err
			}
			mgr := serve.NewManager(reg, 0, 64, 0)
			srv := serve.NewServer(mgr)
			var coord *cluster.Coordinator
			var cancelWorkers context.CancelFunc = func() {}
			if mode.workers > 0 {
				coord = cluster.NewCoordinator(mgr, cluster.Options{Chunks: 2 * mode.workers})
				coord.RegisterRoutes(srv)
			}
			ts := httptest.NewServer(srv)
			if mode.workers > 0 {
				var ctx context.Context
				ctx, cancelWorkers = context.WithCancel(context.Background())
				for i := 0; i < mode.workers; i++ {
					w := cluster.NewWorker(ts.URL, cluster.WorkerOptions{
						ID:           fmt.Sprintf("bench-w%d", i),
						PollInterval: time.Millisecond,
					})
					go func() { _ = w.Run(ctx) }()
				}
				deadline := time.Now().Add(5 * time.Second)
				for coord.ActiveWorkers() < mode.workers && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
			}
			shutdown := func() {
				cancelWorkers()
				mgr.Shutdown(context.Background())
				if coord != nil {
					coord.Close()
				}
				ts.Close()
			}
			if _, err := submitAndStream(ts.URL, job); err != nil {
				shutdown()
				return nil, fmt.Errorf("%s/%s: %w", mode.rowName, name, err)
			}
			var failure error
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := submitAndStream(ts.URL, job); err != nil {
						failure = err
						b.FailNow()
					}
				}
			})
			shutdown()
			if failure != nil {
				return nil, fmt.Errorf("%s/%s: %w", mode.rowName, name, failure)
			}
			rows = append(rows, Row{
				Name:        mode.rowName,
				Dataset:     name,
				MinSup:      minsup,
				Iterations:  res.N,
				NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
				AllocsPerOp: res.AllocsPerOp(),
				BytesPerOp:  res.AllocedBytesPerOp(),
			})
			fmt.Fprintf(os.Stderr, "%-13s %-4s minsup=%-3d %12.0f ns/op %8d allocs/op %10d B/op\n",
				mode.rowName, name, minsup,
				rows[len(rows)-1].NsPerOp, rows[len(rows)-1].AllocsPerOp, rows[len(rows)-1].BytesPerOp)
		}
	}
	return rows, nil
}

// parseMetric expands the -compare metric selector into the set of
// columns that gate failure: a comma-separated combination of "ns",
// "allocs" and "bytes", with "both" kept as the legacy spelling of
// "ns,allocs".
func parseMetric(metric string) (map[string]bool, error) {
	if metric == "both" {
		return map[string]bool{"ns": true, "allocs": true}, nil
	}
	gate := map[string]bool{}
	for _, m := range strings.Split(metric, ",") {
		switch m = strings.TrimSpace(m); m {
		case "ns", "allocs", "bytes":
			gate[m] = true
		default:
			return nil, fmt.Errorf("unknown metric %q (want a comma-separated combination of ns, allocs, bytes — or both)", m)
		}
	}
	return gate, nil
}

// compare prints per-benchmark deltas between two measurement files
// (matched by name+dataset) and reports whether any regression exceeds the
// thresholds. metric selects which columns can fail the comparison (see
// parseMetric) — CI uses "allocs" and "allocs,bytes" for hard gates
// because allocation counts and sizes are deterministic while
// shared-runner timings are not. match, when non-nil, restricts gating
// (not reporting) to benchmark keys it accepts. Benchmarks present in
// only one file are reported but never fail the comparison — the guard is
// for regressions, not coverage drift.
func compare(oldPath, newPath string, frac float64, metric string, match *regexp.Regexp, w io.Writer) (bool, error) {
	gate, err := parseMetric(metric)
	if err != nil {
		return false, err
	}
	load := func(path string) (map[string]Row, []string, error) {
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		var rows []Row
		if err := json.Unmarshal(buf, &rows); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		m := make(map[string]Row, len(rows))
		var order []string
		for _, r := range rows {
			k := r.Name + "/" + r.Dataset
			if _, dup := m[k]; !dup {
				order = append(order, k)
			}
			m[k] = r
		}
		return m, order, nil
	}
	oldRows, _, err := load(oldPath)
	if err != nil {
		return false, err
	}
	newRows, order, err := load(newPath)
	if err != nil {
		return false, err
	}

	pct := func(oldV, newV float64) float64 {
		if oldV == 0 {
			return 0
		}
		return 100 * (newV - oldV) / oldV
	}
	regressed := false
	fmt.Fprintf(w, "%-22s %12s %12s %12s %12s %12s %12s\n",
		"benchmark", "ns/op old", "ns/op new", "allocs old", "allocs new", "B/op old", "B/op new")
	for _, k := range order {
		n := newRows[k]
		o, ok := oldRows[k]
		if !ok {
			fmt.Fprintf(w, "%-22s %12s %12.0f %12s %12d %12s %12d   (new benchmark)\n",
				k, "-", n.NsPerOp, "-", n.AllocsPerOp, "-", n.BytesPerOp)
			continue
		}
		dn := pct(o.NsPerOp, n.NsPerOp)
		da := pct(float64(o.AllocsPerOp), float64(n.AllocsPerOp))
		db := pct(float64(o.BytesPerOp), float64(n.BytesPerOp))
		nsBad := gate["ns"] && dn > 100*frac
		allocsBad := gate["allocs"] && da > 100*frac
		bytesBad := gate["bytes"] && db > 100*frac
		marker := ""
		if (nsBad || allocsBad || bytesBad) && (match == nil || match.MatchString(k)) {
			marker = "  REGRESSION"
			regressed = true
		}
		fmt.Fprintf(w, "%-22s %12.0f %12.0f %12d %12d %12d %12d   ns %+6.1f%%  allocs %+6.1f%%  bytes %+6.1f%%%s\n",
			k, o.NsPerOp, n.NsPerOp, o.AllocsPerOp, n.AllocsPerOp, o.BytesPerOp, n.BytesPerOp, dn, da, db, marker)
	}
	for k, o := range oldRows {
		if _, ok := newRows[k]; !ok {
			fmt.Fprintf(w, "%-22s %12.0f %12s %12d %12s %12d %12s   (missing from new)\n",
				k, o.NsPerOp, "-", o.AllocsPerOp, "-", o.BytesPerOp, "-")
		}
	}
	return regressed, nil
}

func main() {
	out := flag.String("o", "BENCH_core.json", "output file")
	datasets := flag.String("datasets", "BC,LC,CT,PC,ALL", "comma-separated bench dataset names")
	doServe := flag.Bool("serve", false, "measure the farmerd request path (cold vs warm cache, plus a budgeted anytime query) instead of the core miners")
	doQuality := flag.Bool("quality", false, "run the anytime-tier quality harness (top-k recall/regret vs budget) instead of timing benchmarks")
	qualityGate := flag.String("quality-gate", "both", "with -quality, which budget dimensions fail the run below the recall floor: both, nodes (deterministic, what CI gates) or millis")
	doCluster := flag.Bool("cluster", false, "also measure distributed mining (single-node vs 2 local cluster workers)")
	doCompare := flag.Bool("compare", false, "compare two measurement files: benchjson -compare old.json new.json")
	threshold := flag.Float64("threshold", 0.30, "with -compare, fail when a gated metric grew by more than this fraction")
	metric := flag.String("metric", "both", "with -compare, which metrics gate failure: a comma-separated combination of ns, allocs, bytes (or both = ns,allocs)")
	matchExpr := flag.String("match", "", "with -compare, regexp limiting which name/dataset rows gate failure (all rows are still reported)")
	flag.Parse()

	if *doCompare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchjson -compare [-threshold 0.30] [-metric ns,allocs,bytes] [-match re] old.json new.json")
			os.Exit(2)
		}
		if _, err := parseMetric(*metric); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: -metric:", err)
			os.Exit(2)
		}
		var match *regexp.Regexp
		if *matchExpr != "" {
			var err error
			if match, err = regexp.Compile(*matchExpr); err != nil {
				fmt.Fprintln(os.Stderr, "benchjson: -match:", err)
				os.Exit(2)
			}
		}
		regressed, err := compare(flag.Arg(0), flag.Arg(1), *threshold, *metric, match, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		if regressed {
			fmt.Fprintf(os.Stderr, "benchjson: regression beyond %.0f%% threshold\n", 100**threshold)
			os.Exit(1)
		}
		return
	}

	if *doQuality {
		switch *qualityGate {
		case "both", "nodes", "millis":
		default:
			fmt.Fprintln(os.Stderr, "benchjson: -quality-gate must be both, nodes or millis")
			os.Exit(2)
		}
		rows, err := runQuality(strings.Split(*datasets, ","), *qualityGate)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		buf, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d measurements)\n", *out, len(rows))
		return
	}

	measure := run
	if *doServe {
		measure = runServe
	}
	rows, err := measure(strings.Split(*datasets, ","))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *doCluster {
		crows, err := runCluster(strings.Split(*datasets, ","))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		rows = append(rows, crows...)
	}
	env := currentEnv()
	for i := range rows {
		rows[i].Env = env
	}
	buf, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d measurements)\n", *out, len(rows))
}

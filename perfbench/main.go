// Command perfbench is the repository benchmark: it drives farmerd's
// request path (serve.NewServer over loopback HTTP, in this process) with
// inputs generated from a seed, checks every answer against a library
// reference, and prints one JSON result line.
//
//	go run . --workload paper-batch --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, taken from a replay of the workload's
// distinct operations with a span around every call into a layer. See
// README.md for the workloads, metrics and known traps.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// A workload runs one benchmark configuration and fills in the report.
type workloadFunc func(cfg runConfig, rep *report) error

var workloads = map[string]workloadFunc{
	"paper-batch":   runPaperBatch,
	"serve-mixed":   runServeMixed,
	"ingest-churn":  runIngestChurn,
	"cluster-paper": runClusterPaper,
}

type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	workDir string // scratch space inside the checkout
}

// endToEnd lists the end-to-end metrics every workload reports, with
// their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_qps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"ok_frac", "ratio"},
	{"slo_ok_frac", "ratio"},
	{"alloc_mb_per_query", "MB"},
	{"peak_rss_mb", "MB"},
}

// report is what a workload run produces.
type report struct {
	env       environment
	attempted int
	failed    int
	failures  []string
	e2e       map[string]float64
	layer     map[string]float64
	detail    map[string]any
}

func (r *report) fail(err error) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, err.Error())
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "paper-batch, serve-mixed, ingest-churn or cluster-paper")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer replay")
	workDir := flag.String("workdir", ".bench_build", "scratch directory")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		return 2
	}
	dir, err := os.MkdirTemp(*workDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, workDir: dir}
	rep := &report{
		env:    newEnvironment(*workload, *seed, *seconds, cfg.trace),
		e2e:    map[string]float64{},
		layer:  map[string]float64{},
		detail: map[string]any{},
	}
	if err := fn(cfg, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if cfg.trace {
		rep.layer["bitset.andcount_ns"] = andCountNS()
	}

	out := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	if cfg.trace {
		for _, m := range perLayer {
			out.Metrics[m.name] = metric{Value: rep.layer[m.name], Unit: m.unit}
		}
	} else {
		for _, m := range endToEnd {
			v, ok := rep.e2e[m.name]
			if !ok {
				fmt.Fprintf(os.Stderr, "perfbench: workload did not measure %s\n", m.name)
				return 1
			}
			out.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		}
	}
	for k := range rep.layer {
		if !knownLayer(k) {
			fmt.Fprintf(os.Stderr, "perfbench: unlisted per-layer metric %s\n", k)
			return 1
		}
	}
	detail := map[string]any{"env": rep.env, "detail": rep.detail, "failures": rep.failures}
	if raw, err := json.Marshal(detail); err == nil {
		fmt.Println(string(raw))
	}
	raw, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(raw))
	if !out.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d answers failed verification: %v\n", rep.failed, rep.attempted, rep.failures)
		return 1
	}
	return 0
}

// spanFile returns where a traced run writes its spans.
func spanFile(cfg runConfig, workload string) string {
	return filepath.Join(filepath.Dir(cfg.workDir), fmt.Sprintf("spans-%s-seed%d.jsonl", workload, cfg.seed))
}

// setupRuns is how many times a run sets up its service; setup_s is the
// median, which keeps one slow start from moving it.
const setupRuns = 9

// timedSetup runs setup n times, tearing down all but the last, and
// returns the kept result and the median set-up time in seconds.
func timedSetup[T any](n int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var times []float64
	var kept T
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return kept, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < n-1 {
			teardown(v)
		} else {
			kept = v
		}
	}
	return kept, median(times), nil
}

// loop accumulates the measured window of a workload.
type loop struct {
	slo       time.Duration
	lat       []float64 // ms, one per attempted operation
	attempted int
	failed    int
	sloOK     int
	bodyBytes int64
	bodies    int

	start   time.Time
	elapsed time.Duration
	alloc   allocMeter
	rss     *rssSampler
	allocB  uint64
	peakRSS float64
}

func newLoop(slo time.Duration) *loop { return &loop{slo: slo} }

func (l *loop) begin() {
	runtime.GC()
	l.alloc = startAllocMeter()
	l.rss = startRSSSampler(10 * time.Millisecond)
	l.start = time.Now()
}

func (l *loop) end() {
	l.elapsed = time.Since(l.start)
	l.allocB = l.alloc.since()
	l.peakRSS = l.rss.Stop()
}

// record books one operation; a failed one counts against the SLO too.
func (l *loop) record(rep *report, lat time.Duration, err error) {
	l.attempted++
	rep.attempted++
	l.lat = append(l.lat, ms(lat))
	if err != nil {
		l.failed++
		rep.fail(err)
		return
	}
	if lat <= l.slo {
		l.sloOK++
	}
}

func (l *loop) body(n int) {
	l.bodyBytes += int64(n)
	l.bodies++
}

// finish fills in the end-to-end metrics.
func (l *loop) finish(rep *report, setupS float64) {
	ok := l.attempted - l.failed
	s := sortedCopy(l.lat)
	rep.e2e["setup_s"] = setupS
	rep.e2e["throughput_qps"] = float64(ok) / l.elapsed.Seconds()
	rep.e2e["latency_p50_ms"] = percentile(s, 50)
	rep.e2e["latency_p90_ms"] = percentile(s, 90)
	rep.e2e["ok_frac"] = ratio(float64(ok), float64(l.attempted))
	rep.e2e["slo_ok_frac"] = ratio(float64(l.sloOK), float64(l.attempted))
	rep.e2e["alloc_mb_per_query"] = ratio(float64(l.allocB)/(1<<20), float64(ok))
	rep.e2e["peak_rss_mb"] = l.peakRSS
	rep.layer["latency_samples"] = float64(len(s))
	rep.layer["serve.body_kb"] = ratio(float64(l.bodyBytes)/1024, float64(l.bodies))
	rep.detail["samples"] = len(s)
	rep.detail["tail_percentile_supported"] = tailPercentile(len(s))
	rep.detail["p90_supported"] = supported(len(s), 90)
	rep.detail["slo_ms"] = ms(l.slo)
	rep.detail["measured_s"] = l.elapsed.Seconds()
	rep.detail["setup_s"] = setupS
}

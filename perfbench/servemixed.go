package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"time"

	farmer "repro"
	"repro/internal/serve"
)

// benchDatasets are the bench-scale (18–20 row) shapes serve-mixed mines.
var benchDatasets = []string{"BC", "LC", "CT", "PC", "ALL"}

const (
	// mixedRate is serve-mixed's fixed Poisson arrival rate. On the 2-core
	// machine the benchmark was sized on, the two connections are in use
	// about 22% of the time at this rate and the miners about 16%. Higher
	// rates queue requests behind misses on the two connections, and the
	// queueing makes the tail swing with the host's CPU contention.
	mixedRate = 750.0
	// mixedSLO is serve-mixed's latency limit, timed from the due time.
	mixedSLO = 100 * time.Millisecond
	// Shares of the traffic: budgeted top-k on the interactive lane, and
	// requests sent with an If-None-Match validator seen earlier.
	mixedBudgetShare      = 0.05
	mixedConditionalShare = 0.20
	mixedZipfS            = 1.0
	mixedConns            = 2
)

// mixedSpecs enumerates serve-mixed's distinct specs over the bench-scale
// datasets: all seven miners, both classes for the class-aware ones, and
// several minsup / minconf / k / measure values. Each spec is cheap: the
// search takes at most a few milliseconds on the machine the benchmark was
// sized on, so the request path, not the search, is most of the work, and
// misses cost about the same whichever spec missed. FARMER and top-k take
// their minsup as a share of the consequent class's rows (support counts
// rows of that class), which keeps the majority classes off the expensive
// low-support points and the minority classes off empty answers. The
// closed-set miners count support over all rows and run at 70% and
// above: lower, single answers grow to hundreds of KB and whether one of
// them is cached decides the hit ratio.
func mixedSpecs(data map[string]*farmer.Dataset) (exact, budgeted []serve.QuerySpec) {
	for _, name := range benchDatasets {
		d := data[name]
		sup := func(f float64) int { return max(2, int(f*float64(d.NumRows())+0.5)) }
		for c, class := range d.ClassNames {
			n := d.ClassCount(c)
			classSup := func(f float64) int { return min(n, max(2, int(f*float64(n)+0.5))) }
			for _, s := range distinct(classSup(0.75), classSup(0.85), classSup(0.95)) {
				for _, conf := range []float64{0.8, 0.9} {
					exact = append(exact, serve.QuerySpec{Miner: "farmer", Dataset: name, Class: class, MinSup: s, MinConf: conf})
				}
			}
			for _, k := range []int{5, 10, 20} {
				for _, m := range []string{"chi2", "entropy", "gini"} {
					exact = append(exact, serve.QuerySpec{Miner: "topk", Dataset: name, Class: class, MinSup: classSup(0.75), K: k, Measure: m})
				}
			}
			for _, f := range []float64{0.45, 0.55} {
				exact = append(exact, serve.QuerySpec{Miner: "columne", Dataset: name, Class: class, MinSup: sup(f), MinConf: 0.8})
			}
			budgeted = append(budgeted, serve.QuerySpec{Miner: "topk", Dataset: name, Class: class, MinSup: sup(0.3), K: 5, Measure: "chi2", MaxMillis: 10})
		}
		for _, miner := range []string{"charm", "closet", "carpenter", "cobbler"} {
			fs := []float64{0.7, 0.8}
			if miner == "carpenter" || miner == "cobbler" {
				fs = []float64{0.85, 0.9}
			}
			for _, f := range fs {
				exact = append(exact, serve.QuerySpec{Miner: miner, Dataset: name, MinSup: sup(f)})
			}
		}
	}
	return exact, budgeted
}

// distinct returns xs without repeats, in first-seen order.
func distinct(xs ...int) []int {
	var out []int
	for _, x := range xs {
		if !slices.Contains(out, x) {
			out = append(out, x)
		}
	}
	return out
}

// mixedRequest is one scheduled request of the open loop.
type mixedRequest struct {
	spec        int  // index into exact, or into budgeted when budget is set
	budget      bool // budgeted top-k
	conditional bool // send the last ETag seen for the spec
}

// mixedRanking is the popularity order of the exact specs. It is fixed,
// not drawn from the run's seed, so every seed offers the same expected
// mix of cheap and expensive misses.
func mixedRanking(exact int) []int { return rand.New(rand.NewSource(1)).Perm(exact) }

// mixedPlan builds the request mix for a schedule of n arrivals. The mix
// is stratified: each exact spec gets its Zipf share of the requests
// (largest remainder) over the fixed popularity ranking, budgeted requests
// get their share spread evenly over the budgeted specs, and a fixed
// share of each spec's requests is conditional. The seed only shuffles
// the order, so every seed sends the same multiset of requests and the
// tail percentiles do not move with which expensive specs a seed happened
// to draw more often.
func mixedPlan(rng *rand.Rand, n, exact, budgeted int) []mixedRequest {
	out := make([]mixedRequest, 0, n)
	nb := int(mixedBudgetShare*float64(n) + 0.5)
	for j := 0; j < nb; j++ {
		out = append(out, mixedRequest{spec: j % budgeted, budget: true})
	}
	rank := mixedRanking(exact)
	k := 0 // exact requests placed so far; spreads the conditional share
	for r, c := range newZipf(exact, mixedZipfS).apportion(n - nb) {
		for ; c > 0; c-- {
			cond := int(float64(k+1)*mixedConditionalShare) > int(float64(k)*mixedConditionalShare)
			out = append(out, mixedRequest{spec: rank[r], conditional: cond})
			k++
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func runServeMixed(cfg runConfig, rep *report) error {
	ctx := context.Background()
	// The references come first (outside set-up): the result cache is
	// sized from the bodies they encode to.
	data := map[string]*farmer.Dataset{}
	for _, name := range benchDatasets {
		d, err := paperDataset(name, cfg.seed, true)
		if err != nil {
			return err
		}
		data[name] = d
	}
	exact, budgeted := mixedSpecs(data)
	chk := newChecker()
	if err := chk.prepare(ctx, append(append([]serve.QuerySpec(nil), exact...), budgeted...), data, true); err != nil {
		return err
	}
	var working int64
	for _, spec := range exact {
		working += int64(chk.refs[refKey(spec)].bytes)
	}
	cacheBytes := working / 2
	rep.env.LoadModel = fmt.Sprintf("open loop, Poisson arrivals at %.0f/s, %d client connections, Zipf(s=%.1f) over %d exact + %d budgeted specs, %.0f%% conditional",
		mixedRate, mixedConns, mixedZipfS, len(exact), len(budgeted), 100*mixedConditionalShare)
	rep.env.ManagerWorkers, rep.env.MiningThreads, rep.env.ClientConns = 2, 2, mixedConns
	rep.env.ResultCacheBytes, rep.env.WorkingSetBytes = cacheBytes, working
	svcCfg := svcConfig{managerWorkers: 2, cacheBytes: cacheBytes}

	allBench := map[string]bool{"BC": true, "LC": true, "CT": true, "PC": true, "ALL": true}
	// Warm-up requests every exact spec once, least popular first, so the
	// result cache starts the measured window holding the most popular
	// answers that fit, as it does in steady state.
	p, setupS, err := timedSetup(setupRuns, func() (*paperSetup, error) {
		p, err := setupPaper(cfg.seed, benchDatasets, allBench, svcCfg)
		if err != nil {
			return nil, err
		}
		rank := mixedRanking(len(exact))
		for i := len(rank) - 1; i >= 0; i-- {
			spec := exact[rank[i]]
			resp, err := p.cl.query(spec, "")
			if err == nil {
				_, err = chk.check(spec, resp.body)
			}
			if err != nil {
				p.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		return p, nil
	}, (*paperSetup).close)
	if err != nil {
		return err
	}
	defer p.close()
	cl := newClient(p.svc.url, mixedConns)
	defer cl.close()

	rng := rand.New(rand.NewSource(cfg.seed))
	schedule := poissonSchedule(rng, mixedRate, cfg.seconds)
	plan := mixedPlan(rng, len(schedule), len(exact), len(budgeted))

	encode := func(specs []serve.QuerySpec) ([][]byte, error) {
		out := make([][]byte, len(specs))
		for i, s := range specs {
			raw, err := json.Marshal(s)
			if err != nil {
				return nil, err
			}
			out[i] = raw
		}
		return out, nil
	}
	exactRaw, err := encode(exact)
	if err != nil {
		return err
	}
	budgetRaw, err := encode(budgeted)
	if err != nil {
		return err
	}
	// Response buffers are pooled so the client's own garbage stays small
	// next to the service's.
	bufs := sync.Pool{New: func() any { return new(bytes.Buffer) }}

	var (
		mu                   sync.Mutex
		etags                = map[int]string{}
		conditional, notMod  int
		bodyBytes            int64
		bodies               int
		gaps                 []float64
		errNotModifiedHeader = errors.New("304 without the validator's ETag")
	)
	do := func(i int) error {
		req := plan[i]
		spec, raw := exact[req.spec], exactRaw[req.spec]
		if req.budget {
			spec, raw = budgeted[req.spec], budgetRaw[req.spec]
		}
		inm := ""
		if req.conditional {
			mu.Lock()
			inm = etags[req.spec]
			mu.Unlock()
		}
		buf := bufs.Get().(*bytes.Buffer)
		defer bufs.Put(buf)
		resp, err := cl.post(raw, inm, buf)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		if inm != "" {
			conditional++
		}
		if resp.status == http.StatusNotModified {
			if resp.etag != inm {
				return errNotModifiedHeader
			}
			notMod++
			return nil
		}
		bodyBytes += int64(len(resp.body))
		bodies++
		gap, err := chk.check(spec, resp.body)
		if err != nil {
			return err
		}
		if req.budget {
			gaps = append(gaps, gap)
		} else if resp.etag != "" {
			etags[req.spec] = resp.etag
		}
		return nil
	}

	before, err := p.cl.scrape()
	if err != nil {
		return err
	}
	lp := newLoop(mixedSLO)
	lp.begin()
	results := runOpenLoop(schedule, mixedConns, do)
	lp.end()
	var late []float64
	var busy time.Duration
	for _, r := range results {
		lp.record(rep, r.latency, r.err)
		late = append(late, ms(r.late))
		busy += r.service
	}
	rep.detail["conn_busy_frac"] = busy.Seconds() / (mixedConns * lp.elapsed.Seconds())
	lp.bodyBytes, lp.bodies = bodyBytes, bodies
	lp.finish(rep, setupS)
	sorted := sortedCopy(lp.lat)
	rep.layer["latency_p99_ms"] = percentile(sorted, 99)
	rep.layer["generator_late_p99_ms"] = percentile(sortedCopy(late), 99)
	rep.layer["budget_gap"] = median(gaps)
	rep.layer["serve.not_modified_frac"] = ratio(float64(notMod), float64(conditional))
	rep.detail["p99_supported"] = supported(len(sorted), 99)
	rep.detail["generator_late_p50_ms"] = percentile(sortedCopy(late), 50)
	rep.detail["conditional_sent"] = conditional
	rep.detail["not_modified"] = notMod
	after, err := p.cl.scrape()
	if err != nil {
		return err
	}
	delta := countersOf(after).minus(countersOf(before))
	delta.layerMetrics(rep.layer)
	rep.detail["worker_busy_frac"] = delta.runSum / (float64(svcCfg.managerWorkers) * lp.elapsed.Seconds())
	rep.detail["cache_hits"], rep.detail["cache_misses"] = delta.hits, delta.misses
	rep.detail["jobs_run"] = delta.runCount
	if !cfg.trace {
		return nil
	}

	// The replay's HTTP sibling goes to a second service with the result
	// cache off, so its round trip always includes the search the library
	// replay times.
	cold, err := setupPaper(cfg.seed, benchDatasets, allBench, svcConfig{managerWorkers: 2})
	if err != nil {
		return err
	}
	defer cold.close()
	err = replayPasses(cfg, rep, "serve-mixed", func(rp *replayer) error {
		for _, spec := range append(append([]serve.QuerySpec(nil), exact...), budgeted...) {
			if err := rp.query(spec); err != nil {
				return err
			}
		}
		return nil
	}, func(rec *Recorder) *replayer { return newReplayer(rec, cold.svc.reg, cold.cl, chk) })
	return err
}

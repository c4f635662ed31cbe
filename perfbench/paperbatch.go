package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	farmer "repro"
	"repro/internal/serve"
)

// paperDatasets are the paper shapes the batch and cluster workloads
// mine. LC is left out: every FARMER point on it that returns groups runs
// far past a second (DNF at minsup 29–30 in 4 s).
var paperDatasets = []string{"CT", "ALL", "BC", "PC"}

func farmerSpec(ds string, minsup, workers int, lb bool) serve.QuerySpec {
	return serve.QuerySpec{Miner: "farmer", Dataset: ds, MinSup: minsup, MinConf: 0.9, MinChi: 10, Workers: workers, LowerBounds: lb}
}

func topkSpec(ds string, minsup int) serve.QuerySpec {
	return serve.QuerySpec{Miner: "topk", Dataset: ds, MinSup: minsup, K: 20, Measure: "chi2"}
}

func budgetSpec(ds string) serve.QuerySpec {
	return serve.QuerySpec{Miner: "topk", Dataset: ds, MinSup: 30, K: 20, Measure: "chi2", MaxMillis: 50}
}

// paperBatchQueries is one cycle of the paper-batch workload: FARMER at
// minconf 0.9 / minchi 10 on the paper shapes at points that finish in
// 0.02–0.6 s sequentially, two of them again at workers 2, two with lower
// bounds, exact chi-square top-20 at points the depth-first search
// finishes, and budgeted top-20 at minsup 30 where no exact search ends.
//
// The cycle is 15 queries long: an odd length puts the median, and a
// length of 5 mod 10 puts p90, in the middle of one query's latencies
// rather than on the edge between two. Seven queries run faster and seven
// slower than FARMER CT 39, so the median falls among the CT 39 queries,
// and p90 falls on BC 46: of the points probed, these vary least from run
// to run. FARMER ALL 46 is left out for that reason: across seeds its
// per-run median ranged over 13–25% of its median, BC 46's over 10–13%.
// BC and PC get no budgeted query: one root expansion over their 12–24k
// genes takes tens of milliseconds, so under contention a 50 ms budget
// can stop before the first group is kept.
func paperBatchQueries() []serve.QuerySpec {
	return []serve.QuerySpec{
		farmerSpec("CT", 40, 0, false),
		farmerSpec("CT", 39, 0, false),
		farmerSpec("CT", 38, 0, false),
		farmerSpec("ALL", 47, 0, false),
		farmerSpec("BC", 46, 0, false),
		farmerSpec("PC", 52, 0, false),
		farmerSpec("CT", 40, 2, false),
		farmerSpec("CT", 39, 2, false),
		farmerSpec("CT", 39, 0, true),
		farmerSpec("ALL", 47, 0, true),
		topkSpec("CT", 39),
		topkSpec("ALL", 47),
		topkSpec("PC", 52),
		budgetSpec("CT"),
		budgetSpec("ALL"),
	}
}

// checker verifies one served body: exact specs against their reference,
// budgeted ones by recomputation. It returns the budgeted answer's
// relative gap.
type checker struct {
	refs    map[serve.QuerySpec]answer
	budgets map[serve.QuerySpec]budgetCheck
}

func newChecker() *checker {
	return &checker{refs: map[serve.QuerySpec]answer{}, budgets: map[serve.QuerySpec]budgetCheck{}}
}

func refKey(spec serve.QuerySpec) serve.QuerySpec {
	spec.Workers = 0
	return spec
}

// prepare computes the reference (or budget check) of every spec on the
// dataset its name resolves to. With exactBudgets the budgeted specs also
// get their exact top-k count, which a completed budgeted answer must
// match.
func (c *checker) prepare(ctx context.Context, specs []serve.QuerySpec, data map[string]*farmer.Dataset, exactBudgets bool) error {
	for _, spec := range specs {
		d, ok := data[spec.Dataset]
		if !ok {
			return fmt.Errorf("no dataset %q", spec.Dataset)
		}
		if spec.Budgeted() {
			bc, err := newBudgetCheck(d, spec)
			if err != nil {
				return err
			}
			if exactBudgets {
				s := spec
				s.MaxMillis, s.MaxNodes = 0, 0
				a, err := reference(ctx, d, s)
				if err != nil {
					return err
				}
				bc.complete = a.count
			}
			c.budgets[spec] = bc
			continue
		}
		if _, done := c.refs[refKey(spec)]; done {
			continue
		}
		a, err := reference(ctx, d, spec)
		if err != nil {
			return err
		}
		c.refs[refKey(spec)] = a
	}
	return nil
}

func (c *checker) check(spec serve.QuerySpec, body []byte) (gap float64, err error) {
	if spec.Budgeted() {
		gap, err := checkBudgeted(body, c.budgets[spec])
		if err != nil {
			return 0, fmt.Errorf("budgeted %s/%s: %w", spec.Miner, spec.Dataset, err)
		}
		return gap, nil
	}
	ref, ok := c.refs[refKey(spec)]
	if !ok {
		return 0, fmt.Errorf("no reference for %+v", spec)
	}
	if err := checkExact(body, ref); err != nil {
		return 0, fmt.Errorf("%s/%s minsup %d: %w", spec.Miner, spec.Dataset, spec.MinSup, err)
	}
	return 0, nil
}

// paperSetup is the service plus the datasets it serves.
type paperSetup struct {
	svc  *service
	cl   *client
	data map[string]*farmer.Dataset
}

func (p *paperSetup) close() {
	p.cl.close()
	p.svc.close()
}

// setupPaper generates the named datasets, starts the service and
// registers them, then warms each dataset's class-0 view with one query.
func setupPaper(seed int64, names []string, bench map[string]bool, cfg svcConfig) (*paperSetup, error) {
	data := map[string]*farmer.Dataset{}
	for _, name := range names {
		d, err := paperDataset(baseName(name), seed, bench[name])
		if err != nil {
			return nil, err
		}
		data[name] = d
	}
	svc, err := startService(cfg)
	if err != nil {
		return nil, err
	}
	p := &paperSetup{svc: svc, cl: newClient(svc.url, 1), data: data}
	for _, name := range names {
		if err := svc.reg.Put(name, data[name]); err != nil {
			p.close()
			return nil, err
		}
		warm := serve.QuerySpec{Miner: "topk", Dataset: name, K: 1, MinSup: 1, MaxNodes: 50}
		if _, err := p.cl.query(warm, ""); err != nil {
			p.close()
			return nil, err
		}
	}
	return p, nil
}

// baseName strips a registration suffix ("CT-bench" → "CT").
func baseName(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '-' {
			return name[:i]
		}
	}
	return name
}

// cycleLoop runs whole shuffled cycles of specs until both the measured
// time has passed and minSamples operations were made, verifying every
// answer. It returns the relative gaps of the budgeted answers.
//
// Whole cycles keep every query's share of the samples fixed, and an odd
// cycle length puts the median inside one query's latencies rather than
// on the edge between two, where it would jump from run to run.
func cycleLoop(cfg runConfig, rep *report, lp *loop, cl *client, chk *checker, specs []serve.QuerySpec, minSamples int) []float64 {
	rng := rand.New(rand.NewSource(cfg.seed))
	order := make([]int, len(specs))
	for i := range order {
		order[i] = i
	}
	var gaps []float64
	perSpec := make([][]float64, len(specs))
	lp.begin()
	for time.Since(lp.start) < cfg.seconds || lp.attempted < minSamples {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			spec := specs[i]
			t0 := time.Now()
			resp, err := cl.query(spec, "")
			lat := time.Since(t0)
			perSpec[i] = append(perSpec[i], ms(lat))
			if err == nil {
				lp.body(len(resp.body))
				var gap float64
				if gap, err = chk.check(spec, resp.body); err == nil && spec.Budgeted() {
					gaps = append(gaps, gap)
				}
			}
			lp.record(rep, lat, err)
		}
	}
	lp.end()
	medians := map[string]float64{}
	for i, spec := range specs {
		medians[specLabel(spec)] = median(perSpec[i])
	}
	rep.detail["per_query_p50_ms"] = medians
	return gaps
}

// specLabel names a spec compactly for the result's detail line.
func specLabel(s serve.QuerySpec) string {
	l := fmt.Sprintf("%s/%s/%d", s.Miner, s.Dataset, s.MinSup)
	if s.Miner == "farmer" && s.MinConf != 0.9 {
		l += fmt.Sprintf("/conf%g", s.MinConf)
	}
	if s.Workers != 0 {
		l += fmt.Sprintf("/w%d", s.Workers)
	}
	if s.LowerBounds {
		l += "/lb"
	}
	if s.Budgeted() {
		l += fmt.Sprintf("/%dms", s.MaxMillis)
	}
	return l
}

// paperSLO is the latency limit of the closed-loop paper workloads: no
// query of the cycle runs near it sequentially.
const paperSLO = 2 * time.Second

func runPaperBatch(cfg runConfig, rep *report) error {
	specs := paperBatchQueries()
	svcCfg := svcConfig{managerWorkers: 1, cacheBytes: 0}
	rep.env.LoadModel = "closed loop, 1 client, whole shuffled cycles of 15 paper-shape queries, result cache off"
	rep.env.ManagerWorkers, rep.env.MiningThreads, rep.env.ClientConns = 1, 2, 1

	p, setupS, err := timedSetup(setupRuns, func() (*paperSetup, error) {
		return setupPaper(cfg.seed, paperDatasets, nil, svcCfg)
	}, (*paperSetup).close)
	if err != nil {
		return err
	}
	defer p.close()

	chk := newChecker()
	if err := chk.prepare(context.Background(), specs, p.data, false); err != nil {
		return err
	}
	lp := newLoop(paperSLO)
	before, err := p.cl.scrape()
	if err != nil {
		return err
	}
	gaps := cycleLoop(cfg, rep, lp, p.cl, chk, specs, samplesFor(90))
	lp.finish(rep, setupS)
	rep.layer["budget_gap"] = median(gaps)
	rep.detail["budget_answers"] = len(gaps)
	if !cfg.trace {
		return nil
	}
	after, err := p.cl.scrape()
	if err != nil {
		return err
	}
	countersOf(after).minus(countersOf(before)).layerMetrics(rep.layer)

	if err := replayPasses(cfg, rep, "paper-batch", func(rp *replayer) error {
		for _, spec := range specs {
			if err := rp.query(spec); err != nil {
				return err
			}
		}
		return nil
	}, func(rec *Recorder) *replayer { return newReplayer(rec, p.svc.reg, p.cl, chk) }); err != nil {
		return err
	}
	if err := coreExtras(rep, p.svc.reg, specs); err != nil {
		return err
	}
	return replayPaperUploads(cfg, rep)
}

// replayPaperUploads replays the upload path — parse, discretize,
// prepare, first view, store put — for the four paper shapes as matrix
// CSVs. The HTTP uploads go to a scratch in-memory service so the
// measured one keeps its warm snapshots.
func replayPaperUploads(cfg runConfig, rep *report) error {
	var ups []upload
	for _, name := range paperDatasets {
		m, err := paperMatrix(name, cfg.seed)
		if err != nil {
			return err
		}
		raw, err := matrixCSV(m)
		if err != nil {
			return err
		}
		ups = append(ups, upload{name: name, csv: raw})
	}
	scratch, err := startService(svcConfig{managerWorkers: 1})
	if err != nil {
		return err
	}
	defer scratch.close()
	cl := newClient(scratch.url, 1)
	defer cl.close()
	rp := newReplayer(nil, scratch.reg, cl, nil)
	if err := replayUploads(cfg, rp, ups, cl.putMatrix); err != nil {
		return err
	}
	for metric, sample := range uploadMetrics {
		rep.layer[metric] = rp.s.mean(sample)
	}
	return nil
}

// coreExtras runs the library-side comparisons of the paper-batch points:
// worker counts on the parallel points, best-first against depth-first
// on the exact top-k points, and FARMER with and without lower bounds.
func coreExtras(rep *report, reg *serve.Registry, specs []serve.QuerySpec) error {
	ctx := context.Background()
	timed := func(spec serve.QuerySpec) (time.Duration, farmer.MinerResult, error) {
		d, snap, _, err := reg.Entry(spec.Dataset)
		if err != nil {
			return 0, nil, err
		}
		t0 := time.Now()
		res, err := mine(ctx, d, snap, spec)
		return time.Since(t0), res, err
	}
	var w0, w1, w2, bf, lb, nolb time.Duration
	var bfNodes int64
	for _, spec := range specs {
		switch {
		case spec.Miner == "farmer" && spec.Workers != 0:
			for _, w := range []int{0, 1, 2} {
				s := spec
				s.Workers = w
				d, _, err := timed(s)
				if err != nil {
					return err
				}
				switch w {
				case 0:
					w0 += d
				case 1:
					w1 += d
				case 2:
					w2 += d
				}
			}
		case spec.Miner == "topk" && !spec.Budgeted():
			s := spec
			s.Quality = "best_first"
			d, res, err := timed(s)
			if err != nil {
				return err
			}
			bf += d
			bfNodes += res.Stats().NodesVisited
		case spec.Miner == "farmer" && spec.LowerBounds:
			s := spec
			d, _, err := timed(s)
			if err != nil {
				return err
			}
			lb += d
			s.LowerBounds = false
			if d, _, err = timed(s); err != nil {
				return err
			}
			nolb += d
		}
	}
	rep.layer["core.parallel_speedup"] = ratio(w0.Seconds(), w2.Seconds())
	rep.layer["core.w1_ratio"] = ratio(w1.Seconds(), w0.Seconds())
	rep.layer["core.topk_bestfirst_ms"] = ms(bf)
	rep.layer["core.topk_bestfirst_nodes"] = float64(bfNodes)
	rep.layer["core.minelb_ms"] = ms(lb - nolb)
	return nil
}

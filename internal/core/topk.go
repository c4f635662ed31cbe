package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/stats"
)

// Measure selects the objective of TopK. All three are convex impurity
// measures over the (x, y) margins, so the Lemma 3.9 vertex bound applies
// (Morishita & Sese, PODS 2000 — the paper's reference [15]).
type Measure int

const (
	// MeasureChi2 ranks groups by the 2×2 chi-square statistic.
	MeasureChi2 Measure = iota
	// MeasureEntropyGain ranks groups by information gain.
	MeasureEntropyGain
	// MeasureGiniGain ranks groups by Gini-impurity reduction.
	MeasureGiniGain
)

// String returns the measure's canonical name: "chi2", "entropy" or
// "gini".
func (m Measure) String() string {
	switch m {
	case MeasureEntropyGain:
		return "entropy"
	case MeasureGiniGain:
		return "gini"
	default:
		return "chi2"
	}
}

// ParseMeasure maps a canonical measure name ("chi2", "entropy", "gini")
// back to its Measure, as used by the CLI flags and the service API.
func ParseMeasure(name string) (Measure, error) {
	switch name {
	case "chi2", "":
		return MeasureChi2, nil
	case "entropy":
		return MeasureEntropyGain, nil
	case "gini":
		return MeasureGiniGain, nil
	}
	return 0, fmt.Errorf("core: unknown measure %q (want chi2, entropy or gini)", name)
}

func (m Measure) value(x, y, n, pos int) float64 {
	switch m {
	case MeasureEntropyGain:
		return stats.EntropyGain(x, y, n, pos)
	case MeasureGiniGain:
		return stats.GiniGain(x, y, n, pos)
	default:
		return stats.Chi2(x, y, n, pos)
	}
}

func (m Measure) bound(x, y, n, pos int) float64 {
	switch m {
	case MeasureEntropyGain:
		return stats.EntropyGainUpperBound(x, y, n, pos)
	case MeasureGiniGain:
		return stats.GiniGainUpperBound(x, y, n, pos)
	default:
		return stats.Chi2UpperBound(x, y, n, pos)
	}
}

// ScoredGroup is a rule group with its objective value.
type ScoredGroup struct {
	RuleGroup
	Score float64
}

// TopKOptions configures TopK: the number of groups to keep, the objective
// measure, and the minimum support. The zero value of the anytime fields
// (Strategy, MaxMillis, MaxNodes, Delta, Seed, Workers) selects the
// exhaustive, exact best-first search on one worker.
type TopKOptions struct {
	// K is the number of best groups to return. Must be ≥ 1.
	K int
	// Measure is the convex objective; its zero value is MeasureChi2.
	Measure Measure
	// MinSup is the minimum rule support, ≥ 1.
	MinSup int
	// Prepared, when non-nil, supplies a precompiled snapshot of the
	// dataset (see Options.Prepared): the run reuses the snapshot's ORD
	// ordering and transposed table instead of rebuilding them.
	Prepared *dataset.Snapshot

	// Strategy selects the search mode. StrategyExact (the zero value)
	// and StrategyBestFirst are the same best-first search: exact when
	// unbudgeted, best-so-far with a certified gap under a budget.
	Strategy Strategy
	// MaxMillis bounds the run's wall clock (setup included); 0 means
	// unbudgeted. A budget-stopped run returns the best groups found with
	// Partial set and a certified Gap — no error.
	MaxMillis int64
	// MaxNodes bounds the number of node expansions; 0 means unbudgeted.
	MaxNodes int64
	// Delta is StrategyLeap's relaxation: subtrees whose bound cannot
	// improve the current k-th score by more than a factor (1+Delta) are
	// pruned. Ignored by the other strategies.
	Delta float64
	// Seed seeds StrategySample's random walks; equal seeds replay equal
	// walk sequences.
	Seed int64
	// Workers is the number of concurrent frontier expanders (negative =
	// GOMAXPROCS, 0/1 = sequential); the sampler always runs on one. The
	// exhausted answer is identical for every worker count.
	Workers int
}

// TopKResult carries the ranked groups (best first) and the run's unified
// statistics, plus the quality certificate.
type TopKResult struct {
	Groups []ScoredGroup

	// Partial marks an answer not certified to equal the exact top-k: the
	// budget stopped the search with work outstanding, a leap run pruned a
	// subtree that could have mattered, or the sampler ran (it never
	// certifies). An unset Partial is a proof of exactness.
	Partial bool
	// Gap, when HasGap, bounds how far the answer can be from optimal:
	// no unexplored group can score more than (k-th kept score + Gap).
	// Zero for complete runs.
	Gap float64
	// HasGap reports whether Gap is meaningful (best-first and leap runs;
	// the sampler certifies nothing).
	HasGap bool
	// NodesExpanded counts the enumeration nodes the search entered — the
	// budget currency, reported for budget-utilization accounting.
	NodesExpanded int64

	stats engine.Stats
}

// Stats returns the engine's unified run statistics.
func (r *TopKResult) Stats() engine.Stats { return r.stats }

// Count returns the number of ranked groups kept.
func (r *TopKResult) Count() int { return len(r.Groups) }

// TopK returns the k rule groups with the given consequent that maximize
// the measure, subject to a minimum support, by branch-and-bound over the
// row enumeration tree: frontier nodes are expanded in descending order of
// their convex vertex bound (Lemma 3.9), and a subtree is cut once its
// bound falls below the current k-th best score, so the threshold tightens
// as better groups are found. Groups are returned best-first under the
// canonical order: descending score, then descending support, then
// lexicographic antecedent.
//
// Unbudgeted, the search is exhaustive and the answer is exact, identical
// for every worker count. A budget (MaxMillis, MaxNodes) stops it within
// one node expansion with the best groups found, Partial set and a
// certified Gap — no error. On cancellation TopK returns ctx.Err()
// together with the best groups found so far.
func TopK(ctx context.Context, d *dataset.Dataset, consequent int, opt TopKOptions) (*TopKResult, error) {
	strat := opt.Strategy
	switch {
	case opt.K < 1:
		return nil, fmt.Errorf("core: k must be >= 1, got %d", opt.K)
	case opt.MinSup < 1:
		return nil, fmt.Errorf("core: minsup must be >= 1, got %d", opt.MinSup)
	case opt.Delta < 0:
		return nil, fmt.Errorf("core: delta must be >= 0, got %g", opt.Delta)
	case strat == StrategySample && opt.MaxMillis <= 0 && opt.MaxNodes <= 0:
		return nil, fmt.Errorf("core: the sample strategy needs a max_millis or max_nodes budget")
	}
	var deadline time.Time
	if opt.MaxMillis > 0 {
		// The deadline covers the whole run, setup included: max_millis is
		// a promise to the caller, not to the search phase.
		deadline = time.Now().Add(time.Duration(opt.MaxMillis) * time.Millisecond)
	}

	ex := engine.NewExec(ctx)
	setupDone := engine.Phase(&ex.Stats.Timings.Setup)
	ordered, ord, tt, err := resolveView(d, consequent, opt.Prepared, ex)
	if err != nil {
		return nil, err
	}
	if tt == nil {
		tt = dataset.Transpose(ordered)
	}
	setupDone()

	workers := opt.Workers
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	if strat == StrategySample {
		workers = 1 // the walk sequence is the reproducibility contract
	}

	s := &anytimeSearch{
		k:         opt.K,
		minsup:    opt.MinSup,
		n:         len(ordered.Rows),
		numPos:    ord.NumPositive,
		measure:   opt.Measure,
		inFlight:  make([]float64, workers),
		maxPruned: math.Inf(-1),
	}
	s.fillTables()
	if strat == StrategyLeap {
		s.delta = opt.Delta
	}
	if strat == StrategySample {
		s.dedup = make(map[string]struct{})
	}
	s.cond = sync.NewCond(&s.mu)
	for i := range s.inFlight {
		s.inFlight[i] = math.Inf(-1)
	}

	miners := make([]*miner, workers)
	for w := 0; w < workers; w++ {
		exw := engine.NewExec(ctx)
		var shared *atomic.Int64
		if workers > 1 && opt.MaxNodes > 0 {
			shared = &s.sharedNodes
		}
		exw.SetBudget(deadline, opt.MaxNodes, shared)
		miners[w] = newMiner(ordered, ord.NumPositive, Options{MinSup: opt.MinSup}, exw, tt)
	}

	searchDone := engine.Phase(&ex.Stats.Timings.Search)
	if s.n > 0 && s.numPos > 0 {
		if strat == StrategySample {
			s.sample(miners[0], opt.Seed)
		} else {
			s.seedRoots(miners[0])
			if workers == 1 {
				s.worker(0, miners[0])
			} else {
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						s.worker(w, miners[w])
					}(w)
				}
				wg.Wait()
			}
		}
	}
	searchDone()

	var nodes int64
	for _, m := range miners {
		ex.Stats.Counters.Add(m.ex.Stats.Counters)
		ex.Stats.ArenaBytes += m.sc.Bytes()
		nodes += m.ex.Stats.NodesVisited
	}

	res := &TopKResult{NodesExpanded: nodes}
	res.Groups = materializeTopK(s.best, ord, s.n, s.numPos)

	if strat == StrategySample {
		// A sampler's answer carries no certificate: it is partial unless
		// it provably enumerated nothing… which it cannot prove.
		res.Partial = true
	} else {
		maxOut, any := s.outstandingLocked()
		kth := 0.0
		full := len(s.best) == s.k
		if full {
			kth = s.best[0].score
		}
		res.HasGap = true
		if any && (maxOut > kth || !full) {
			res.Partial = true
			if gap := maxOut - kth; gap > 0 {
				res.Gap = gap
			}
		}
	}
	res.stats = ex.Stats
	return res, s.stopErr
}

// materializeTopK converts the kept heap into the public ranking: best
// first under the canonical order, row ids mapped back to the caller's
// original order.
func materializeTopK(best canonHeap, ord *dataset.Ordering, n, numPos int) []ScoredGroup {
	out := make([]ScoredGroup, len(best))
	for i := range best {
		e := &best[i]
		g := ScoredGroup{Score: e.score}
		g.Antecedent = e.items
		g.SupPos = e.supPos
		g.SupNeg = e.tot - e.supPos
		g.Confidence = float64(e.supPos) / float64(e.tot)
		g.Chi = stats.Chi2(e.tot, e.supPos, n, numPos)
		g.Rows = ord.MapRowsToOriginal(e.rows.Ints())
		sort.Ints(g.Rows)
		out[i] = g
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		if out[a].SupPos != out[b].SupPos {
			return out[a].SupPos > out[b].SupPos
		}
		return lessItems(out[a].Antecedent, out[b].Antecedent)
	})
	return out
}

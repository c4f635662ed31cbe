package core

import (
	"container/heap"
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/stats"
)

// Measure selects the objective of MineTopK. All three are convex impurity
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
// (Strategy, MaxMillis, MaxNodes, Delta, Seed, Workers) selects the exact
// depth-first miner with unchanged, Counters-identical behavior.
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
	// is the exhaustive depth-first miner; setting a budget below while
	// leaving the strategy exact upgrades it to StrategyBestFirst, since a
	// budget only makes sense with a best-so-far ordering.
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
	// Workers is the number of concurrent frontier expanders for the
	// anytime strategies (negative = GOMAXPROCS, 0/1 = sequential). The
	// exact strategy ignores it. The exhausted best-first answer is
	// identical for every worker count.
	Workers int
}

// TopKResult carries the ranked groups (best first) and the run's unified
// statistics, plus — for the anytime strategies — the quality certificate.
type TopKResult struct {
	Groups []ScoredGroup

	// Partial marks an answer not certified to equal the exact top-k: the
	// budget stopped the search with work outstanding, a leap run pruned a
	// subtree that could have mattered, or the sampler ran (it never
	// certifies). An unset Partial on an anytime run is a proof of
	// exactness.
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

// MineTopK returns the k rule groups with the given consequent that
// maximize the measure, subject to a minimum support, by branch-and-bound
// over the row enumeration tree: the convex vertex bound of each subtree is
// compared against the current k-th best score, so the threshold tightens
// as better groups are found. Groups are returned best-first; ties break
// toward higher support, then lexicographic antecedents.
func MineTopK(d *dataset.Dataset, consequent, k int, measure Measure, minsup int) ([]ScoredGroup, error) {
	return MineTopKContext(context.Background(), d, consequent, k, measure, minsup)
}

// MineTopKContext is MineTopK under a context: cancellation is checked at
// every node expansion. On cancellation it returns ctx.Err() together with
// the best groups found so far — a valid answer for whatever portion of
// the search space was explored, not necessarily the global top k.
func MineTopKContext(ctx context.Context, d *dataset.Dataset, consequent, k int, measure Measure, minsup int) ([]ScoredGroup, error) {
	res, err := TopK(ctx, d, consequent, TopKOptions{K: k, Measure: measure, MinSup: minsup})
	if res == nil {
		return nil, err
	}
	return res.Groups, err
}

// TopK is the canonical branch-and-bound entry point: MineTopKContext with
// an options struct and a stats-carrying result.
func TopK(ctx context.Context, d *dataset.Dataset, consequent int, opt TopKOptions) (*TopKResult, error) {
	k, measure, minsup := opt.K, opt.Measure, opt.MinSup
	if k < 1 {
		return nil, fmt.Errorf("core: k must be >= 1, got %d", k)
	}
	if minsup < 1 {
		return nil, fmt.Errorf("core: minsup must be >= 1, got %d", minsup)
	}
	strat := opt.Strategy
	if strat == StrategyExact && (opt.MaxMillis > 0 || opt.MaxNodes > 0) {
		// A budget without a strategy means "the best answer you can find
		// in time": best-first is the only ordering that makes the
		// best-so-far heap valid at the stopping instant.
		strat = StrategyBestFirst
	}
	if strat != StrategyExact {
		return topKAnytime(ctx, d, consequent, opt, strat)
	}
	ex := engine.NewExec(ctx)
	setupDone := engine.Phase(&ex.Stats.Timings.Setup)
	ordered, ord, tt, err := resolveView(d, consequent, opt.Prepared, ex)
	if err != nil {
		return nil, err
	}
	m := newMiner(ordered, ord.NumPositive, Options{MinSup: minsup}, ex, tt)
	setupDone()
	tk := &topkSearch{miner: m, k: k, measure: measure}
	searchDone := engine.Phase(&ex.Stats.Timings.Search)
	err = tk.run()
	searchDone()
	ex.Stats.ArenaBytes = m.sc.Bytes()

	out := make([]ScoredGroup, len(tk.best))
	for i := range tk.best {
		e := tk.best[i]
		g := ScoredGroup{Score: e.score}
		g.Antecedent = e.items
		g.SupPos = e.supPos
		g.SupNeg = e.tot - e.supPos
		g.Confidence = float64(e.supPos) / float64(e.tot)
		g.Chi = stats.Chi2(e.tot, e.supPos, m.n, m.numPos)
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
	return &TopKResult{Groups: out, stats: m.ex.Stats}, err
}

type scoredEntry struct {
	irgEntry
	score float64
}

// topkHeap is a min-heap on score so the weakest kept group is evictable.
type topkHeap []scoredEntry

func (h topkHeap) Len() int           { return len(h) }
func (h topkHeap) Less(i, j int) bool { return h[i].score < h[j].score }
func (h topkHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *topkHeap) Push(x any)        { *h = append(*h, x.(scoredEntry)) }
func (h *topkHeap) Pop() any          { old := *h; x := old[len(old)-1]; *h = old[:len(old)-1]; return x }
func (h topkHeap) threshold() float64 { return h[0].score }

type topkSearch struct {
	miner   *miner
	k       int
	measure Measure
	best    topkHeap
}

func (t *topkSearch) run() error {
	m := t.miner
	if m.n == 0 || m.numPos == 0 {
		return nil
	}
	for ri := 0; ri < m.n; ri++ {
		supp, supn, epCount := m.rootCounts(ri)
		m.sc.InX.Set(ri)
		err := t.walk(m.ds.Rows[ri].Items, supp, supn, epCount, ri)
		m.sc.InX.Clear(ri)
		if err != nil {
			return err
		}
	}
	return nil
}

// walk mirrors mineNode's traversal with the branch-and-bound cut: instead
// of fixed thresholds, subtrees are pruned when the measure's vertex bound
// cannot beat the current k-th best score.
func (t *topkSearch) walk(items []dataset.Item, supp, supn, epCount, rmax int) error {
	m := t.miner
	if err := m.ex.EnterNode(); err != nil {
		return err
	}
	if len(items) == 0 || m.backScanHit(items, rmax) || supp+epCount < m.opt.MinSup {
		return nil
	}

	// Everything from here on allocates on the arena and pops on unwind.
	mark := m.sc.A.Mark()
	defer m.sc.A.Release(mark)

	sc := m.scanNode(items, rmax, supp, supn, true)
	supp, supn = sc.supp, sc.supn

	// Bound cuts: support, then the dynamic measure bound.
	if sc.suppIn+sc.maxPos < m.opt.MinSup {
		return nil
	}
	if len(t.best) == t.k {
		if t.measure.bound(supp+supn, supp, m.n, m.numPos) <= t.best.threshold() {
			m.ex.Stats.PrunedGainBound++
			return nil
		}
	}

	for _, r := range sc.yRows {
		m.sc.InX.Set(int(r))
	}
	if len(sc.eRows) > 0 {
		tables, offs := m.childTables(items, sc.eRows)
		posBoundary := searchRow(sc.eRows, int32(m.numPos))
		for p, r := range sc.eRows {
			ca, cb, ep := m.childCounts(supp, supn, r, p, posBoundary)
			m.sc.InX.Set(int(r))
			err := t.walk(tables[offs[p]:offs[p+1]], ca, cb, ep, int(r))
			m.sc.InX.Clear(int(r))
			if err != nil {
				return err
			}
		}
	}

	// Emit into the heap. After cancellation the unwind path skips
	// emission, mirroring maybeEmit's contract.
	if supp >= m.opt.MinSup && m.ex.Err() == nil {
		score := t.measure.value(supp+supn, supp, m.n, m.numPos)
		if len(t.best) < t.k || score > t.best.threshold() {
			entry := scoredEntry{score: score}
			entry.rows = m.sc.InX.Clone()
			entry.supPos = supp
			entry.tot = supp + supn
			entry.items = slices.Clone(items)
			heap.Push(&t.best, entry)
			if len(t.best) > t.k {
				heap.Pop(&t.best)
			}
			m.ex.Stats.GroupsEmitted++
		}
	}

	for _, r := range sc.yRows {
		m.sc.InX.Clear(int(r))
	}
	return nil
}

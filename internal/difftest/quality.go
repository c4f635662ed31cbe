package difftest

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/reference"
)

// CheckAnytimeDeterminism asserts the top-k tie-break contract of the
// best-first search on one case, for every measure: exhausted runs of the
// default strategy and of δ=0 leap, on 1, 2 and 4 workers, are never
// flagged partial, certify a zero gap, and keep exactly the oracle's
// groups — representatives included, since admission under the canonical
// total order makes the answer independent of the expansion schedule.
func CheckAnytimeDeterminism(c Case, k int) error {
	for _, m := range topKMeasures {
		want := reference.TopK(c.D, c.Consequent, k, m.Fn, c.Opt.MinSup)
		for _, strat := range []core.Strategy{core.StrategyExact, core.StrategyLeap} {
			for _, workers := range []int{1, 2, 4} {
				label := fmt.Sprintf("TopK(%s, %v, workers=%d)", m.Name, strat, workers)
				res, err := core.TopK(context.Background(), c.D, c.Consequent, core.TopKOptions{
					K: k, Measure: m.Measure, MinSup: c.Opt.MinSup,
					Strategy: strat, Workers: workers,
				})
				if err != nil {
					return fmt.Errorf("%s: %w", label, err)
				}
				if res.Partial {
					return fmt.Errorf("%s: exhausted run flagged partial", label)
				}
				if !res.HasGap || res.Gap != 0 {
					return fmt.Errorf("%s: exhausted run gap %v (has=%v), want certified 0", label, res.Gap, res.HasGap)
				}
				if err := diffTopK(label, res.Groups, want); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// QualityRow is one measurement of the quality harness: an approximate
// top-k run under one budget, scored against the exhausted exact miner on
// the same dataset. CI archives these as BENCH_quality.json (via
// `benchjson -quality`).
type QualityRow struct {
	Dataset  string `json:"dataset"`
	Strategy string `json:"strategy"`
	Measure  string `json:"measure"`
	K        int    `json:"k"`
	MinSup   int    `json:"minsup"`
	// BudgetKind says which budget dimension the row sweeps: "millis"
	// (fraction of the exact miner's wall clock, the serving-facing
	// number) or "nodes" (fraction of the exact miner's node count,
	// deterministic and machine-independent — what the smoke test gates).
	BudgetKind string  `json:"budget_kind"`
	BudgetFrac float64 `json:"budget_frac"`
	MaxMillis  int64   `json:"max_millis,omitempty"`
	MaxNodes   int64   `json:"max_nodes,omitempty"`
	// The exact baseline being approximated.
	ExactMillis float64 `json:"exact_millis"`
	ExactNodes  int64   `json:"exact_nodes"`
	// Outcome.
	NodesExpanded int64   `json:"nodes_expanded"`
	Recall        float64 `json:"recall"`
	Regret        float64 `json:"regret"`
	Gap           float64 `json:"gap,omitempty"`
	Partial       bool    `json:"partial"`
}

// topKScores extracts the ranked score list of a result.
func topKScores(res *core.TopKResult) []float64 {
	s := make([]float64, len(res.Groups))
	for i, g := range res.Groups {
		s[i] = g.Score
	}
	return s
}

// recallAndRegret scores an approximate ranked score list against the
// exact one. Recall is multiset intersection over the exact list's size —
// scores compare exactly because both miners compute them from identical
// integer margins through the same stats routines. Regret is the relative
// shortfall in total kept score, clamped to [0, 1].
func recallAndRegret(got, exact []float64) (recall, regret float64) {
	if len(exact) == 0 {
		return 1, 0
	}
	matched, gi := 0, 0
	var sumGot, sumExact float64
	for _, s := range exact {
		sumExact += s
	}
	for _, s := range got {
		sumGot += s
	}
	// Both lists are sorted descending; count multiset matches with a
	// two-pointer sweep.
	for _, want := range exact {
		for gi < len(got) && got[gi] > want {
			gi++
		}
		if gi < len(got) && got[gi] == want {
			matched++
			gi++
		}
	}
	recall = float64(matched) / float64(len(exact))
	if sumExact > 0 {
		regret = (sumExact - sumGot) / sumExact
		if regret < 0 {
			regret = 0
		}
		if regret > 1 {
			regret = 1
		}
	}
	return recall, regret
}

// QualitySpec configures one quality sweep: dataset, query shape, the
// strategies to grade, and the budget fractions to sweep.
type QualitySpec struct {
	Name       string
	D          *dataset.Dataset
	Consequent int
	K          int
	MinSup     int
	Measure    core.Measure
	Strategies []core.Strategy
	Fracs      []float64
	// Prepared, when non-nil, supplies the compiled snapshot of D. The
	// sweep then measures what the serving tier actually does — mine from
	// a registry-resident snapshot — so small wall-clock budgets grade
	// search progress, not dataset setup.
	Prepared *dataset.Snapshot
	// WallClock selects the budget dimension: true sweeps MaxMillis as a
	// fraction of the measured exact wall clock (the serving-facing
	// number), false sweeps MaxNodes as a fraction of the exact node
	// count (deterministic — what CI smoke-gates).
	WallClock bool
	// Reps is the number of attempts per wall-clock cell, keeping the
	// best-recall row — the same best-of-N convention as the exact
	// baseline's wall measurement, and for the same reason: a GC pause or
	// scheduler stall inside a few-millisecond budget says nothing about
	// the search. 0 means 1. Node-budget cells are deterministic and
	// always run once.
	Reps int
	// SampleSeed seeds StrategySample rows so committed reports replay.
	SampleSeed int64
}

// RunQuality grades every (strategy, budget fraction) cell of one spec
// against the exhausted exact miner.
func RunQuality(spec QualitySpec) ([]QualityRow, error) {
	base := core.TopKOptions{K: spec.K, Measure: spec.Measure, MinSup: spec.MinSup, Prepared: spec.Prepared}

	// The exact baseline: best-of-3 wall clock (the budget denominator
	// should not inherit one cold run's scheduling noise) and the node
	// count, which is deterministic across the repeats.
	var exact *core.TopKResult
	exactMillis := 0.0
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		res, err := core.TopK(context.Background(), spec.D, spec.Consequent, base)
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		if err != nil {
			return nil, fmt.Errorf("exact TopK(%s): %w", spec.Name, err)
		}
		if exact == nil || ms < exactMillis {
			exactMillis = ms
		}
		exact = res
	}
	exactScores := topKScores(exact)
	exactNodes := exact.Stats().NodesVisited

	reps := spec.Reps
	if reps < 1 || !spec.WallClock {
		reps = 1
	}

	var rows []QualityRow
	for _, strat := range spec.Strategies {
		for _, frac := range spec.Fracs {
			opt := base
			opt.Strategy = strat
			opt.Seed = spec.SampleSeed
			row := QualityRow{
				Dataset: spec.Name, Strategy: strat.String(), Measure: spec.Measure.String(),
				K: spec.K, MinSup: spec.MinSup,
				BudgetFrac:  frac,
				ExactMillis: exactMillis, ExactNodes: exactNodes,
			}
			if spec.WallClock {
				row.BudgetKind = "millis"
				opt.MaxMillis = int64(frac * exactMillis)
				if opt.MaxMillis < 1 {
					opt.MaxMillis = 1
				}
				row.MaxMillis = opt.MaxMillis
			} else {
				row.BudgetKind = "nodes"
				opt.MaxNodes = int64(frac * float64(exactNodes))
				if opt.MaxNodes < 1 {
					opt.MaxNodes = 1
				}
				row.MaxNodes = opt.MaxNodes
			}
			got := false
			for rep := 0; rep < reps; rep++ {
				res, err := core.TopK(context.Background(), spec.D, spec.Consequent, opt)
				if err != nil {
					return nil, fmt.Errorf("TopK(%s, %v, frac=%v): %w", spec.Name, strat, frac, err)
				}
				recall, regret := recallAndRegret(topKScores(res), exactScores)
				if got && recall <= row.Recall {
					continue
				}
				got = true
				row.NodesExpanded = res.NodesExpanded
				row.Partial = res.Partial
				row.Gap = res.Gap
				row.Recall, row.Regret = recall, regret
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// MeanRecall averages the recall of the rows accepted by the filter —
// how CI asserts e.g. "best-first at a 10% budget keeps ≥0.9 of the true
// top-k" across the bench datasets.
func MeanRecall(rows []QualityRow, keep func(QualityRow) bool) float64 {
	sum, n := 0.0, 0
	for _, r := range rows {
		if keep == nil || keep(r) {
			sum += r.Recall
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

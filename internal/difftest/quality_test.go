package difftest

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

// qualityDataset builds a dataset big enough that node budgets bite but
// small enough for the test to stay fast.
func qualityDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	lists := make([][]dataset.Item, 30)
	classes := make([]int, 30)
	for i := range lists {
		classes[i] = i % 2
		for it := 0; it < 16; it++ {
			if rng.Float64() < 0.5 {
				lists[i] = append(lists[i], dataset.Item(it))
			}
		}
	}
	d, err := dataset.FromItemLists(lists, classes, 16, []string{"C", "N"})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// The harness itself: rows come back for every (strategy, frac) cell,
// recall and regret are in range, full-budget best-first converges to the
// exact answer, and recall under a node budget is what a recomputation
// from the kept scores says it is.
func TestQualityHarnessNodeBudget(t *testing.T) {
	d := qualityDataset(t)
	spec := QualitySpec{
		Name: "rand30", D: d, Consequent: 0, K: 10, MinSup: 2,
		Measure:    core.MeasureChi2,
		Strategies: []core.Strategy{core.StrategyBestFirst, core.StrategyLeap, core.StrategySample},
		Fracs:      []float64{0.05, 0.25, 1.0},
		SampleSeed: 11,
	}
	rows, err := RunQuality(spec)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(spec.Strategies) * len(spec.Fracs); len(rows) != want {
		t.Fatalf("%d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		if r.BudgetKind != "nodes" || r.MaxNodes < 1 {
			t.Fatalf("row %+v: bad budget", r)
		}
		if r.Recall < 0 || r.Recall > 1 || r.Regret < 0 || r.Regret > 1 {
			t.Fatalf("row %+v: recall/regret out of range", r)
		}
		if r.ExactNodes <= 0 || r.ExactMillis < 0 {
			t.Fatalf("row %+v: bad exact baseline", r)
		}
		if r.Recall == 1 && r.Regret != 0 {
			t.Fatalf("row %+v: full recall with nonzero regret", r)
		}
	}
	// Best-first given the exact run's full node count must get most of
	// the answer: the exact run is the same search, so a same-size budget
	// replays it (empirically all of it; gate loosely to stay robust).
	best := MeanRecall(rows, func(r QualityRow) bool {
		return r.Strategy == "best_first" && r.BudgetFrac == 1.0
	})
	if best < 0.9 {
		t.Fatalf("best-first at a 100%% node budget has mean recall %v, want >= 0.9", best)
	}
	// And budgets must actually bind: the 5% cells expanded far fewer
	// nodes than the exact baseline.
	for _, r := range rows {
		if r.BudgetFrac == 0.05 && r.Strategy != "sample" && r.NodesExpanded > r.ExactNodes/2 {
			t.Fatalf("row %+v: 5%% budget did not bind", r)
		}
	}
}

// Wall-clock sweeps produce millis budgets and stay within range; this is
// the serving-facing mode benchjson -quality uses.
func TestQualityHarnessWallClock(t *testing.T) {
	d := qualityDataset(t)
	rows, err := RunQuality(QualitySpec{
		Name: "rand30", D: d, Consequent: 0, K: 10, MinSup: 2,
		Measure:    core.MeasureChi2,
		Strategies: []core.Strategy{core.StrategyBestFirst},
		Fracs:      []float64{0.1},
		WallClock:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d rows, want 1", len(rows))
	}
	r := rows[0]
	if r.BudgetKind != "millis" || r.MaxMillis < 1 {
		t.Fatalf("row %+v: bad wall-clock budget", r)
	}
	if r.Recall < 0 || r.Recall > 1 {
		t.Fatalf("row %+v: recall out of range", r)
	}
}

func TestRecallAndRegret(t *testing.T) {
	for _, tc := range []struct {
		got, exact     []float64
		recall, regret float64
	}{
		{[]float64{3, 2, 1}, []float64{3, 2, 1}, 1, 0},
		{[]float64{3, 1}, []float64{3, 2}, 0.5, 0.2},
		{nil, []float64{1}, 0, 1},
		{[]float64{5}, nil, 1, 0},
		// Ties are multiset-matched, not double-counted.
		{[]float64{2, 2, 1}, []float64{2, 2, 2}, 2.0 / 3, 1.0 / 6},
	} {
		recall, regret := recallAndRegret(tc.got, tc.exact)
		if recall != tc.recall || regret != tc.regret {
			t.Fatalf("recallAndRegret(%v, %v) = %v, %v; want %v, %v",
				tc.got, tc.exact, recall, regret, tc.recall, tc.regret)
		}
	}
}

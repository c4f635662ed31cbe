package difftest

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/columne"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/reference"
	"repro/internal/stats"
)

// wideCase draws a dataset of 60–200 rows over at most 10 items: row ids
// span one to four 64-bit words, which the random cases (≤ MaxRows rows)
// never reach, while ColumnE's item enumeration stays cheap.
func wideCase(rng *rand.Rand) (*dataset.Dataset, core.Options) {
	n := 60 + rng.Intn(141)
	numItems := 3 + rng.Intn(8)
	density := 0.3 + 0.6*rng.Float64()
	lists := make([][]dataset.Item, n)
	classes := make([]int, n)
	for i := range lists {
		for it := 0; it < numItems; it++ {
			if rng.Float64() < density {
				lists[i] = append(lists[i], dataset.Item(it))
			}
		}
		classes[i] = rng.Intn(2)
	}
	d, err := dataset.FromItemLists(lists, classes, numItems, []string{"C", "N"})
	if err != nil {
		panic(err)
	}
	opt := core.Options{
		MinSup:  1 + rng.Intn(n/4),
		MinConf: confLevels[rng.Intn(len(confLevels))],
		MinChi:  chiLevels[rng.Intn(len(chiLevels))],
	}
	return d, opt
}

// wideTopK is the top-k oracle for datasets with few items: every rule
// group is the closure of some item subset, so it enumerates the item
// subsets where reference.TopK enumerates row subsets, and ranks like it.
func wideTopK(d *dataset.Dataset, k int, measure func(x, y, n, m int) float64, minsup int) []reference.Scored {
	n, m := len(d.Rows), d.ClassCount(0)
	seen := map[string]bool{}
	var scored []reference.Scored
	for mask := 1; mask < 1<<d.NumItems; mask++ {
		var a []dataset.Item
		for it := 0; it < d.NumItems; it++ {
			if mask&(1<<it) != 0 {
				a = append(a, dataset.Item(it))
			}
		}
		rows := dataset.SupportSet(d, a).Ints()
		if len(rows) == 0 {
			continue
		}
		closure := dataset.CommonItems(d, rows)
		key := fmt.Sprint(closure)
		if seen[key] {
			continue
		}
		seen[key] = true
		g := reference.RuleGroup{Antecedent: closure, Rows: rows}
		g.SupPos, g.SupNeg = dataset.SupportCounts(d, closure, 0)
		if g.SupPos < minsup {
			continue
		}
		scored = append(scored, reference.Scored{Group: g, Score: measure(g.SupPos+g.SupNeg, g.SupPos, n, m)})
	}
	sort.Slice(scored, func(i, j int) bool {
		if scored[i].Score != scored[j].Score {
			return scored[i].Score > scored[j].Score
		}
		if scored[i].Group.SupPos != scored[j].Group.SupPos {
			return scored[i].Group.SupPos > scored[j].Group.SupPos
		}
		return slices.Compare(scored[i].Group.Antecedent, scored[j].Group.Antecedent) < 0
	})
	if len(scored) > k {
		scored = scored[:k]
	}
	return scored
}

// TestWideRowsMatchColumnE checks FARMER's word-parallel row enumeration
// on datasets wider than one row word against ColumnE, which finds the
// same interesting rule groups by enumerating items instead of rows; the
// parallel scheduler must reproduce Mine's groups and Counters, and
// exhausted top-k on one and two workers must return exactly the item
// oracle's top k.
func TestWideRowsMatchColumnE(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	groups := 0
	for iter := 0; iter < 30; iter++ {
		d, opt := wideCase(rng)
		label := fmt.Sprintf("iter %d (%d rows, %d items, %+v)", iter, len(d.Rows), d.NumItems, opt)
		res, err := core.Mine(d, 0, opt)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		ce, err := columne.Mine(d, 0, columne.Options{MinSup: opt.MinSup, MinConf: opt.MinConf, MinChi: opt.MinChi})
		if err != nil {
			t.Fatalf("%s: columne: %v", label, err)
		}
		got := make([]string, len(res.Groups))
		for i, g := range res.Groups {
			got[i] = fmt.Sprintf("%v|%d|%d", g.Rows, g.SupPos, g.SupNeg)
		}
		want := make([]string, len(ce.Rules))
		for i, r := range ce.Rules {
			want[i] = fmt.Sprintf("%v|%d|%d", r.Rows.Ints(), r.SupPos, r.SupNeg)
		}
		sort.Strings(got)
		sort.Strings(want)
		if err := diffKeys(label+": Mine vs ColumnE", got, want); err != nil {
			t.Fatal(err)
		}
		groups += len(got)

		par, err := core.MineParallel(d, 0, opt, 2)
		if err != nil {
			t.Fatalf("%s: parallel: %v", label, err)
		}
		if err := checkSameAsMine(label+": MineParallel", par, res); err != nil {
			t.Fatal(err)
		}

		topk := core.TopKOptions{K: 1 + rng.Intn(8), MinSup: opt.MinSup}
		oracle := wideTopK(d, topk.K, stats.Chi2, opt.MinSup)
		for _, workers := range []int{1, 2} {
			topk.Workers = workers
			res, err := core.TopK(context.Background(), d, 0, topk)
			if err != nil {
				t.Fatalf("%s: top-k workers=%d: %v", label, workers, err)
			}
			if res.Partial {
				t.Fatalf("%s: exhausted top-k workers=%d flagged partial", label, workers)
			}
			if err := diffTopK(fmt.Sprintf("%s: top-k workers=%d", label, workers), res.Groups, oracle); err != nil {
				t.Fatal(err)
			}
		}
	}
	if groups < 30 {
		t.Fatalf("vacuous: %d groups over all cases", groups)
	}
}

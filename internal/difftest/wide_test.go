package difftest

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/columne"
	"repro/internal/core"
	"repro/internal/dataset"
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

// TestWideRowsMatchColumnE checks FARMER's word-parallel row enumeration
// on datasets wider than one row word against ColumnE, which finds the
// same interesting rule groups by enumerating items instead of rows; the
// parallel scheduler must reproduce Mine's groups and Counters, and
// exhausted best-first top-k must return the exact top-k scores.
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
		exact, err := core.TopK(context.Background(), d, 0, topk)
		if err != nil {
			t.Fatalf("%s: top-k: %v", label, err)
		}
		topk.Strategy = core.StrategyBestFirst
		bf, err := core.TopK(context.Background(), d, 0, topk)
		if err != nil {
			t.Fatalf("%s: best-first: %v", label, err)
		}
		if bf.Partial || len(bf.Groups) != len(exact.Groups) {
			t.Fatalf("%s: best-first kept %d groups (partial %v), exact %d", label, len(bf.Groups), bf.Partial, len(exact.Groups))
		}
		// Groups tied at the k-th score may differ between the two
		// admission orders; the ranked scores may not.
		for i := range exact.Groups {
			if e, b := exact.Groups[i].Score, bf.Groups[i].Score; e != b {
				t.Fatalf("%s: top-k rank %d: exact score %v, best-first %v", label, i, e, b)
			}
		}
	}
	if groups < 30 {
		t.Fatalf("vacuous: %d groups over all cases", groups)
	}
}

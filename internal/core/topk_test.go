package core

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/reference"
	"repro/internal/stats"
)

// topKOracle ranks ALL rule groups by the measure and returns the top k
// scores (with the same tie semantics: k best scores, any representatives).
func topKOracleScores(d *dataset.Dataset, consequent, k int, measure Measure, minsup int) []float64 {
	n := len(d.Rows)
	m := d.ClassCount(consequent)
	var scores []float64
	for _, g := range reference.AllRuleGroups(d, consequent) {
		if g.SupPos < minsup {
			continue
		}
		scores = append(scores, measure.value(g.SupPos+g.SupNeg, g.SupPos, n, m))
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
	if len(scores) > k {
		scores = scores[:k]
	}
	return scores
}

// topKGroups runs an unbudgeted TopK and returns its ranked groups.
func topKGroups(d *dataset.Dataset, consequent, k int, measure Measure, minsup int) ([]ScoredGroup, error) {
	res, err := TopK(context.Background(), d, consequent, TopKOptions{K: k, Measure: measure, MinSup: minsup})
	if res == nil {
		return nil, err
	}
	return res.Groups, err
}

func TestMineTopKValidation(t *testing.T) {
	d := dataset.PaperExample()
	if _, err := topKGroups(d, 0, 0, MeasureChi2, 1); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := topKGroups(d, 0, 1, MeasureChi2, 0); err == nil {
		t.Fatal("minsup=0 accepted")
	}
	if _, err := topKGroups(d, 7, 1, MeasureChi2, 1); err == nil {
		t.Fatal("bad consequent accepted")
	}
}

func TestMineTopKPaperExample(t *testing.T) {
	d := dataset.PaperExample()
	for _, measure := range []Measure{MeasureChi2, MeasureEntropyGain, MeasureGiniGain} {
		got, err := topKGroups(d, 0, 3, measure, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := topKOracleScores(d, 0, 3, measure, 1)
		if len(got) != len(want) {
			t.Fatalf("measure %d: %d groups, want %d", measure, len(got), len(want))
		}
		for i := range got {
			if diff := got[i].Score - want[i]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("measure %d rank %d: score %v, want %v", measure, i, got[i].Score, want[i])
			}
		}
		// Best-first ordering.
		for i := 1; i < len(got); i++ {
			if got[i].Score > got[i-1].Score {
				t.Fatalf("measure %d: not best-first at %d", measure, i)
			}
		}
	}
}

func TestMineTopKScoresConsistent(t *testing.T) {
	d := dataset.PaperExample()
	got, err := topKGroups(d, 0, 5, MeasureChi2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range got {
		// The reported antecedent must reproduce the reported stats.
		pos, neg := dataset.SupportCounts(d, g.Antecedent, 0)
		if pos != g.SupPos || neg != g.SupNeg {
			t.Fatalf("group %v stats %d/%d, recomputed %d/%d",
				g.Antecedent, g.SupPos, g.SupNeg, pos, neg)
		}
		want := stats.Chi2(pos+neg, pos, d.NumRows(), d.ClassCount(0))
		if diff := g.Score - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("group %v score %v, want %v", g.Antecedent, g.Score, want)
		}
	}
}

// Property: the top-k scores match the oracle across random datasets,
// measures, and k.
func TestPropertyTopKAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(818283))
	for iter := 0; iter < 200; iter++ {
		d := randomDataset(rng)
		consequent := rng.Intn(2)
		k := 1 + rng.Intn(4)
		minsup := 1 + rng.Intn(2)
		measure := []Measure{MeasureChi2, MeasureEntropyGain, MeasureGiniGain}[rng.Intn(3)]
		got, err := topKGroups(d, consequent, k, measure, minsup)
		if err != nil {
			t.Fatal(err)
		}
		want := topKOracleScores(d, consequent, k, measure, minsup)
		if len(got) != len(want) {
			t.Fatalf("iter %d: %d groups, want %d\nrows %+v", iter, len(got), len(want), d.Rows)
		}
		for i := range got {
			if diff := got[i].Score - want[i]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("iter %d rank %d: %v vs oracle %v (measure %d, k=%d, minsup=%d)\nrows %+v",
					iter, i, got[i].Score, want[i], measure, k, minsup, d.Rows)
			}
		}
	}
}

// The dynamic bound must actually prune on a structured dataset.
func TestTopKBoundPrunes(t *testing.T) {
	spec := struct {
		rows, items int
	}{14, 12}
	rng := rand.New(rand.NewSource(5))
	lists := make([][]dataset.Item, spec.rows)
	classes := make([]int, spec.rows)
	for i := range lists {
		classes[i] = i % 2
		for it := 0; it < spec.items; it++ {
			if rng.Float64() < 0.5 || (classes[i] == 0 && it < 3) {
				lists[i] = append(lists[i], dataset.Item(it))
			}
		}
	}
	d, err := dataset.FromItemLists(lists, classes, spec.items, []string{"C", "N"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := topKGroups(d, 0, 1, MeasureChi2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("%d groups", len(got))
	}
	want := topKOracleScores(d, 0, 1, MeasureChi2, 1)
	if diff := got[0].Score - want[0]; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("best score %v, oracle %v", got[0].Score, want[0])
	}
}

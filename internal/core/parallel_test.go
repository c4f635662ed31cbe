package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/plan"
)

func TestMineParallelMatchesSequentialOnPaperExample(t *testing.T) {
	d := dataset.PaperExample()
	for _, workers := range []int{1, 2, 4, 0} {
		seq := mustMine(t, d, 0, Options{MinSup: 1, ComputeLowerBounds: true})
		par, err := MineParallel(d, 0, Options{MinSup: 1, ComputeLowerBounds: true}, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(coreKeys(seq), coreKeys(par)) {
			t.Fatalf("workers=%d: parallel differs\nseq %v\npar %v",
				workers, coreKeys(seq), coreKeys(par))
		}
		// Lower bounds must also match (set comparison keyed by rows).
		lbOf := func(r *Result) map[string][][]dataset.Item {
			out := map[string][][]dataset.Item{}
			for _, g := range r.Groups {
				out[groupKey(g.Antecedent, g.Rows, g.SupPos, g.SupNeg)] = g.LowerBounds
			}
			return out
		}
		if !reflect.DeepEqual(lbOf(seq), lbOf(par)) {
			t.Fatalf("workers=%d: lower bounds differ", workers)
		}
	}
}

func TestMineParallelValidation(t *testing.T) {
	d := dataset.PaperExample()
	if _, err := MineParallel(d, 0, Options{MinSup: 0}, 2); err == nil {
		t.Fatal("invalid options accepted")
	}
	if _, err := MineParallel(d, 9, Options{MinSup: 1}, 2); err == nil {
		t.Fatal("bad consequent accepted")
	}
}

func TestMineParallelEmptyDataset(t *testing.T) {
	res, err := MineParallel(&dataset.Dataset{ClassNames: []string{"a", "b"}}, 0, Options{MinSup: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 0 {
		t.Fatal("groups from empty dataset")
	}
}

// Property: parallel equals sequential across random datasets, constraint
// settings, and worker counts.
func TestPropertyParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	for iter := 0; iter < 150; iter++ {
		d := randomDataset(rng)
		opt := Options{
			MinSup:  1 + rng.Intn(2),
			MinConf: []float64{0, 0.5, 0.9}[rng.Intn(3)],
			MinChi:  []float64{0, 0.5}[rng.Intn(2)],
		}
		workers := 1 + rng.Intn(4)
		seq := mustMine(t, d, 0, opt)
		par, err := MineParallel(d, 0, opt, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(coreKeys(seq), coreKeys(par)) {
			t.Fatalf("iter %d workers=%d (opt %+v):\nseq %v\npar %v\nrows %+v",
				iter, workers, opt, coreKeys(seq), coreKeys(par), d.Rows)
		}
	}
}

// Output order is deterministic regardless of scheduling.
func TestMineParallelDeterministicOrder(t *testing.T) {
	d := dataset.PaperExample()
	first, err := MineParallel(d, 0, Options{MinSup: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		again, err := MineParallel(d, 0, Options{MinSup: 1}, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(again.Groups) != len(first.Groups) {
			t.Fatal("group count varies")
		}
		for j := range again.Groups {
			if !reflect.DeepEqual(again.Groups[j].Antecedent, first.Groups[j].Antecedent) {
				t.Fatal("group order varies across runs")
			}
		}
	}
}

// Every phase a parallel or merged run goes through is reported: the
// fixpoint's Finish time must survive the copy of the stats into the
// result. (MergePartials does no search of its own, so it reports only
// Setup and Finish.)
func TestParallelAndMergedReportEveryPhase(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var d *dataset.Dataset
	for d == nil || len(mustMine(t, d, 0, Options{MinSup: 1}).Groups) < 3 {
		d = randomDataset(rng)
	}
	opt := Options{MinSup: 1}
	par, err := MineParallel(d, 0, opt, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tm := par.Stats().Timings; tm.Setup <= 0 || tm.Search <= 0 || tm.Finish <= 0 {
		t.Fatalf("MineParallel phases not all reported: %+v", tm)
	}

	ctx := context.Background()
	var partials []*Partial
	for _, p := range plan.Universe(len(d.Rows)).SplitN(2) {
		part, err := MinePartitions(ctx, d, 0, opt, p, 2)
		if err != nil {
			t.Fatal(err)
		}
		partials = append(partials, part)
	}
	merged, err := MergePartials(ctx, d, 0, opt, partials)
	if err != nil {
		t.Fatal(err)
	}
	if tm := merged.Stats().Timings; tm.Setup <= 0 || tm.Finish <= 0 {
		t.Fatalf("MergePartials phases not all reported: %+v", tm)
	}
}

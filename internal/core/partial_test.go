package core

import (
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/plan"
)

// Property: mining any exact cover of the universe partition by partition,
// shipping each Partial through its JSON wire form, and merging yields
// exactly the sequential Mine result — groups AND Counters.
func TestPropertyPartitionedMiningMatchesSingleNode(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	ctx := context.Background()
	for iter := 0; iter < 60; iter++ {
		d := randomDataset(rng)
		opt := Options{
			MinSup:  1 + rng.Intn(2),
			MinConf: []float64{0, 0.5, 0.9}[rng.Intn(3)],
			MinChi:  []float64{0, 0.5}[rng.Intn(2)],
		}
		seq := mustMine(t, d, 0, opt)

		parts := plan.Universe(seq.NumRows).SplitN(1 + rng.Intn(5))
		var partials []*Partial
		for _, p := range parts {
			partial, err := MinePartitions(ctx, d, 0, opt, p, 1+rng.Intn(3))
			if err != nil {
				t.Fatal(err)
			}
			wire, err := json.Marshal(partial)
			if err != nil {
				t.Fatal(err)
			}
			var back Partial
			if err := json.Unmarshal(wire, &back); err != nil {
				t.Fatal(err)
			}
			partials = append(partials, &back)
		}
		// Span tasks visit every node of Mine's tree once, so no group is
		// discovered, and shipped as a candidate, twice.
		seen := bitset.NewDedup()
		for _, p := range partials {
			for _, c := range p.cands {
				if !seen.Add(c.rows) {
					t.Fatalf("iter %d (%d parts): candidate %v shipped twice", iter, len(parts), c.rows.Ints())
				}
			}
		}
		merged, err := MergePartials(ctx, d, 0, opt, partials)
		if err != nil {
			t.Fatal(err)
		}

		if !reflect.DeepEqual(coreKeys(seq), coreKeys(merged)) {
			t.Fatalf("iter %d (%d parts): merged differs\nMine %v\nmerged %v",
				iter, len(parts), coreKeys(seq), coreKeys(merged))
		}
		if sc, mc := seq.Stats().Counters, merged.Stats().Counters; sc != mc {
			t.Fatalf("iter %d (%d parts): counters differ\nMine   %+v\nmerged %+v", iter, len(parts), sc, mc)
		}
	}
}

func TestMinePartitionsValidation(t *testing.T) {
	d := dataset.PaperExample()
	ctx := context.Background()
	if _, err := MinePartitions(ctx, d, 0, Options{MinSup: 0}, plan.Universe(len(d.Rows)), 2); err == nil {
		t.Fatal("invalid options accepted")
	}
	if _, err := MinePartitions(ctx, d, 0, Options{MinSup: 1}, plan.Universe(3), 2); err == nil {
		t.Fatal("foreign-universe partition accepted")
	}
	if _, err := MinePartitions(ctx, d, 0, Options{MinSup: 1}, plan.Partition{N: len(d.Rows), Start: -1, End: 2}, 2); err == nil {
		t.Fatal("invalid partition accepted")
	}
	empty, err := MinePartitions(ctx, d, 0, Options{MinSup: 1}, plan.Partition{N: len(d.Rows)}, 2)
	if err != nil || empty.Count() != 0 {
		t.Fatalf("empty partition: %v, %d cands", err, empty.Count())
	}

	p, err := MinePartitions(ctx, d, 0, Options{MinSup: 1}, plan.Universe(len(d.Rows)), 2)
	if err != nil {
		t.Fatal(err)
	}
	p.NumRows++ // simulate a worker that resolved a different view
	if _, err := MergePartials(ctx, d, 0, Options{MinSup: 1}, []*Partial{p}); err == nil {
		t.Fatal("mismatched partial view accepted")
	}
}

func TestPartialUnmarshalRejectsCorruptWire(t *testing.T) {
	for _, raw := range []string{
		`{"num_rows":-1,"num_pos":0}`,
		`{"num_rows":2,"num_pos":3}`,
		`{"num_rows":4,"num_pos":2,"cands":[{"rows":[9],"sup_pos":1,"tot":1,"items":[1]}]}`,
		`{"num_rows":4,"num_pos":2,"cands":[{"rows":[0,1],"sup_pos":3,"tot":2,"items":[1]}]}`,
		`{"num_rows":4,"num_pos":2,"rejected":[[-1]]}`,
	} {
		var p Partial
		if err := json.Unmarshal([]byte(raw), &p); err == nil {
			t.Fatalf("corrupt wire accepted: %s", raw)
		}
	}
}

package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/difftest"
)

// The FARMER miner must agree with the brute-force oracles on the shared
// edge-case fixtures: full Mine ≡ MineParallel ≡ IRG-oracle equivalence
// (with lower bounds), MineLowerBounds against the minimal-generator
// oracle, and TopK against the rescan oracle. These are the datasets
// random generation hits only rarely — empty, single-row, one-class,
// duplicate rows, a universal column.
func TestEdgeFixturesAgainstOracle(t *testing.T) {
	for _, f := range difftest.Fixtures() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			c := f.Case()
			if err := difftest.CheckMineEquivalence(c); err != nil {
				t.Fatal(err)
			}
			if err := difftest.CheckMineLB(c); err != nil {
				t.Fatal(err)
			}
			if err := difftest.CheckTopK(c, 3); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Degenerate inputs must fail soft, not panic: an empty dataset mines no
// groups, and a MinSup above the row count filters everything.
func TestEdgeDegenerateInputs(t *testing.T) {
	for _, f := range difftest.Fixtures() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			res, err := core.Mine(f.D, f.Consequent, core.Options{MinSup: len(f.D.Rows) + 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Groups) != 0 {
				t.Fatalf("MinSup=%d kept %d groups", len(f.D.Rows)+1, len(res.Groups))
			}
		})
	}
}

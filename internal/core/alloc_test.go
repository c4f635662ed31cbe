package core

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// Steady-state node expansion must be allocation-free: after one run has
// grown the arena to its high-water size and populated the group store, a
// second traversal of the same tree re-discovers every group (maybeEmit's
// equal-row-set check returns early) and pushes every per-node buffer —
// candidate lists, count arrays, child conditional tables — onto the
// warmed arena. Any make() left on the mineNode hot path shows up here.
func TestMineNodeSteadyStateZeroAllocs(t *testing.T) {
	datasets := map[string]*dataset.Dataset{
		"paper":  dataset.PaperExample(),
		"random": randomDataset(rand.New(rand.NewSource(7))),
	}
	for name, d := range datasets {
		t.Run(name, func(t *testing.T) {
			ordered, ord := dataset.OrderForConsequent(d, 0)
			m := newMiner(ordered, ord.NumPositive, Options{MinSup: 1}, engine.NewExec(nil), nil)
			if err := m.run(); err != nil {
				t.Fatal(err)
			}
			if len(m.groups) == 0 {
				t.Fatal("warm run found no groups; test would be vacuous")
			}
			n := testing.AllocsPerRun(5, func() {
				if err := m.run(); err != nil {
					t.Fatal(err)
				}
			})
			if n != 0 {
				t.Fatalf("steady-state run allocates %v times, want 0", n)
			}
		})
	}
}

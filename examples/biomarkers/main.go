// Biomarker discovery report: mine the statistically strongest rule groups
// with branch-and-bound (RunTopK) and render them as gene-level conditions
// a biologist can read (ExplainGroup) — the interpretability argument of
// the paper's introduction, end to end.
//
//	go run ./examples/biomarkers
package main

import (
	"context"
	"fmt"
	"log"

	farmer "repro"
)

func main() {
	// A synthetic leukemia-style cohort.
	spec := farmer.SynthSpec{
		Name: "leukemia", Rows: 60, Cols: 300, Class1Rows: 32,
		ClassNames:  [2]string{"ALL", "AML"},
		Informative: 18, Effect: 2.3, FlipProb: 0.08,
		Modules: 5, ModuleSize: 8, Seed: 99,
	}
	m, err := spec.Generate()
	if err != nil {
		log.Fatal(err)
	}

	// Entropy-MDL discretization doubles as gene filtering.
	disc, err := farmer.EntropyMDL(m)
	if err != nil {
		log.Fatal(err)
	}
	d, err := disc.Apply(m)
	if err != nil {
		log.Fatal(err)
	}
	kept := 0
	for c := 0; c < m.NumCols(); c++ {
		if disc.Kept(c) {
			kept++
		}
	}
	fmt.Printf("cohort %d×%d; entropy-MDL kept %d genes\n\n", m.NumRows(), m.NumCols(), kept)

	for class := 0; class < 2; class++ {
		label := m.ClassNames[class]
		fmt.Printf("=== top biomarker panels for %s (by chi-square) ===\n", label)

		// Branch-and-bound top-k: no support/confidence hand-tuning needed
		// beyond a sanity minimum.
		top, err := farmer.RunTopK(context.Background(), d, class,
			farmer.TopKOptions{K: 3, Measure: farmer.MeasureChi2, MinSup: 5})
		if err != nil {
			log.Fatal(err)
		}
		for rank, sg := range top.Groups {
			// Recover the group's lower bounds for the "already implied by"
			// panels, then explain in gene-expression terms.
			g := sg.RuleGroup
			g.LowerBounds, _ = farmer.LowerBounds(d, g.Antecedent, 8)
			e := farmer.ExplainGroup(d, disc, &g, label)
			fmt.Printf("#%d (chi=%.1f)\n%s\n", rank+1, sg.Score, e.String())
		}
	}

	// The same cohort mined exhaustively for IRGs, in parallel.
	res, err := farmer.RunFARMER(context.Background(), d, 0, farmer.MineOptions{
		MinSup: 8, MinConf: 0.9, Workers: -1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exhaustive IRG mining at minsup=8, minconf=0.9: %d groups (%d nodes searched)\n",
		len(res.Groups), res.Stats().NodesVisited)
}

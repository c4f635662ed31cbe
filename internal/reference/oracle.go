package reference

import (
	"sort"

	"repro/internal/dataset"
)

// GroupWithLB pairs one rule group with its brute-force lower bounds
// (minimal generators). It is the whole-dataset MineLB oracle: everything
// core.Mine with ComputeLowerBounds reports must match one entry here.
type GroupWithLB struct {
	Group       RuleGroup
	LowerBounds [][]dataset.Item
}

// MineLB enumerates every rule group of d (see AllRuleGroups) together with
// its lower bounds by subset exhaustion. Groups whose antecedent exceeds
// maxAnt items are skipped (their exhaustion is exponential in |A|); pass
// maxAnt ≤ 0 for the LowerBounds default cap of 20.
func MineLB(d *dataset.Dataset, consequent, maxAnt int) []GroupWithLB {
	if maxAnt <= 0 || maxAnt > 20 {
		maxAnt = 20
	}
	var out []GroupWithLB
	for _, g := range AllRuleGroups(d, consequent) {
		if len(g.Antecedent) > maxAnt {
			continue
		}
		out = append(out, GroupWithLB{Group: g, LowerBounds: LowerBounds(d, g.Antecedent)})
	}
	return out
}

// Scored is one rule group with its objective value under a top-k measure.
type Scored struct {
	Group RuleGroup
	Score float64
}

// TopK is the brute-force oracle for core.TopK: it scores EVERY rule
// group with support ≥ minsup using the measure (the same (x, y, n, m)
// contingency signature as internal/stats) and returns the k best, ordered
// like core.TopK: descending score, then descending rule support, then
// lexicographic antecedent.
func TopK(d *dataset.Dataset, consequent, k int, measure func(x, y, n, m int) float64, minsup int) []Scored {
	n := len(d.Rows)
	m := d.ClassCount(consequent)
	var scored []Scored
	for _, g := range AllRuleGroups(d, consequent) {
		if g.SupPos < minsup {
			continue
		}
		scored = append(scored, Scored{Group: g, Score: measure(g.SupPos+g.SupNeg, g.SupPos, n, m)})
	}
	sort.SliceStable(scored, func(i, j int) bool {
		if scored[i].Score != scored[j].Score {
			return scored[i].Score > scored[j].Score
		}
		if scored[i].Group.SupPos != scored[j].Group.SupPos {
			return scored[i].Group.SupPos > scored[j].Group.SupPos
		}
		return lessItems(scored[i].Group.Antecedent, scored[j].Group.Antecedent)
	})
	if len(scored) > k {
		scored = scored[:k]
	}
	return scored
}

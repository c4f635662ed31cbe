// Package difftest is the differential correctness harness: it generates
// small random datasets, runs every miner in the repository over them, and
// cross-checks the results against each other and against the exhaustive
// oracles in internal/reference. Failures shrink to a minimal reproducer
// that can be committed to the fuzz corpus (see Encode).
//
// Three equivalence classes are asserted:
//
//	(a) core.Mine ≡ core.MineParallel ≡ reference.IRGsConstrained
//	    on rule-group row-support sets, confidences and chi values;
//	(b) charm ≡ closet ≡ columne, anchored on the closed-set lattice of
//	    reference.ClosedSets;
//	(c) carpenter ≡ reference.ClosedSets (with row sets).
//
// plus the MineLB and top-k oracles, the anytime tier's determinism
// contract (quality.go), the streaming contract of core.MineStream
// (batch-identical delivery and cancelled-prefix, streaming.go) and four
// metamorphic invariants (metamorphic.go). quality.go also houses the
// quality harness grading the approximate top-k strategies against the
// exact miner (recall and score-regret as a function of budget — the
// BENCH_quality.json report).
package difftest

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/carpenter"
	"repro/internal/charm"
	"repro/internal/closet"
	"repro/internal/columne"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/plan"
	"repro/internal/reference"
	"repro/internal/stats"
)

// groupKey is the canonical identity of a rule group for set comparison:
// antecedent, row-support set, and the support split (which fixes the
// confidence as an exact rational).
func groupKey(ant []dataset.Item, rows []int, supPos, supNeg int) string {
	return fmt.Sprintf("%v|%v|%d|%d", ant, rows, supPos, supNeg)
}

func coreGroupKeys(res *core.Result) []string {
	keys := make([]string, 0, len(res.Groups))
	for _, g := range res.Groups {
		keys = append(keys, groupKey(g.Antecedent, g.Rows, g.SupPos, g.SupNeg))
	}
	sort.Strings(keys)
	return keys
}

func refGroupKeys(groups []reference.RuleGroup) []string {
	keys := make([]string, 0, len(groups))
	for _, g := range groups {
		keys = append(keys, groupKey(g.Antecedent, g.Rows, g.SupPos, g.SupNeg))
	}
	sort.Strings(keys)
	return keys
}

func diffKeys(label string, got, want []string) error {
	if len(got) == len(want) {
		same := true
		for i := range got {
			if got[i] != want[i] {
				same = false
				break
			}
		}
		if same {
			return nil
		}
	}
	return fmt.Errorf("%s:\n got  %s\n want %s", label, strings.Join(got, " ; "), strings.Join(want, " ; "))
}

// CheckMineEquivalence asserts equivalence class (a): sequential FARMER,
// parallel FARMER and the brute-force IRG oracle agree on the exact set of
// interesting rule groups — row-support sets, support splits, confidences
// and chi values — and, when lower bounds are requested, on every group's
// minimal generators.
func CheckMineEquivalence(c Case) error {
	seq, err := core.Mine(c.D, c.Consequent, c.Opt)
	if err != nil {
		return fmt.Errorf("core.Mine: %w", err)
	}
	par, err := core.MineParallel(c.D, c.Consequent, c.Opt, c.Workers)
	if err != nil {
		return fmt.Errorf("core.MineParallel: %w", err)
	}
	ref := reference.IRGsConstrained(c.D, c.Consequent, reference.Constraints{
		MinSup:         c.Opt.MinSup,
		MinConf:        c.Opt.MinConf,
		MinChi:         c.Opt.MinChi,
		MinLift:        c.Opt.MinLift,
		MinConviction:  c.Opt.MinConviction,
		MinEntropyGain: c.Opt.MinEntropyGain,
		MinGiniGain:    c.Opt.MinGiniGain,
	})
	if err := diffKeys("Mine vs oracle", coreGroupKeys(seq), refGroupKeys(ref)); err != nil {
		return err
	}
	if err := diffKeys(fmt.Sprintf("MineParallel(workers=%d) vs Mine", c.Workers),
		coreGroupKeys(par), coreGroupKeys(seq)); err != nil {
		return err
	}

	// The scheduler's span tasks replay each root exactly as Mine opens
	// it, so the union of tasks is Mine's enumeration tree: every counter
	// matches the sequential run, whatever the worker count or partition
	// cover. (Only asserted without ablation switches — disabling pruning
	// 2 allows duplicate discoveries whose rejection accounting is
	// legitimately path-dependent.)
	if !c.Opt.DisablePruning1 && !c.Opt.DisablePruning2 && !c.Opt.DisablePruning3 {
		if err := checkSameAsMine(fmt.Sprintf("MineParallel(workers=%d)", c.Workers), par, seq); err != nil {
			return err
		}
		for w := 1; w <= 3; w++ {
			if w == c.Workers {
				continue
			}
			other, err := core.MineParallel(c.D, c.Consequent, c.Opt, w)
			if err != nil {
				return fmt.Errorf("core.MineParallel(workers=%d): %w", w, err)
			}
			if err := checkSameAsMine(fmt.Sprintf("MineParallel(workers=%d)", w), other, seq); err != nil {
				return err
			}
		}
		for k := 1; k <= 3; k++ {
			merged, err := minePartitioned(c, k)
			if err != nil {
				return err
			}
			if err := checkSameAsMine(fmt.Sprintf("MergePartials(SplitN(%d))", k), merged, seq); err != nil {
				return err
			}
		}
	}

	// Confidence and chi must match the oracle exactly: all three compute
	// them from identical integer margins through the same stats routines.
	refByRows := make(map[string]reference.RuleGroup, len(ref))
	for _, g := range ref {
		refByRows[fmt.Sprint(g.Rows)] = g
	}
	for _, res := range []*core.Result{seq, par} {
		for _, g := range res.Groups {
			want, ok := refByRows[fmt.Sprint(g.Rows)]
			if !ok {
				return fmt.Errorf("group %v rows %v missing from oracle", g.Antecedent, g.Rows)
			}
			if g.Confidence != want.Confidence {
				return fmt.Errorf("group %v confidence %v, oracle %v", g.Antecedent, g.Confidence, want.Confidence)
			}
			if g.Chi != want.Chi {
				return fmt.Errorf("group %v chi %v, oracle %v", g.Antecedent, g.Chi, want.Chi)
			}
		}
	}

	if c.Opt.ComputeLowerBounds {
		for _, res := range []*core.Result{seq, par} {
			for _, g := range res.Groups {
				if g.Truncated {
					continue
				}
				want := reference.LowerBounds(c.D, g.Antecedent)
				if err := diffKeys(fmt.Sprintf("lower bounds of %v", g.Antecedent),
					itemSliceKeys(g.LowerBounds), itemSliceKeys(want)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// checkSameAsMine asserts that a partitioned run returned Mine's groups
// with byte-identical Counters.
func checkSameAsMine(label string, got, seq *core.Result) error {
	if err := diffKeys(label+" vs Mine", coreGroupKeys(got), coreGroupKeys(seq)); err != nil {
		return err
	}
	if got.Stats().Counters != seq.Stats().Counters {
		return fmt.Errorf("%s counters differ from Mine:\n got  %+v\n want %+v",
			label, got.Stats().Counters, seq.Stats().Counters)
	}
	return nil
}

// minePartitioned mines c over the k-way SplitN cover of its task universe
// with MinePartitions and merges the partials.
func minePartitioned(c Case, k int) (*core.Result, error) {
	ctx := context.Background()
	var partials []*core.Partial
	for _, p := range plan.Universe(len(c.D.Rows)).SplitN(k) {
		part, err := core.MinePartitions(ctx, c.D, c.Consequent, c.Opt, p, c.Workers)
		if err != nil {
			return nil, fmt.Errorf("core.MinePartitions(%+v): %w", p, err)
		}
		partials = append(partials, part)
	}
	res, err := core.MergePartials(ctx, c.D, c.Consequent, c.Opt, partials)
	if err != nil {
		return nil, fmt.Errorf("core.MergePartials: %w", err)
	}
	return res, nil
}

func itemSliceKeys(sets [][]dataset.Item) []string {
	keys := make([]string, len(sets))
	for i, s := range sets {
		keys[i] = fmt.Sprint(s)
	}
	sort.Strings(keys)
	return keys
}

// closedKey identifies a closed set by items and support.
func closedKey(items []dataset.Item, sup int) string {
	return fmt.Sprintf("%v|%d", items, sup)
}

// CheckClosedSetEquivalence asserts equivalence class (b): CHARM and CLOSET
// produce the closed-set lattice of the brute-force oracle, and every
// ColumnE rule lands on that lattice — its antecedent's closure is a mined
// closed set with the same row set — while ColumnE's rule-group SET matches
// the IRG oracle under the same constraints.
func CheckClosedSetEquivalence(c Case) error {
	refItems, refSups := reference.ClosedSets(c.D, c.MinSupCS)
	want := make([]string, len(refItems))
	latticeByRows := make(map[string][]dataset.Item, len(refItems))
	for i := range refItems {
		want[i] = closedKey(refItems[i], refSups[i])
	}
	sort.Strings(want)

	ch, err := charm.Mine(c.D, charm.Options{MinSup: c.MinSupCS})
	if err != nil {
		return fmt.Errorf("charm.Mine: %w", err)
	}
	got := make([]string, len(ch.Closed))
	for i, cs := range ch.Closed {
		got[i] = closedKey(cs.Items, cs.Support)
		if !dataset.SupportSet(c.D, cs.Items).Equal(cs.Rows) {
			return fmt.Errorf("charm closed set %v tidset disagrees with R(items)", cs.Items)
		}
		latticeByRows[fmt.Sprint(cs.Rows.Ints())] = cs.Items
	}
	sort.Strings(got)
	if err := diffKeys("CHARM vs oracle closed sets", got, want); err != nil {
		return err
	}

	cl, err := closet.Mine(c.D, closet.Options{MinSup: c.MinSupCS})
	if err != nil {
		return fmt.Errorf("closet.Mine: %w", err)
	}
	got = got[:0]
	for _, cs := range cl.Closed {
		got = append(got, closedKey(cs.Items, cs.Support))
	}
	sort.Strings(got)
	if err := diffKeys("CLOSET vs CHARM closed sets", got, want); err != nil {
		return err
	}

	// ColumnE: rule groups against the IRG oracle, representatives against
	// the lattice. ColumnE prunes on positive support, so MinSupCS (a
	// class-blind row support) does not apply; use the case's rule MinSup.
	ce, err := columne.Mine(c.D, c.Consequent, columne.Options{
		MinSup:  c.Opt.MinSup,
		MinConf: c.Opt.MinConf,
		MinChi:  c.Opt.MinChi,
	})
	if err != nil {
		return fmt.Errorf("columne.Mine: %w", err)
	}
	irgs := reference.IRGs(c.D, c.Consequent, c.Opt.MinSup, c.Opt.MinConf, c.Opt.MinChi)
	ceKeys := make([]string, len(ce.Rules))
	for i, r := range ce.Rules {
		ceKeys[i] = fmt.Sprintf("%v|%d|%d", r.Rows.Ints(), r.SupPos, r.SupNeg)
	}
	irgKeys := make([]string, len(irgs))
	for i, g := range irgs {
		irgKeys[i] = fmt.Sprintf("%v|%d|%d", g.Rows, g.SupPos, g.SupNeg)
	}
	sort.Strings(ceKeys)
	sort.Strings(irgKeys)
	if err := diffKeys("ColumnE rule groups vs IRG oracle", ceKeys, irgKeys); err != nil {
		return err
	}
	for _, r := range ce.Rules {
		closure := dataset.Closure(c.D, r.Antecedent)
		onLattice, ok := latticeByRows[fmt.Sprint(r.Rows.Ints())]
		if r.Rows.Count() >= c.MinSupCS {
			if !ok {
				return fmt.Errorf("ColumnE rule %v: row set %v missing from closed-set lattice",
					r.Antecedent, r.Rows.Ints())
			}
			if closedKey(closure, r.Rows.Count()) != closedKey(onLattice, r.Rows.Count()) {
				return fmt.Errorf("ColumnE rule %v: closure %v != lattice closed set %v",
					r.Antecedent, closure, onLattice)
			}
		}
	}
	return nil
}

// CheckCarpenterEquivalence asserts equivalence class (c): CARPENTER mines
// exactly the oracle's closed-set lattice, with correct row sets.
func CheckCarpenterEquivalence(c Case) error {
	refItems, refSups := reference.ClosedSets(c.D, c.MinSupCS)
	want := make([]string, len(refItems))
	for i := range refItems {
		want[i] = closedKey(refItems[i], refSups[i])
	}
	sort.Strings(want)

	cp, err := carpenter.Mine(c.D, carpenter.Options{MinSup: c.MinSupCS})
	if err != nil {
		return fmt.Errorf("carpenter.Mine: %w", err)
	}
	got := make([]string, len(cp.Patterns))
	for i, p := range cp.Patterns {
		got[i] = closedKey(p.Items, p.Support)
		if rows := dataset.SupportSet(c.D, p.Items).Ints(); fmt.Sprint(rows) != fmt.Sprint(p.Rows) {
			return fmt.Errorf("carpenter pattern %v rows %v != R(items) %v", p.Items, p.Rows, rows)
		}
	}
	sort.Strings(got)
	return diffKeys("CARPENTER vs oracle closed sets", got, want)
}

// maxLBAntecedent caps the antecedent size fed to the subset-exhaustive
// lower-bound oracle (2^|A| masks per group).
const maxLBAntecedent = 10

// CheckMineLB asserts that core.MineLowerBounds reproduces the brute-force
// minimal generators of every rule group of the dataset (the MineLB oracle).
func CheckMineLB(c Case) error {
	for _, gl := range reference.MineLB(c.D, c.Consequent, maxLBAntecedent) {
		a := gl.Group.Antecedent
		got, truncated := core.MineLowerBounds(c.D, a, dataset.SupportSet(c.D, a), 0)
		if truncated {
			return fmt.Errorf("MineLowerBounds(%v) truncated without a cap", a)
		}
		if err := diffKeys(fmt.Sprintf("MineLB of group %v", a),
			itemSliceKeys(got), itemSliceKeys(gl.LowerBounds)); err != nil {
			return err
		}
	}
	return nil
}

// topKMeasures pairs each core measure with its stats function, in the
// (x, y, n, m) contingency signature shared by core and reference.
var topKMeasures = []struct {
	Name    string
	Measure core.Measure
	Fn      func(x, y, n, m int) float64
}{
	{"chi2", core.MeasureChi2, stats.Chi2},
	{"entropy", core.MeasureEntropyGain, stats.EntropyGain},
	{"gini", core.MeasureGiniGain, stats.GiniGain},
}

// CheckTopK asserts that core.TopK returns exactly the oracle's top k for
// every measure: at every rank the same score, antecedent, supports and
// rows. Both rank under one total order — score, then support, then
// lexicographic antecedent — so a tie at the k-th score leaves no choice
// of representative.
func CheckTopK(c Case, k int) error {
	for _, m := range topKMeasures {
		res, err := core.TopK(context.Background(), c.D, c.Consequent, core.TopKOptions{
			K: k, Measure: m.Measure, MinSup: c.Opt.MinSup,
		})
		if err != nil {
			return fmt.Errorf("TopK(%s): %w", m.Name, err)
		}
		want := reference.TopK(c.D, c.Consequent, k, m.Fn, c.Opt.MinSup)
		if err := diffTopK("TopK("+m.Name+")", res.Groups, want); err != nil {
			return err
		}
	}
	return nil
}

// diffTopK compares a ranked top-k answer with the oracle's, rank by rank.
func diffTopK(label string, got []core.ScoredGroup, want []reference.Scored) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d groups, oracle %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := &got[i], &want[i]
		if g.Score != w.Score || g.SupPos != w.Group.SupPos || g.SupNeg != w.Group.SupNeg ||
			!slices.Equal(g.Antecedent, w.Group.Antecedent) || !slices.Equal(g.Rows, w.Group.Rows) {
			return fmt.Errorf("%s rank %d: %v rows %v sup %d/%d score %v, oracle %v rows %v sup %d/%d score %v",
				label, i, g.Antecedent, g.Rows, g.SupPos, g.SupNeg, g.Score,
				w.Group.Antecedent, w.Group.Rows, w.Group.SupPos, w.Group.SupNeg, w.Score)
		}
	}
	return nil
}

// CheckAll runs every equivalence class and metamorphic invariant over one
// case, returning the first failure.
func CheckAll(c Case) error {
	checks := []struct {
		name string
		fn   func() error
	}{
		{"mine-equivalence", func() error { return CheckMineEquivalence(c) }},
		{"streaming-equivalence", func() error { return CheckStreamingEquivalence(c) }},
		{"cancelled-prefix", func() error { return CheckCancelledPrefix(c) }},
		{"closed-set-equivalence", func() error { return CheckClosedSetEquivalence(c) }},
		{"carpenter-equivalence", func() error { return CheckCarpenterEquivalence(c) }},
		{"minelb-oracle", func() error { return CheckMineLB(c) }},
		{"topk-oracle", func() error { return CheckTopK(c, 3) }},
		{"anytime-determinism", func() error { return CheckAnytimeDeterminism(c, 3) }},
		{"row-permutation", func() error { return CheckRowPermutationInvariance(c) }},
		{"ord-reordering", func() error { return CheckORDReorderInvariance(c) }},
		{"replication-scaling", func() error { return CheckReplicationScaling(c, 2) }},
		{"item-relabeling", func() error { return CheckItemRelabelInvariance(c) }},
	}
	for _, chk := range checks {
		if err := chk.fn(); err != nil {
			return fmt.Errorf("%s: %w", chk.name, err)
		}
	}
	return nil
}

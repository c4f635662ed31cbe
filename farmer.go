package farmer

import (
	"context"

	"repro/internal/core"
	"repro/internal/dataset"
)

// Core data model, re-exported from the implementation packages so that
// callers only ever import this package.
type (
	// Item identifies a column value (a discretized gene level).
	Item = dataset.Item
	// Row is one sample: a sorted item set plus a class label.
	Row = dataset.Row
	// Dataset is an in-memory categorical table.
	Dataset = dataset.Dataset
	// Matrix is a continuous gene-expression matrix with class labels.
	Matrix = dataset.Matrix

	// MineOptions configures RunFARMER; see the field documentation on
	// core.Options (MinSup, MinConf, MinChi, ComputeLowerBounds,
	// MaxLowerBounds, Workers, OnGroup, and the ablation switches).
	MineOptions = core.Options
	// MineResult is RunFARMER's outcome: the rule groups plus search
	// statistics.
	MineResult = core.Result
	// RuleGroup is one interesting rule group: upper bound, optional lower
	// bounds, supporting rows, support, confidence and chi-square value.
	RuleGroup = core.RuleGroup
	// MineStats records search effort and pruning effectiveness.
	MineStats = core.Stats

	// Measure selects the objective of RunTopK (chi-square, entropy gain,
	// or gini gain — all convex, so branch-and-bound applies).
	Measure = core.Measure
	// ScoredGroup is a rule group with its objective value.
	ScoredGroup = core.ScoredGroup
)

// Objectives for RunTopK.
const (
	// MeasureChi2 ranks groups by the 2×2 chi-square statistic.
	MeasureChi2 = core.MeasureChi2
	// MeasureEntropyGain ranks groups by information gain.
	MeasureEntropyGain = core.MeasureEntropyGain
	// MeasureGiniGain ranks groups by Gini-impurity reduction.
	MeasureGiniGain = core.MeasureGiniGain
)

// LowerBounds computes the lower bounds (minimal generators) of an
// antecedent over d: the minimal itemsets L ⊆ antecedent with
// R(L) = R(antecedent). maxLB > 0 caps the expansion; the boolean reports
// truncation. This is the MineLB subroutine (Figure 9 of the paper),
// exposed for callers who obtained an upper bound elsewhere.
func LowerBounds(d *Dataset, antecedent []Item, maxLB int) ([][]Item, bool) {
	rows := dataset.SupportSet(d, antecedent)
	return core.MineLowerBounds(d, antecedent, rows, maxLB)
}

// LowerBoundsContext is LowerBounds under a context; on cancellation it
// returns nil bounds and ctx.Err() (a partial generator set is not
// meaningful).
func LowerBoundsContext(ctx context.Context, d *Dataset, antecedent []Item, maxLB int) ([][]Item, bool, error) {
	rows := dataset.SupportSet(d, antecedent)
	return core.MineLowerBoundsContext(ctx, d, antecedent, rows, maxLB)
}

// SupportSet returns R(items): the ids of rows containing every item.
func SupportSet(d *Dataset, items []Item) []int {
	return dataset.SupportSet(d, items).Ints()
}

// CommonItems returns I(rows): the largest itemset shared by all the rows.
func CommonItems(d *Dataset, rows []int) []Item {
	return dataset.CommonItems(d, rows)
}

// Closure returns the closed itemset of items in d: I(R(items)).
func Closure(d *Dataset, items []Item) []Item {
	return dataset.Closure(d, items)
}

// Replicate returns d with its rows repeated k times (k ≥ 1) — the §4.1
// scale-up workload.
func Replicate(d *Dataset, k int) *Dataset {
	return dataset.Replicate(d, k)
}

// DatasetSummary holds the descriptive statistics of a categorical dataset
// that determine mining difficulty (class balance, row lengths, item
// support distribution, density).
type DatasetSummary = dataset.Summary

// Describe computes the summary statistics of d.
func Describe(d *Dataset) *DatasetSummary {
	return dataset.Describe(d)
}

package farmer

import (
	"context"
	"fmt"

	"repro/internal/carpenter"
	"repro/internal/charm"
	"repro/internal/closet"
	"repro/internal/cobbler"
	"repro/internal/columne"
	"repro/internal/core"
	"repro/internal/engine"
)

// This file is the mining API: one Run* entry point per miner, context
// first, with an options struct whose optional Workers / OnX callback
// fields select parallel execution and streaming emission.

// MinerResult is the common face of every miner's result type: run
// statistics plus the size of the materialized batch. All seven result
// types (MineResult, TopKResult, CharmResult, ClosetResult, ColumnEResult,
// CarpenterResult, CobblerResult) satisfy it, so callers that juggle
// several miners — the farmerd job manager, for one — can handle them
// uniformly.
type MinerResult = engine.MinerResult

// Every result type satisfies MinerResult; keep this list in sync with the
// miners.
var (
	_ MinerResult = (*MineResult)(nil)
	_ MinerResult = (*TopKResult)(nil)
	_ MinerResult = (*CharmResult)(nil)
	_ MinerResult = (*ClosetResult)(nil)
	_ MinerResult = (*ColumnEResult)(nil)
	_ MinerResult = (*CarpenterResult)(nil)
	_ MinerResult = (*CobblerResult)(nil)
)

type (
	// TopKOptions configures RunTopK (K, Measure, MinSup), plus the
	// anytime knobs: Strategy, MaxMillis/MaxNodes budgets, Delta for the
	// leap pruner, Seed for the sampler, and Workers for parallel
	// frontier expansion.
	TopKOptions = core.TopKOptions
	// TopKResult is RunTopK's outcome: the ranked groups, best first, plus
	// search statistics. Budgeted runs mark Partial and certify Gap.
	TopKResult = core.TopKResult
	// Strategy selects RunTopK's search strategy: best-first (the
	// default, exact when unbudgeted), relaxed leap pruning, or
	// random-walk sampling.
	Strategy = core.Strategy
)

// The top-k search strategies.
const (
	// StrategyExact is the zero value: the best-first search below under
	// its default name.
	StrategyExact = core.StrategyExact
	// StrategyBestFirst expands nodes in descending bound order, keeping
	// a valid top-k at every instant; budget stops certify an optimality
	// gap. Unbudgeted, it is exhaustive and exact.
	StrategyBestFirst = core.StrategyBestFirst
	// StrategyLeap prunes subtrees whose bound cannot improve the k-th
	// score by more than a (1+Delta) factor, certifying the relaxation as
	// the gap.
	StrategyLeap = core.StrategyLeap
	// StrategySample random-walks the row lattice under a node budget; no
	// certificate, deterministic per Seed.
	StrategySample = core.StrategySample
)

// ErrBudgetExceeded is the engine's budget-stop marker. RunTopK handles it
// internally (a budget stop is a successful partial answer, not an error);
// it is exported for callers that drive miners through the engine directly.
var ErrBudgetExceeded = engine.ErrBudgetExceeded

// ParseStrategy maps a canonical strategy name ("exact", "best_first",
// "leap", "sample") to its Strategy; the empty string parses as exact.
func ParseStrategy(name string) (Strategy, error) { return core.ParseStrategy(name) }

// ParseMeasure maps a canonical measure name ("chi2", "entropy", "gini")
// to its Measure; the empty string parses as chi2.
func ParseMeasure(name string) (Measure, error) { return core.ParseMeasure(name) }

// RunFARMER mines the interesting rule groups of d predicting the given
// consequent class that satisfy the options' constraints. See Definition
// 2.2 of the paper: a rule group is interesting iff every strictly more
// general group it contains has strictly lower confidence. Cancellation or
// deadline expiry of ctx stops the search within one node expansion and
// returns ctx.Err() together with a partial result.
//
// opt.Workers selects the execution mode: 0 runs the sequential miner; a
// positive value runs the work-stealing parallel scheduler with exactly
// that many workers; a negative value is the auto mode — GOMAXPROCS
// workers, except that inputs below ParallelFallbackRows rows run the
// sequential miner instead (at bench scale the scheduler's setup and
// merge overhead loses to the sequential miner on several datasets — see the
// README performance notes; the mined groups are identical either way). A
// cancelled parallel run reports no groups (the interestingness fixpoint
// is not sound on a partial candidate set), only merged statistics.
//
// opt.OnGroup switches to streaming emission: each interesting rule group
// is delivered as soon as it is accepted, in the same order the batch
// sequential run reports it, and the result carries statistics only. A callback error
// aborts the run and is returned verbatim. Streaming is sequential;
// combining OnGroup with Workers != 0 is an error.
func RunFARMER(ctx context.Context, d *Dataset, consequent int, opt MineOptions) (*MineResult, error) {
	switch {
	case opt.OnGroup != nil:
		if opt.Workers != 0 {
			return nil, fmt.Errorf("farmer: OnGroup streaming is sequential; Workers must be 0, got %d", opt.Workers)
		}
		return core.MineStream(ctx, d, consequent, opt, opt.OnGroup)
	case opt.Workers != 0:
		if opt.Workers < 0 && len(d.Rows) < ParallelFallbackRows {
			return core.MineContext(ctx, d, consequent, opt)
		}
		return core.MineParallelContext(ctx, d, consequent, opt, opt.Workers)
	default:
		return core.MineContext(ctx, d, consequent, opt)
	}
}

// RunTopK returns the opt.K rule groups maximizing opt.Measure (subject to
// opt.MinSup) by branch-and-bound over the row enumeration tree with the
// Morishita–Sese convex bound. Unlike RunFARMER it ranks all rule groups,
// not just the interesting ones. On cancellation it returns the best
// groups found so far together with ctx.Err().
//
// The search expands nodes in descending bound order on opt.Workers
// frontier expanders; unbudgeted, the answer is exact and the same for
// every worker count. Setting opt.MaxMillis or opt.MaxNodes makes it an
// anytime run: it stops within one node expansion of the budget and
// returns the best-so-far answer with Partial set and a certified
// optimality Gap — no error, since a budget stop is the anytime contract
// working as intended. opt.Strategy selects the relaxed leap pruner or the
// sampler instead.
func RunTopK(ctx context.Context, d *Dataset, consequent int, opt TopKOptions) (*TopKResult, error) {
	return core.TopK(ctx, d, consequent, opt)
}

// RunCHARM mines all closed itemsets of d with the CHARM algorithm (Zaki &
// Hsiao, SDM 2002). Cancellation stops the search within one node
// expansion and returns ctx.Err() with the partial result.
// opt.OnClosed switches to streaming emission in discovery order.
func RunCHARM(ctx context.Context, d *Dataset, opt CharmOptions) (*CharmResult, error) {
	if opt.OnClosed != nil {
		return charm.MineStream(ctx, d, opt, opt.OnClosed)
	}
	return charm.MineContext(ctx, d, opt)
}

// RunCLOSET mines all closed itemsets of d with the CLOSET-style FP-tree
// miner. opt.OnClosed switches to streaming emission in discovery order.
func RunCLOSET(ctx context.Context, d *Dataset, opt ClosetOptions) (*ClosetResult, error) {
	if opt.OnClosed != nil {
		return closet.MineStream(ctx, d, opt, opt.OnClosed)
	}
	return closet.MineContext(ctx, d, opt)
}

// RunColumnE mines one representative rule per interesting rule group by
// column enumeration (Bayardo & Agrawal, KDD 1999 style) — the paper's
// ColumnE baseline. opt.OnRule switches to streaming emission; ColumnE's
// interestingness is a global fixpoint, so rules are delivered during the
// finish phase.
func RunColumnE(ctx context.Context, d *Dataset, consequent int, opt ColumnEOptions) (*ColumnEResult, error) {
	if opt.OnRule != nil {
		return columne.MineStream(ctx, d, consequent, opt, opt.OnRule)
	}
	return columne.MineContext(ctx, d, consequent, opt)
}

// RunCARPENTER mines all closed itemsets of d by row enumeration (Pan et
// al., KDD 2003) — FARMER's class-blind predecessor. opt.OnClosed switches
// to streaming emission in discovery order.
func RunCARPENTER(ctx context.Context, d *Dataset, opt CarpenterOptions) (*CarpenterResult, error) {
	if opt.OnClosed != nil {
		return carpenter.MineStream(ctx, d, opt, opt.OnClosed)
	}
	return carpenter.MineContext(ctx, d, opt)
}

// RunCOBBLER mines all closed itemsets of d with COBBLER's dynamic
// row/feature enumeration (Pan et al., SSDBM 2004). opt.OnClosed switches
// to streaming emission in discovery order.
func RunCOBBLER(ctx context.Context, d *Dataset, opt CobblerOptions) (*CobblerResult, error) {
	if opt.OnClosed != nil {
		return cobbler.MineStream(ctx, d, opt, opt.OnClosed)
	}
	return cobbler.MineContext(ctx, d, opt)
}

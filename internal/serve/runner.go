package serve

import (
	"context"
	"fmt"

	farmer "repro"
)

// GroupRecord is the NDJSON wire form of a rule group (FARMER, TopK) or a
// single rule (ColumnE). Items are reported by name so clients need no
// item-id table.
type GroupRecord struct {
	Antecedent  []string   `json:"antecedent"`
	LowerBounds [][]string `json:"lower_bounds,omitempty"`
	SupPos      int        `json:"sup_pos"`
	SupNeg      int        `json:"sup_neg"`
	Confidence  float64    `json:"confidence"`
	Chi         float64    `json:"chi"`
	// Score is the objective value for TopK jobs; absent otherwise.
	Score *float64 `json:"score,omitempty"`
}

// ClosedRecord is the NDJSON wire form of a closed itemset / pattern
// (CHARM, CLOSET, CARPENTER, COBBLER).
type ClosedRecord struct {
	Items   []string `json:"items"`
	Support int      `json:"support"`
}

// anytimeOutcome decorates a finished TopKResult so the job manager can
// read the anytime verdict (partial flag, certified gap, nodes expanded)
// without widening the frozen RunnerFunc result signature: the embedded
// result still satisfies farmer.MinerResult, and run() type-asserts for
// the extra fields.
type anytimeOutcome struct {
	*farmer.TopKResult
}

func itemNames(d *farmer.Dataset, items []farmer.Item) []string {
	names := make([]string, len(items))
	for i, it := range items {
		names[i] = d.ItemName(it)
	}
	return names
}

func groupRecord(d *farmer.Dataset, g farmer.RuleGroup) GroupRecord {
	rec := GroupRecord{
		Antecedent: itemNames(d, g.Antecedent),
		SupPos:     g.SupPos,
		SupNeg:     g.SupNeg,
		Confidence: g.Confidence,
		Chi:        g.Chi,
	}
	for _, lb := range g.LowerBounds {
		rec.LowerBounds = append(rec.LowerBounds, itemNames(d, lb))
	}
	return rec
}

// MakeGroupRecord converts a rule group to its NDJSON wire form exactly
// as the in-process FARMER runner does — the cluster coordinator uses it
// so merged distributed results stream byte-identically.
func MakeGroupRecord(d *farmer.Dataset, g farmer.RuleGroup) GroupRecord {
	return groupRecord(d, g)
}

// FarmerJobOptions resolves a "farmer" job spec into the consequent index
// and canonical mining options the in-process runner would use — shared
// with the cluster so a distributed run and a single-node run of the same
// spec mine under identical options.
func FarmerJobOptions(d *farmer.Dataset, snap *farmer.Snapshot, spec JobSpec) (consequent int, opt farmer.MineOptions, err error) {
	consequent, err = resolveClass(d, spec.Class)
	if err != nil {
		return 0, farmer.MineOptions{}, err
	}
	minsup := spec.MinSup
	if minsup < 1 {
		minsup = 1
	}
	opt = farmer.MineOptions{
		MinSup:             minsup,
		MinConf:            spec.MinConf,
		MinChi:             spec.MinChi,
		ComputeLowerBounds: spec.LowerBounds,
		Workers:            spec.Workers,
		Prepared:           snap,
	}
	return consequent, opt, nil
}

// resolveClass maps the spec's class name to a consequent index. The
// empty name selects class 0, matching the cmd/farmer default.
func resolveClass(d *farmer.Dataset, class string) (int, error) {
	if class == "" {
		return 0, nil
	}
	c := d.ClassIndex(class)
	if c < 0 {
		return 0, fmt.Errorf("unknown class %q", class)
	}
	return c, nil
}

// BuildRunner is the default, in-process runner builder — exported so a
// cluster coordinator's RunnerBuilder runs every miner it does not
// distribute (all but FARMER), and FARMER itself when no worker is alive,
// through exactly the same compilation path a standalone daemon uses (same
// validation, same wire records).
func BuildRunner(d *farmer.Dataset, snap *farmer.Snapshot, spec JobSpec) (RunnerFunc, error) {
	return buildRunner(d, snap, spec)
}

// buildRunner validates spec against the resolved dataset and compiles it
// into a RunnerFunc. All validation errors surface here, at submission
// time, so a queued job can only fail from the mining run itself. The
// runner captures d and snap — a job keeps mining the dataset it was
// submitted against even if the name is re-registered mid-run — and every
// invocation copies its options before attaching callbacks, so a runner
// is safe to invoke more than once.
func buildRunner(d *farmer.Dataset, snap *farmer.Snapshot, spec JobSpec) (RunnerFunc, error) {
	minsup := spec.MinSup
	if minsup < 1 {
		minsup = 1
	}
	if spec.Miner != "topk" {
		if spec.MaxMillis != 0 || spec.MaxNodes != 0 || spec.Quality != "" || spec.Delta != 0 {
			return nil, fmt.Errorf("anytime options (max_millis, max_nodes, quality, delta) need the topk miner, got %q", spec.Miner)
		}
	}

	switch spec.Miner {
	case "farmer":
		consequent, opt, err := FarmerJobOptions(d, snap, spec)
		if err != nil {
			return nil, err
		}
		if opt.Workers != 0 {
			// Parallel runs are batch-only: the interestingness fixpoint is
			// not sound on a partial candidate set, so groups are emitted
			// after the run completes.
			return func(ctx context.Context, emit func(v any) error) (farmer.MinerResult, error) {
				res, err := farmer.RunFARMER(ctx, d, consequent, opt)
				if res == nil {
					return nil, err
				}
				for _, g := range res.Groups {
					if emitErr := emit(groupRecord(d, g)); emitErr != nil {
						return res, emitErr
					}
				}
				return res, err
			}, nil
		}
		return func(ctx context.Context, emit func(v any) error) (farmer.MinerResult, error) {
			o := opt
			o.OnGroup = func(g farmer.RuleGroup) error { return emit(groupRecord(d, g)) }
			res, err := farmer.RunFARMER(ctx, d, consequent, o)
			if res == nil {
				return nil, err
			}
			return res, err
		}, nil

	case "topk":
		consequent, err := resolveClass(d, spec.Class)
		if err != nil {
			return nil, err
		}
		measure, err := farmer.ParseMeasure(spec.Measure)
		if err != nil {
			return nil, err
		}
		k := spec.K
		if k < 1 {
			k = 1
		}
		strat, err := farmer.ParseStrategy(spec.Quality)
		if err != nil {
			return nil, err
		}
		switch {
		case spec.MaxMillis < 0:
			return nil, fmt.Errorf("max_millis must be >= 0, got %d", spec.MaxMillis)
		case spec.MaxNodes < 0:
			return nil, fmt.Errorf("max_nodes must be >= 0, got %d", spec.MaxNodes)
		case spec.Delta < 0:
			return nil, fmt.Errorf("delta must be >= 0, got %v", spec.Delta)
		case spec.Delta > 0 && strat != farmer.StrategyLeap:
			return nil, fmt.Errorf("delta needs quality \"leap\", got %q", strat)
		case strat == farmer.StrategySample && !spec.Budgeted():
			return nil, fmt.Errorf("quality \"sample\" needs a max_millis or max_nodes budget")
		}
		opt := farmer.TopKOptions{
			K: k, Measure: measure, MinSup: minsup, Prepared: snap,
			Strategy: strat, MaxMillis: spec.MaxMillis, MaxNodes: spec.MaxNodes,
			Delta: spec.Delta, Workers: spec.Workers,
		}
		return func(ctx context.Context, emit func(v any) error) (farmer.MinerResult, error) {
			// Best-first search only knows the final ranking at the end, so
			// TopK is batch-only; on cancellation or budget exhaustion the
			// best groups so far are still emitted.
			res, err := farmer.RunTopK(ctx, d, consequent, opt)
			if res == nil {
				return nil, err
			}
			for _, sg := range res.Groups {
				rec := groupRecord(d, sg.RuleGroup)
				score := sg.Score
				rec.Score = &score
				if emitErr := emit(rec); emitErr != nil {
					return res, emitErr
				}
			}
			return anytimeOutcome{res}, err
		}, nil

	case "charm":
		opt := farmer.CharmOptions{MinSup: minsup, Prepared: snap}
		return func(ctx context.Context, emit func(v any) error) (farmer.MinerResult, error) {
			o := opt
			o.OnClosed = func(c farmer.ClosedSet) error {
				return emit(ClosedRecord{Items: itemNames(d, c.Items), Support: c.Support})
			}
			res, err := farmer.RunCHARM(ctx, d, o)
			if res == nil {
				return nil, err
			}
			return res, err
		}, nil

	case "closet":
		opt := farmer.ClosetOptions{MinSup: minsup, Prepared: snap}
		return func(ctx context.Context, emit func(v any) error) (farmer.MinerResult, error) {
			o := opt
			o.OnClosed = func(c farmer.ClosetClosedSet) error {
				return emit(ClosedRecord{Items: itemNames(d, c.Items), Support: c.Support})
			}
			res, err := farmer.RunCLOSET(ctx, d, o)
			if res == nil {
				return nil, err
			}
			return res, err
		}, nil

	case "columne":
		consequent, err := resolveClass(d, spec.Class)
		if err != nil {
			return nil, err
		}
		opt := farmer.ColumnEOptions{MinSup: minsup, MinConf: spec.MinConf, MinChi: spec.MinChi, Prepared: snap}
		return func(ctx context.Context, emit func(v any) error) (farmer.MinerResult, error) {
			o := opt
			o.OnRule = func(r farmer.ColumnERule) error {
				return emit(GroupRecord{
					Antecedent: itemNames(d, r.Antecedent),
					SupPos:     r.SupPos,
					SupNeg:     r.SupNeg,
					Confidence: r.Confidence,
					Chi:        r.Chi,
				})
			}
			res, err := farmer.RunColumnE(ctx, d, consequent, o)
			if res == nil {
				return nil, err
			}
			return res, err
		}, nil

	case "carpenter":
		opt := farmer.CarpenterOptions{MinSup: minsup, Prepared: snap}
		return func(ctx context.Context, emit func(v any) error) (farmer.MinerResult, error) {
			o := opt
			o.OnClosed = func(p farmer.ClosedPattern) error {
				return emit(ClosedRecord{Items: itemNames(d, p.Items), Support: p.Support})
			}
			res, err := farmer.RunCARPENTER(ctx, d, o)
			if res == nil {
				return nil, err
			}
			return res, err
		}, nil

	case "cobbler":
		opt := farmer.CobblerOptions{MinSup: minsup, Prepared: snap}
		return func(ctx context.Context, emit func(v any) error) (farmer.MinerResult, error) {
			o := opt
			o.OnClosed = func(p farmer.CobblerClosedPattern) error {
				return emit(ClosedRecord{Items: itemNames(d, p.Items), Support: p.Support})
			}
			res, err := farmer.RunCOBBLER(ctx, d, o)
			if res == nil {
				return nil, err
			}
			return res, err
		}, nil

	default:
		return nil, fmt.Errorf("unknown miner %q (want farmer, topk, charm, closet, columne, carpenter or cobbler)", spec.Miner)
	}
}

package main

import (
	"context"
	"encoding/json"
	"fmt"

	farmer "repro"
	"repro/internal/serve"
)

// mine runs spec on d through the canonical library entry point the
// service's runner uses for it. snap is the prepared snapshot the service
// mines from; nil mines from scratch.
func mine(ctx context.Context, d *farmer.Dataset, snap *farmer.Snapshot, spec serve.QuerySpec) (farmer.MinerResult, error) {
	cons, err := consequentOf(d, spec)
	if err != nil {
		return nil, err
	}
	minsup := max(spec.MinSup, 1)
	switch spec.Miner {
	case "farmer":
		return farmer.RunFARMER(ctx, d, cons, farmer.MineOptions{
			MinSup: minsup, MinConf: spec.MinConf, MinChi: spec.MinChi,
			ComputeLowerBounds: spec.LowerBounds, Workers: spec.Workers, Prepared: snap,
		})
	case "topk":
		m, err := farmer.ParseMeasure(spec.Measure)
		if err != nil {
			return nil, err
		}
		strat, err := farmer.ParseStrategy(spec.Quality)
		if err != nil {
			return nil, err
		}
		return farmer.RunTopK(ctx, d, cons, farmer.TopKOptions{
			K: max(spec.K, 1), Measure: m, MinSup: minsup, Prepared: snap,
			Strategy: strat, MaxMillis: spec.MaxMillis, MaxNodes: spec.MaxNodes, Workers: spec.Workers,
		})
	case "charm":
		return farmer.RunCHARM(ctx, d, farmer.CharmOptions{MinSup: minsup, Prepared: snap})
	case "closet":
		return farmer.RunCLOSET(ctx, d, farmer.ClosetOptions{MinSup: minsup, Prepared: snap})
	case "columne":
		return farmer.RunColumnE(ctx, d, cons, farmer.ColumnEOptions{MinSup: minsup, MinConf: spec.MinConf, MinChi: spec.MinChi, Prepared: snap})
	case "carpenter":
		return farmer.RunCARPENTER(ctx, d, farmer.CarpenterOptions{MinSup: minsup, Prepared: snap})
	case "cobbler":
		return farmer.RunCOBBLER(ctx, d, farmer.CobblerOptions{MinSup: minsup, Prepared: snap})
	}
	return nil, fmt.Errorf("unknown miner %q", spec.Miner)
}

func consequentOf(d *farmer.Dataset, spec serve.QuerySpec) (int, error) {
	if spec.Class == "" {
		return 0, nil
	}
	c := d.ClassIndex(spec.Class)
	if c < 0 {
		return 0, fmt.Errorf("unknown class %q", spec.Class)
	}
	return c, nil
}

// records converts a miner result to the wire records the service
// streams for it.
func records(d *farmer.Dataset, res farmer.MinerResult) []any {
	names := func(items []farmer.Item) []string {
		out := make([]string, len(items))
		for i, it := range items {
			out[i] = d.ItemName(it)
		}
		return out
	}
	var recs []any
	switch r := res.(type) {
	case *farmer.MineResult:
		for _, g := range r.Groups {
			recs = append(recs, serve.MakeGroupRecord(d, g))
		}
	case *farmer.TopKResult:
		for _, sg := range r.Groups {
			rec := serve.MakeGroupRecord(d, sg.RuleGroup)
			score := sg.Score
			rec.Score = &score
			recs = append(recs, rec)
		}
	case *farmer.CharmResult:
		for _, c := range r.Closed {
			recs = append(recs, serve.ClosedRecord{Items: names(c.Items), Support: c.Support})
		}
	case *farmer.ClosetResult:
		for _, c := range r.Closed {
			recs = append(recs, serve.ClosedRecord{Items: names(c.Items), Support: c.Support})
		}
	case *farmer.ColumnEResult:
		for _, x := range r.Rules {
			recs = append(recs, serve.GroupRecord{Antecedent: names(x.Antecedent), SupPos: x.SupPos, SupNeg: x.SupNeg, Confidence: x.Confidence, Chi: x.Chi})
		}
	case *farmer.CarpenterResult:
		for _, p := range r.Patterns {
			recs = append(recs, serve.ClosedRecord{Items: names(p.Items), Support: p.Support})
		}
	case *farmer.CobblerResult:
		for _, p := range r.Patterns {
			recs = append(recs, serve.ClosedRecord{Items: names(p.Items), Support: p.Support})
		}
	}
	return recs
}

// encodeRecords renders records as NDJSON lines, as the service does.
func encodeRecords(recs []any) ([][]byte, error) {
	out := make([][]byte, len(recs))
	for i, r := range recs {
		raw, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		out[i] = raw
	}
	return out, nil
}

// reference mines spec on d from scratch and sequentially, and returns
// the answer the service must give for it.
func reference(ctx context.Context, d *farmer.Dataset, spec serve.QuerySpec) (answer, error) {
	spec.Workers = 0
	res, err := mine(ctx, d, nil, spec)
	if err != nil {
		return answer{}, fmt.Errorf("reference %s/%s: %w", spec.Miner, spec.Dataset, err)
	}
	lines, err := encodeRecords(records(d, res))
	if err != nil {
		return answer{}, err
	}
	a := answer{count: len(lines), bytes: 64} // 64 covers the end frame
	for _, l := range lines {
		a.digest.add(l)
		a.bytes += len(l) + 1
	}
	return a, nil
}

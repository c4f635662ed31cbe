package core

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/plan"
)

// Partial is the outcome of mining one slice of the enumeration-task
// universe: the constraint-satisfying candidate groups found there (local
// interestingness filtering applied, global fixpoint NOT applied), the row
// sets rejected by that local filter, and the subtask pruning counters.
// Partials from any exact cover of the universe merge — via MergePartials
// — into precisely the sequential Mine result, including byte-identical
// Counters. Partial has a JSON wire form; row ids are in
// the consequent view's reordered (ORD) space, so partials are only
// meaningful between processes that resolved the same snapshot.
type Partial struct {
	// NumRows and NumPos pin the consequent view the partial was mined
	// under; MergePartials rejects mismatches.
	NumRows int
	NumPos  int
	// Counters are the subtask-summed pruning counters for the slice.
	// GroupsEmitted/GroupsNotInterest within are local decisions only and
	// are recomputed globally at merge.
	Counters engine.Counters

	cands    []irgEntry
	rejected []*bitset.Set
}

// partialWire is Partial's JSON form.
type partialWire struct {
	NumRows  int             `json:"num_rows"`
	NumPos   int             `json:"num_pos"`
	Counters engine.Counters `json:"counters"`
	Cands    []candWire      `json:"cands,omitempty"`
	Rejected [][]int         `json:"rejected,omitempty"`
}

type candWire struct {
	Rows   []int          `json:"rows"`
	SupPos int            `json:"sup_pos"`
	Tot    int            `json:"tot"`
	Items  []dataset.Item `json:"items"`
	Chi    float64        `json:"chi"`
}

// MarshalJSON encodes the partial for the cluster wire.
func (p *Partial) MarshalJSON() ([]byte, error) {
	w := partialWire{
		NumRows:  p.NumRows,
		NumPos:   p.NumPos,
		Counters: p.Counters,
		Cands:    make([]candWire, len(p.cands)),
		Rejected: make([][]int, len(p.rejected)),
	}
	for i, c := range p.cands {
		w.Cands[i] = candWire{
			Rows:   c.rows.Ints(),
			SupPos: c.supPos,
			Tot:    c.tot,
			Items:  c.items,
			Chi:    c.chi,
		}
	}
	for i, r := range p.rejected {
		w.Rejected[i] = r.Ints()
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes a partial from the cluster wire, rebuilding the
// internal row bitsets against the partial's own row count.
func (p *Partial) UnmarshalJSON(data []byte) error {
	var w partialWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if w.NumRows < 0 || w.NumPos < 0 || w.NumPos > w.NumRows {
		return fmt.Errorf("core: partial shape %d/%d invalid", w.NumPos, w.NumRows)
	}
	rebuild := func(rows []int) (*bitset.Set, error) {
		s := bitset.New(w.NumRows)
		for _, r := range rows {
			if r < 0 || r >= w.NumRows {
				return nil, fmt.Errorf("core: partial row %d outside [0,%d)", r, w.NumRows)
			}
			s.Set(r)
		}
		return s, nil
	}
	out := Partial{NumRows: w.NumRows, NumPos: w.NumPos, Counters: w.Counters}
	for _, c := range w.Cands {
		rows, err := rebuild(c.Rows)
		if err != nil {
			return err
		}
		if c.Tot != len(c.Rows) || c.SupPos < 0 || c.SupPos > c.Tot {
			return fmt.Errorf("core: partial candidate support %d/%d disagrees with %d rows", c.SupPos, c.Tot, len(c.Rows))
		}
		out.cands = append(out.cands, irgEntry{rows: rows, supPos: c.SupPos, tot: c.Tot, items: c.Items, chi: c.Chi})
	}
	for _, r := range w.Rejected {
		rows, err := rebuild(r)
		if err != nil {
			return err
		}
		out.rejected = append(out.rejected, rows)
	}
	*p = out
	return nil
}

// Count returns the number of candidate groups carried by the partial.
func (p *Partial) Count() int { return len(p.cands) }

// MinePartitions mines exactly the subtasks of partition part, spreading
// them over the given local worker count (≤ 0 selects GOMAXPROCS) with
// the same work-stealing scheduler MineParallel uses over the whole
// universe. It is the cluster worker's entry point: the returned Partial
// is serializable, and partials from any exact cover of the universe
// merge into the single-node result.
func MinePartitions(ctx context.Context, d *dataset.Dataset, consequent int, opt Options, part plan.Partition, workers int) (*Partial, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if err := part.Validate(); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	ex := engine.NewExec(ctx)
	ordered, ord, shared, err := resolveView(d, consequent, opt.Prepared, ex)
	if err != nil {
		return nil, err
	}
	n := len(ordered.Rows)
	if part.N != n {
		return nil, fmt.Errorf("core: partition universe n=%d but dataset has %d rows", part.N, n)
	}
	out := &Partial{NumRows: n, NumPos: ord.NumPositive}
	if n == 0 || ord.NumPositive == 0 || part.Empty() {
		return out, ex.Err()
	}
	if shared == nil {
		shared = dataset.Transpose(ordered)
	}

	outs := minePartitions(ctx, ordered, shared, ord.NumPositive, opt, plan.NewSpanSource(part), workers)

	dedup := bitset.NewDedup()
	for _, o := range outs {
		out.cands = append(out.cands, o.cands...)
		out.Counters.Add(o.counters)
		for _, r := range o.rejected {
			if dedup.Add(r) {
				out.rejected = append(out.rejected, r)
			}
		}
	}
	if err := ex.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// MergePartials applies the global interestingness fixpoint to partials
// covering the whole universe of d's consequent view and returns the
// final Result. Counters equal sequential Mine's exactly: subtask
// counters are summed, worker-local GroupsEmitted and
// GroupsNotInterest are discarded, and both are recomputed globally (with
// rejected row sets deduplicated across partials by content). Callers —
// the cluster coordinator — are responsible for ensuring the partials
// cover the universe exactly once (plan.Coverage is the ledger for that);
// MergePartials can only check view-shape consistency.
func MergePartials(ctx context.Context, d *dataset.Dataset, consequent int, opt Options, partials []*Partial) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	ex := engine.NewExec(ctx)
	setupDone := engine.Phase(&ex.Stats.Timings.Setup)
	ordered, ord, _, err := resolveView(d, consequent, opt.Prepared, ex)
	if err != nil {
		return nil, err
	}
	n := len(ordered.Rows)
	res := &Result{
		Consequent: consequent,
		NumRows:    n,
		NumPos:     ord.NumPositive,
	}
	setupDone()

	rejected := bitset.NewDedup()
	var cands []irgEntry
	for _, p := range partials {
		if p == nil {
			continue
		}
		if p.NumRows != n || p.NumPos != ord.NumPositive {
			return nil, fmt.Errorf("core: partial view %d/%d does not match dataset view %d/%d",
				p.NumPos, p.NumRows, ord.NumPositive, n)
		}
		cands = append(cands, p.cands...)
		ex.Stats.Counters.Add(p.Counters)
		for _, r := range p.rejected {
			rejected.Add(r)
		}
	}
	if n == 0 || ord.NumPositive == 0 {
		res.stats = ex.Stats
		return res, ex.Err()
	}
	return finishParallel(ex, res, ordered, ord, opt, cands, rejected)
}

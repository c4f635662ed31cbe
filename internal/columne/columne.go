// Package columne implements the ColumnE baseline of the paper's
// experiments: a Bayardo/Agrawal-style interesting-rule miner (SIGKDD 1999)
// that enumerates the COLUMN (itemset) space depth-first over tidsets,
// prunes on the anti-monotone rule-support constraint, and keeps one
// representative rule per interesting rule group.
//
// Its search space is the power set of the frequent items, which is why it
// collapses on microarray data where rows carry thousands of items — the
// contrast FARMER's row enumeration is designed to exploit. A node budget
// lets the benchmark harness report "did not finish" runs the way the
// paper's plots cut off the slow baselines.
package columne

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/stats"
)

// Rule is one interesting rule (a representative of its rule group).
type Rule struct {
	Antecedent []dataset.Item
	Rows       *bitset.Set // R(Antecedent)
	SupPos     int
	SupNeg     int
	Confidence float64
	Chi        float64
}

// Options configures a ColumnE run.
type Options struct {
	// MinSup is the minimum rule support |R(A ∪ C)|, ≥ 1.
	MinSup int
	// MinConf is the minimum confidence in [0,1].
	MinConf float64
	// MinChi is the minimum chi-square value; 0 disables.
	MinChi float64
	// MaxNodes, when > 0, aborts enumeration with ErrBudget after that many
	// nodes.
	MaxNodes int64

	// OnRule, when non-nil, switches the canonical entry point
	// (farmer.RunColumnE) to streaming emission: rules are delivered
	// during the finish-phase fixpoint (ColumnE's interestingness is a
	// global fixpoint), and the result accumulates no Rules. Ignored by
	// the low-level Mine* functions, which take their callback as an
	// argument.
	OnRule func(Rule) error

	// Prepared, when non-nil, supplies a precompiled snapshot of the
	// dataset: the run takes its singleton tidsets and consequent mask
	// from the snapshot's shared structures instead of rebuilding them.
	// The snapshot must have been built from the exact *Dataset passed to
	// the mining call.
	Prepared *dataset.Snapshot
}

// ErrBudget reports that the node budget was exhausted before completion.
var ErrBudget = fmt.Errorf("columne: node budget exhausted")

// Result carries the mined rules and search statistics. Nodes keeps the
// legacy enumeration-node count (what MaxNodes bounds); Stats carries the
// engine's unified counters.
type Result struct {
	Rules []Rule
	Nodes int64

	stats engine.Stats
}

// Stats returns the engine's unified run statistics.
func (r *Result) Stats() engine.Stats { return r.stats }

// Count returns the number of rules in the batch result.
func (r *Result) Count() int { return len(r.Rules) }

// Mine enumerates column combinations and returns one rule per interesting
// rule group with the given consequent.
func Mine(d *dataset.Dataset, consequent int, opt Options) (*Result, error) {
	return MineContext(context.Background(), d, consequent, opt)
}

// MineContext is Mine under a context: cancellation is checked at every
// node expansion and at every candidate of the finish-phase fixpoint. On
// cancellation it returns ctx.Err() with a non-nil Result carrying partial
// statistics and no rules. (Budget exhaustion keeps its legacy
// convention: ErrBudget with a nil Result.)
func MineContext(ctx context.Context, d *dataset.Dataset, consequent int, opt Options) (*Result, error) {
	var rules []Rule
	res, err := MineStream(ctx, d, consequent, opt, func(r Rule) error {
		rules = append(rules, r)
		return nil
	})
	if res != nil {
		sort.Slice(rules, func(i, j int) bool { return lessItems(rules[i].Antecedent, rules[j].Antecedent) })
		res.Rules = rules
	}
	return res, err
}

// MineStream is Mine with per-rule delivery. Unlike the row enumerators,
// ColumnE CANNOT stream during enumeration: whether a rule group is
// interesting depends on a global fixpoint over every candidate, so
// deliveries happen during the finish phase, after enumeration completes
// (each rule is delivered the moment the fixpoint keeps it, in
// most-general-first fixpoint order rather than Mine's sorted order). A
// callback error aborts the run and is returned verbatim.
func MineStream(ctx context.Context, d *dataset.Dataset, consequent int, opt Options, onRule func(Rule) error) (*Result, error) {
	if opt.MinSup < 1 {
		return nil, fmt.Errorf("columne: MinSup must be >= 1, got %d", opt.MinSup)
	}
	if opt.MinConf < 0 || opt.MinConf > 1 {
		return nil, fmt.Errorf("columne: MinConf %v outside [0,1]", opt.MinConf)
	}
	snap := opt.Prepared
	if snap != nil && snap.Dataset() != d {
		return nil, fmt.Errorf("columne: Prepared snapshot was built from a different dataset")
	}
	if snap == nil {
		if err := d.Validate(); err != nil {
			return nil, err
		}
	}
	if consequent < 0 || consequent >= d.NumClasses() {
		return nil, fmt.Errorf("columne: consequent %d outside [0,%d)", consequent, d.NumClasses())
	}

	ex := engine.NewExec(ctx)
	setupDone := engine.Phase(&ex.Stats.Timings.Setup)
	n := len(d.Rows)
	var posMask *bitset.Set
	if snap != nil {
		view, err := snap.ForConsequent(consequent)
		if err != nil {
			return nil, err
		}
		posMask = view.PosMask
	} else {
		posMask = bitset.New(n)
		for ri := range d.Rows {
			if d.Rows[ri].Class == consequent {
				posMask.Set(ri)
			}
		}
	}
	m := &miner{
		d:       d,
		opt:     opt,
		n:       n,
		numPos:  posMask.Count(),
		posMask: posMask,
		ex:      ex,
		sc:      engine.NewScratch(n),
		emit:    onRule,
		byHash:  map[uint64][]int{},
	}

	// Frequent single items by positive support, ascending-support order.
	// Singleton tidsets are per-item row bitsets, the snapshot's shared
	// ones when there is a snapshot; the enumeration only intersects into
	// scratch and clones on record, so sharing across concurrent runs is
	// safe.
	var itemRows []*bitset.Set
	if snap != nil {
		ex.Stats.PrepareReused++
		itemRows = snap.ItemRows()
	} else {
		itemRows = dataset.Transpose(d).RowSets()
	}
	var singles []extension
	for it, rows := range itemRows {
		if rows.AndCount(posMask) < opt.MinSup {
			continue
		}
		singles = append(singles, extension{item: dataset.Item(it), tids: rows})
	}
	sort.Slice(singles, func(i, j int) bool {
		si, sj := singles[i].tids.Count(), singles[j].tids.Count()
		if si != sj {
			return si < sj
		}
		return singles[i].item < singles[j].item
	})
	setupDone()

	searchDone := engine.Phase(&ex.Stats.Timings.Search)
	err := m.expand(nil, nil, singles)
	searchDone()
	if err == ErrBudget {
		return nil, err
	}
	if err == nil {
		finishDone := engine.Phase(&ex.Stats.Timings.Finish)
		err = m.finish()
		finishDone()
	}
	ex.Stats.ArenaBytes = m.sc.Bytes() + m.ar.Bytes() + m.items.SizeBytes()
	return &Result{Nodes: m.nodes, stats: ex.Stats}, err
}

type extension struct {
	item dataset.Item
	tids *bitset.Set
}

type candidate struct {
	items  []dataset.Item
	rows   *bitset.Set
	supPos int
	tot    int
}

type miner struct {
	d       *dataset.Dataset
	opt     Options
	n       int
	numPos  int
	posMask *bitset.Set
	nodes   int64

	// ex carries the unified counters and the cancellation token; sc.Tmp is
	// the scratch tidset for intersection prechecks (a candidate tidset is
	// only cloned once it survives the support test).
	ex   *engine.Exec
	sc   *engine.Scratch
	emit func(Rule) error

	// One candidate per distinct row set (rule group); interestingness is
	// resolved after enumeration.
	cands  []candidate
	byHash map[uint64][]int

	// ar and items back the enumeration path: the current tidset and the
	// growing antecedent live on arenas marked per extension and released
	// when its subtree returns. record clones whatever escapes into the
	// candidate store.
	ar    bitset.Arena
	items engine.Slab[dataset.Item]
}

// expand grows the current antecedent by each viable extension in turn.
func (m *miner) expand(items []dataset.Item, tids *bitset.Set, exts []extension) error {
	for i, e := range exts {
		if err := m.ex.EnterNode(); err != nil {
			return err
		}
		m.nodes++
		if m.opt.MaxNodes > 0 && m.nodes > m.opt.MaxNodes {
			return ErrBudget
		}
		// Intersect into scratch first; the tidset is copied onto the
		// arena only after the anti-monotone support check passes.
		var cur *bitset.Set
		if tids == nil {
			cur = e.tids
		} else {
			bitset.AndTo(m.sc.Tmp, tids, e.tids)
			cur = m.sc.Tmp
		}
		pos := cur.AndCount(m.posMask)
		if pos < m.opt.MinSup {
			m.ex.Stats.PrunedTightBound++
			continue // anti-monotone: no superset can recover support
		}
		amark := m.ar.Mark()
		imark := m.items.Mark()
		if cur == m.sc.Tmp {
			cur = m.ar.Copy(m.sc.Tmp)
		}
		cand := m.items.Alloc(len(items) + 1)
		copy(cand, items)
		cand[len(items)] = e.item
		m.record(cand, cur, pos)
		// Children reuse the later extensions (set-enumeration tree).
		err := m.expand(cand, cur, exts[i+1:])
		m.items.Release(imark)
		m.ar.Release(amark)
		if err != nil {
			return err
		}
	}
	return nil
}

// record keeps one candidate per rule group (distinct row set), preferring
// the first antecedent encountered.
func (m *miner) record(items []dataset.Item, rows *bitset.Set, pos int) {
	tot := rows.Count()
	conf := float64(pos) / float64(tot)
	if conf < m.opt.MinConf {
		return
	}
	if m.opt.MinChi > 0 && stats.Chi2(tot, pos, m.n, m.numPos) < m.opt.MinChi {
		return
	}
	h := rows.Hash()
	for _, idx := range m.byHash[h] {
		if m.cands[idx].rows.Equal(rows) {
			return // group already represented
		}
	}
	m.byHash[h] = append(m.byHash[h], len(m.cands))
	sorted := append([]dataset.Item(nil), items...)
	slices.Sort(sorted)
	m.cands = append(m.cands, candidate{items: sorted, rows: rows.Clone(), supPos: pos, tot: tot})
}

// finish applies the interestingness filter: a rule survives iff no rule of
// a strictly more general group (proper superset row set) has confidence ≥
// its own. Candidates are processed most-general-first so the kept set is
// exactly the interesting groups; each kept rule is delivered immediately
// (its decision is final: later candidates are more specific or
// incomparable).
func (m *miner) finish() error {
	order := make([]int, len(m.cands))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return m.cands[order[a]].rows.Count() > m.cands[order[b]].rows.Count()
	})
	var keptIdx []int
	for _, ci := range order {
		if err := m.ex.Err(); err != nil {
			return err
		}
		c := &m.cands[ci]
		interesting := true
		for _, ki := range keptIdx {
			k := &m.cands[ki]
			if k.rows.ProperSupersetOf(c.rows) &&
				int64(k.supPos)*int64(c.tot) >= int64(c.supPos)*int64(k.tot) {
				interesting = false
				break
			}
		}
		if !interesting {
			m.ex.Stats.GroupsNotInterest++
			continue
		}
		keptIdx = append(keptIdx, ci)
		m.ex.Stats.GroupsEmitted++
		if m.emit != nil {
			if err := m.emit(Rule{
				Antecedent: c.items,
				Rows:       c.rows,
				SupPos:     c.supPos,
				SupNeg:     c.tot - c.supPos,
				Confidence: float64(c.supPos) / float64(c.tot),
				Chi:        stats.Chi2(c.tot, c.supPos, m.n, m.numPos),
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

func lessItems(a, b []dataset.Item) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// Package charm implements CHARM (Zaki & Hsiao, SDM 2002), the closed-
// itemset miner FARMER is benchmarked against in Figures 10–11. CHARM
// enumerates the column (itemset) space over itemset–tidset pairs, using
// the four tidset-containment properties to collapse equivalent branches
// and a subsumption hash over tidsets to emit only closed sets.
//
// Like all column-enumeration miners, its search space grows with the
// number of distinct items per row — the dimension that explodes on
// microarray data. That asymmetry versus FARMER's row enumeration is the
// paper's headline result.
package charm

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/engine"
)

// ClosedSet is one closed itemset and its absolute row support.
type ClosedSet struct {
	Items   []dataset.Item // ascending
	Support int
	Rows    *bitset.Set // tidset
}

// Options configures a CHARM run.
type Options struct {
	// MinSup is the minimum absolute row support. Must be ≥ 1.
	MinSup int

	// MaxNodes, when > 0, bounds the WORK done: enumeration nodes plus
	// subsumption comparisons. The harness uses it to bound baseline runs
	// the way the paper reports "did not finish". The error returned is
	// ErrBudget.
	MaxNodes int64

	// OnClosed, when non-nil, switches the canonical entry point
	// (farmer.RunCHARM) to streaming emission: each closed set is
	// delivered as soon as it survives subsumption, in discovery order,
	// and the result accumulates no Closed sets. Ignored by the low-level
	// Mine* functions, which take their callback as an argument.
	OnClosed func(ClosedSet) error

	// Prepared, when non-nil, supplies a precompiled snapshot of the
	// dataset: the run takes its root tidsets from the snapshot's shared
	// per-item row bitsets instead of rebuilding them. The snapshot must
	// have been built from the exact *Dataset passed to the mining call.
	Prepared *dataset.Snapshot
}

// ErrBudget reports that the node budget was exhausted before completion.
var ErrBudget = fmt.Errorf("charm: node budget exhausted")

// Result carries the mined closed sets and search statistics. Nodes keeps
// the legacy work-unit count (enumeration nodes plus subsumption
// comparisons — the quantity MaxNodes bounds); Stats carries the engine's
// unified counters, where NodesVisited counts enumeration nodes only.
type Result struct {
	Closed []ClosedSet
	Nodes  int64

	stats engine.Stats
}

// Stats returns the engine's unified run statistics.
func (r *Result) Stats() engine.Stats { return r.stats }

// Count returns the number of closed sets in the batch result.
func (r *Result) Count() int { return len(r.Closed) }

// Mine returns all closed itemsets of d with support ≥ opt.MinSup.
func Mine(d *dataset.Dataset, opt Options) (*Result, error) {
	return MineContext(context.Background(), d, opt)
}

// MineContext is Mine under a context: cancellation is checked at every
// enumeration node, so a cancelled run stops within one node expansion.
// On cancellation it returns ctx.Err() with a non-nil Result carrying the
// partial statistics and the closed sets already emitted. (Budget
// exhaustion keeps its legacy convention: ErrBudget with a nil Result.)
func MineContext(ctx context.Context, d *dataset.Dataset, opt Options) (*Result, error) {
	var out []ClosedSet
	res, err := MineStream(ctx, d, opt, func(c ClosedSet) error {
		out = append(out, c)
		return nil
	})
	if res != nil {
		sort.Slice(out, func(i, j int) bool { return lessItems(out[i].Items, out[j].Items) })
		res.Closed = out
	}
	return res, err
}

// MineStream is the streaming form of Mine: each closed set is delivered
// to onClosed the moment its subsumption check passes — final immediately,
// since CHARM never retracts an emitted set — in discovery (post-order)
// rather than Mine's sorted order. A callback error aborts the run and is
// returned verbatim; after cancellation no further sets are delivered.
func MineStream(ctx context.Context, d *dataset.Dataset, opt Options, onClosed func(ClosedSet) error) (*Result, error) {
	if opt.MinSup < 1 {
		return nil, fmt.Errorf("charm: MinSup must be >= 1, got %d", opt.MinSup)
	}
	snap := opt.Prepared
	if snap != nil && snap.Dataset() != d {
		return nil, fmt.Errorf("charm: Prepared snapshot was built from a different dataset")
	}
	if snap == nil {
		if err := d.Validate(); err != nil {
			return nil, err
		}
	}
	ex := engine.NewExec(ctx)
	m := &miner{d: d, opt: opt, ex: ex, emit: onClosed, subsume: map[uint64][]ClosedSet{}}

	setupDone := engine.Phase(&ex.Stats.Timings.Setup)
	// Root tidsets are per-item row bitsets, the snapshot's shared ones
	// when there is a snapshot; the enumeration only reads them (children
	// are arena intersections, emission clones), so sharing across
	// concurrent runs is safe.
	var itemRows []*bitset.Set
	if snap != nil {
		ex.Stats.PrepareReused++
		itemRows = snap.ItemRows()
	} else {
		itemRows = dataset.Transpose(d).RowSets()
	}
	var nodes []itPair
	for it, rows := range itemRows {
		if rows.Count() < opt.MinSup {
			continue
		}
		nodes = append(nodes, itPair{items: []dataset.Item{dataset.Item(it)}, tids: rows})
	}
	// Process in increasing support order (the f ordering of the paper).
	sort.SliceStable(nodes, func(i, j int) bool {
		si, sj := nodes[i].tids.Count(), nodes[j].tids.Count()
		if si != sj {
			return si < sj
		}
		return nodes[i].items[0] < nodes[j].items[0]
	})
	setupDone()

	searchDone := engine.Phase(&ex.Stats.Timings.Search)
	err := m.extend(nodes)
	searchDone()
	if err == ErrBudget {
		return nil, err
	}
	ex.Stats.ArenaBytes = m.ar.Bytes() + m.items.SizeBytes() + m.pairs.SizeBytes()
	return &Result{Nodes: m.nodes, stats: ex.Stats}, err
}

type itPair struct {
	items []dataset.Item // the extension items beyond the inherited prefix
	tids  *bitset.Set
	sup   int  // cached tidset count (sort key)
	dead  bool // removed by property 1
}

type miner struct {
	d       *dataset.Dataset
	opt     Options
	ex      *engine.Exec
	emit    func(ClosedSet) error
	subsume map[uint64][]ClosedSet // tidset hash -> emitted sets
	nodes   int64

	// Per-node scratch: child tidsets, item unions, and the child pair
	// headers all live on arenas marked at node entry and released on
	// unwind, so the intersection step stops allocating once the slabs
	// reach their high-water size. Emitted sets are cloned off the arena
	// in maybeEmit.
	ar    bitset.Arena
	items engine.Slab[dataset.Item]
	pairs engine.Slab[itPair]
}

// extend is CHARM-EXTEND over one sibling group.
func (m *miner) extend(nodes []itPair) error {
	for i := range nodes {
		if nodes[i].dead {
			continue
		}
		if err := m.ex.EnterNode(); err != nil {
			return err
		}
		m.nodes++
		if m.opt.MaxNodes > 0 && m.nodes > m.opt.MaxNodes {
			return ErrBudget
		}
		amark := m.ar.Mark()
		imark := m.items.Mark()
		pmark := m.pairs.Mark()
		x, children := m.buildChildren(nodes, i)
		err := m.extend(children)
		if err == nil {
			err = m.maybeEmit(x, nodes[i].tids)
		}
		m.pairs.Release(pmark)
		m.items.Release(imark)
		m.ar.Release(amark)
		if err != nil {
			return err
		}
	}
	return nil
}

// buildChildren is the intersection step of CHARM-EXTEND for nodes[i]: it
// applies the four tidset-containment properties against every later
// sibling and returns the (possibly property-extended) itemset X together
// with the surviving children, support-ordered. Everything it returns
// lives on the miner's arenas under the caller's marks.
func (m *miner) buildChildren(nodes []itPair, i int) ([]dataset.Item, []itPair) {
	x := m.items.Alloc(len(nodes[i].items))
	copy(x, nodes[i].items)
	xt := nodes[i].tids
	children := m.pairs.Alloc(len(nodes) - i - 1)[:0]
	for j := i + 1; j < len(nodes); j++ {
		if nodes[j].dead {
			continue
		}
		// Count the intersection first; a tidset is materialized only for
		// genuine children that survive the support check.
		sup := xt.AndCount(nodes[j].tids)
		if sup < m.opt.MinSup {
			m.ex.Stats.PrunedTightBound++
			continue
		}
		switch {
		case xt.Equal(nodes[j].tids):
			// Property 1: merge j into i, drop j.
			x = m.mergeItems(x, nodes[j].items)
			nodes[j].dead = true
			m.ex.Stats.RowsAbsorbed++
		case xt.SubsetOf(nodes[j].tids):
			// Property 2: every occurrence of X is one of Xj.
			x = m.mergeItems(x, nodes[j].items)
			m.ex.Stats.RowsAbsorbed++
		default:
			// Properties 3 and 4: a genuine child. The extension items are
			// borrowed from the sibling until the prefix union below.
			children = append(children, itPair{items: nodes[j].items, tids: m.ar.And(xt, nodes[j].tids), sup: sup})
		}
	}
	// Children inherit the (possibly property-extended) prefix X, which is
	// final only now — properties 1/2 may extend it after a child was cut.
	for c := range children {
		children[c].items = m.mergeItems(x, children[c].items)
	}
	slices.SortStableFunc(children, func(a, b itPair) int {
		if a.sup != b.sup {
			return a.sup - b.sup
		}
		return cmpItems(a.items, b.items)
	})
	return x, children
}

// maybeEmit delivers X unless it is subsumed by an already-closed set with
// the same tidset. Emission decisions are final: the subsumption store only
// grows, so a delivered set is never retracted.
func (m *miner) maybeEmit(items []dataset.Item, tids *bitset.Set) error {
	if err := m.ex.Err(); err != nil {
		return err // no deliveries after cancellation, even on unwind
	}
	sorted := append([]dataset.Item(nil), items...)
	slices.Sort(sorted)
	h := tids.Hash()
	for _, c := range m.subsume[h] {
		m.nodes++ // comparisons count toward the work budget
		if c.Rows.Equal(tids) && containsAll(c.Items, sorted) {
			m.ex.Stats.GroupsNotInterest++
			return nil // subsumed: same rows, superset items
		}
	}
	cs := ClosedSet{Items: sorted, Support: tids.Count(), Rows: tids.Clone()}
	m.subsume[h] = append(m.subsume[h], cs)
	m.ex.Stats.GroupsEmitted++
	if m.emit != nil {
		return m.emit(cs)
	}
	return nil
}

// mergeItems returns the sorted union of two sorted item slices, allocated
// on the items slab (both inputs stay valid; the old a leaks until the
// node's release, which the stack discipline bounds by tree depth).
func (m *miner) mergeItems(a, b []dataset.Item) []dataset.Item {
	out := m.items.Alloc(len(a) + len(b))
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out[k] = a[i]
			i++
		case a[i] > b[j]:
			out[k] = b[j]
			j++
		default:
			out[k] = a[i]
			i, j = i+1, j+1
		}
		k++
	}
	k += copy(out[k:], a[i:])
	k += copy(out[k:], b[j:])
	return out[:k]
}

// containsAll reports whether sorted slice a contains every element of
// sorted slice b.
func containsAll(a, b []dataset.Item) bool {
	i := 0
	for _, x := range b {
		for i < len(a) && a[i] < x {
			i++
		}
		if i >= len(a) || a[i] != x {
			return false
		}
		i++
	}
	return true
}

func lessItems(a, b []dataset.Item) bool { return cmpItems(a, b) < 0 }

// cmpItems orders item slices lexicographically, shorter-first on ties.
func cmpItems(a, b []dataset.Item) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return int(a[i]) - int(b[i])
		}
	}
	return len(a) - len(b)
}

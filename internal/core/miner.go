package core

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/stats"
)

// Mine runs FARMER over d for the given consequent class and returns the
// interesting rule groups satisfying opt's constraints. Row ids in the
// result refer to d's original row order.
func Mine(d *dataset.Dataset, consequent int, opt Options) (*Result, error) {
	return MineContext(context.Background(), d, consequent, opt)
}

// MineContext is Mine under a context: cancellation is checked at every
// node expansion, so a cancelled or deadline-exceeded run stops within one
// node. On cancellation it returns ctx.Err() together with a non-nil
// Result carrying the partial statistics and the groups already decided.
func MineContext(ctx context.Context, d *dataset.Dataset, consequent int, opt Options) (*Result, error) {
	var groups []RuleGroup
	res, err := MineStream(ctx, d, consequent, opt, func(g RuleGroup) error {
		groups = append(groups, g)
		return nil
	})
	if res != nil {
		res.Groups = groups
	}
	return res, err
}

// MineStream is the streaming form of Mine: each interesting rule group is
// delivered to onGroup at the moment its membership in the result set
// becomes final (step 7 keeps a group exactly when every more general
// group it contains was already decided — see the enumeration-order
// argument in DESIGN.md), instead of being accumulated in Result.Groups.
// The delivery order equals batch Mine's Result.Groups order.
//
// The returned Result carries the run statistics with nil Groups. If
// onGroup returns a non-nil error, mining stops and that error is returned
// verbatim; if ctx is cancelled, mining stops within one node expansion,
// no further groups are delivered, and ctx.Err() is returned alongside the
// partial statistics.
func MineStream(ctx context.Context, d *dataset.Dataset, consequent int, opt Options, onGroup func(RuleGroup) error) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	ex := engine.NewExec(ctx)
	setupDone := engine.Phase(&ex.Stats.Timings.Setup)
	ordered, ord, tt, err := resolveView(d, consequent, opt.Prepared, ex)
	if err != nil {
		return nil, err
	}
	m := newMiner(ordered, ord.NumPositive, opt, ex, tt)
	setupDone()

	res := &Result{
		Consequent: consequent,
		NumRows:    len(ordered.Rows),
		NumPos:     ord.NumPositive,
	}
	if onGroup != nil {
		m.emit = func(e *irgEntry) error {
			return onGroup(m.materialize(e, ord))
		}
	}

	searchDone := engine.Phase(&ex.Stats.Timings.Search)
	err = m.run()
	searchDone()
	ex.Stats.ArenaBytes = m.sc.Bytes()
	res.stats = ex.Stats
	return res, err
}

// materialize turns an internal group entry into the public RuleGroup,
// mapping row ids back to the caller's original order and expanding lower
// bounds when requested.
func (m *miner) materialize(e *irgEntry, ord *dataset.Ordering) RuleGroup {
	g := RuleGroup{
		Antecedent: e.items,
		SupPos:     e.supPos,
		SupNeg:     e.tot - e.supPos,
		Confidence: float64(e.supPos) / float64(e.tot),
		Chi:        e.chi,
		Rows:       ord.MapRowsToOriginal(e.rows.Ints()),
	}
	sort.Ints(g.Rows)
	if m.opt.ComputeLowerBounds {
		g.LowerBounds, g.Truncated = m.mineLB(e.items, e.rows)
	}
	return g
}

// A node's conditional transposed table is the list of its items, in the
// root row's ascending order (so a copy is the node's antecedent I(X)). Each item's tuple — its candidate rows at the
// node — is never materialized: it is the item's global row set
// (dataset.Transposed.Words) restricted to the node's candidates, the rows
// after the last chosen row that are not on the path (m.sc.InX). Absorbing
// Y into the path therefore cleans every tuple at once, and the node scan,
// back scan and child build are all word operations.

type miner struct {
	ds     *dataset.Dataset
	tt     *dataset.Transposed
	numPos int // m: rows with the consequent class (ids [0, numPos))
	n      int
	opt    Options

	// ex is the engine execution state: unified stats counters plus the
	// cancellation token polled at every node expansion.
	ex *engine.Exec

	// sc is the engine scratch substrate. sc.InX marks rows in X ∪ Yacc
	// along the current path: the rows excluded from every tuple and, at
	// step 7, exactly R(I(X)) (see DESIGN.md). sc.RowWords are the word
	// buffers of the node scan, back scan and child build.
	sc *engine.Scratch

	// posWords is the row set [0, numPos) — the consequent-class rows — as
	// words.
	posWords []uint64

	// recordRejected makes maybeEmit retain the row set of every group the
	// local interestingness filter drops. MineParallel's worker filters are
	// local, so a group's rejection happens either in a worker or in the
	// global fixpoint, and the distinct rejected row sets are what both
	// count (and what a Partial ships). rejectedSeen dedups the events
	// worker-locally, so a row set rediscovered under the pruning-2
	// ablation is Cloned once per worker.
	recordRejected bool
	rejectedSeen   *bitset.Dedup
	rejectedRows   []*bitset.Set

	// emit, when non-nil, streams each kept group out at the moment step 7
	// decides it. The irgEntry store is still retained — the step-7
	// interestingness filter needs the kept row sets — but batch
	// materialization (row-id mapping, lower bounds) happens per group at
	// delivery time.
	emit func(*irgEntry) error

	groups []irgEntry
}

// newMiner builds the per-run miner state. tt, when non-nil, is a prebuilt
// transposed table of d (from a prepared snapshot); nil means build it here.
func newMiner(d *dataset.Dataset, numPos int, opt Options, ex *engine.Exec, tt *dataset.Transposed) *miner {
	n := len(d.Rows)
	if ex == nil {
		ex = engine.NewExec(nil)
	}
	if tt == nil {
		tt = dataset.Transpose(d)
	}
	pos := bitset.New(n)
	for r := 0; r < numPos; r++ {
		pos.Set(r)
	}
	return &miner{
		ds:       d,
		tt:       tt,
		numPos:   numPos,
		n:        n,
		opt:      opt,
		ex:       ex,
		sc:       engine.NewScratch(n),
		posWords: pos.Words(),
	}
}

// resolveView resolves the build phase of one run: the ORD-ordered dataset,
// the row permutation, and — when a prepared snapshot is reused — its
// prebuilt transposed table (nil otherwise, meaning the caller builds one).
// Validation is structural: a snapshot was validated at construction, so
// only its identity against d is checked; a raw dataset is validated here.
func resolveView(d *dataset.Dataset, consequent int, snap *dataset.Snapshot, ex *engine.Exec) (*dataset.Dataset, *dataset.Ordering, *dataset.Transposed, error) {
	if snap != nil && snap.Dataset() != d {
		return nil, nil, nil, fmt.Errorf("core: Prepared snapshot was built from a different dataset")
	}
	if snap == nil {
		if err := d.Validate(); err != nil {
			return nil, nil, nil, err
		}
	}
	if consequent < 0 || consequent >= d.NumClasses() {
		return nil, nil, nil, fmt.Errorf("core: consequent class %d outside [0,%d)", consequent, d.NumClasses())
	}
	if snap == nil {
		ordered, ord := dataset.OrderForConsequent(d, consequent)
		return ordered, ord, nil, nil
	}
	v, err := snap.ForConsequent(consequent)
	if err != nil {
		return nil, nil, nil, err
	}
	ex.Stats.PrepareReused++
	return v.Ordered, v.Ord, v.TT, nil
}

// rootCounts returns the identified counts and the positive-candidate
// count of root node {ri}.
func (m *miner) rootCounts(ri int) (supp, supn, epCount int) {
	if ri < m.numPos {
		return 1, 0, m.numPos - ri - 1
	}
	return 0, 1, 0
}

// searchRow is an inlined binary search for the first index with
// rows[i] >= r — sort.Search without the closure dispatch.
func searchRow(rows []int32, r int32) int {
	lo, hi := 0, len(rows)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rows[mid] < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// appendRows appends the rows of the word set w to dst, ascending.
func appendRows(dst []int32, w []uint64) []int32 {
	for i, x := range w {
		for x != 0 {
			dst = append(dst, int32(i<<6+bits.TrailingZeros64(x)))
			x &= x - 1
		}
	}
	return dst
}

// popcount returns the number of rows in the word set w.
func popcount(w []uint64) int {
	c := 0
	for _, x := range w {
		c += bits.OnesCount64(x)
	}
	return c
}

// run enumerates the children of the (virtual) root: one node per row, in
// ORD order. The root itself corresponds to X = ∅ and emits no rule.
func (m *miner) run() error {
	if m.n == 0 || m.numPos == 0 {
		return nil
	}
	for ri := 0; ri < m.n; ri++ {
		if err := m.mineSpan(ri, ri, m.n); err != nil {
			return err
		}
	}
	return nil
}

// mineSpan mines the depth-2 subtasks (r1, r2) for r2 ∈ [lo, hi) of root
// node {r1}: it opens the root exactly as the sequential traversal does
// (back scan, bounds, Y absorption), then expands only the children
// r2 ∈ E'(r1) ∩ [lo, hi). The span that owns the singleton subtask (lo == r1) is the one
// that counts the root's own events and runs its step 7; any other span
// replays the root silently. The spans of one root therefore partition
// exactly the subtree Mine expands below {r1}, and mineSpan(r1, r1, n) is
// that whole subtree.
func (m *miner) mineSpan(r1, lo, hi int) error {
	supp, supn, epCount := m.rootCounts(r1)
	m.sc.InX.Set(r1)
	defer m.sc.InX.Clear(r1)

	owner := lo == r1
	saved := m.ex.Stats.Counters
	nd, ok, err := m.open(m.ds.Rows[r1].Items, supp, supn, epCount, r1)
	if !owner {
		m.ex.Stats.Counters = saved
		nd.emitOK = false
	}
	if !ok {
		return err
	}
	return m.close(&nd, m.children(&nd, lo, hi))
}

// mineNode is MineIRGs of Figure 5 for the node whose row combination is
// recorded in m.sc.InX (X plus rows absorbed by pruning 1 on the path).
// items is the X-conditional transposed table, supp/supn the counts of
// identified rows containing I(X)∪C and I(X)∪¬C, epCount the number of
// positive enumeration candidates, and rmax the largest explicitly chosen
// row id. A non-nil error aborts the whole traversal (cancellation or a
// failed emission callback).
func (m *miner) mineNode(items []dataset.Item, supp, supn, epCount int, rmax int) error {
	nd, ok, err := m.open(items, supp, supn, epCount, rmax)
	if !ok {
		return err
	}
	return m.close(&nd, m.children(&nd, 0, m.n))
}

// node is an opened enumeration node between its open and close: the
// X-conditional table and its scan (candidate rows E', absorbed rows Y and
// the identified-row counts after absorption). Its buffers live on the
// arena above mark.
type node struct {
	nodeScan
	items  []dataset.Item
	emitOK bool
	mark   engine.ArenaMark
}

// open runs steps 1–5 of Figure 5 on a node. ok=false means the node was
// pruned (or is empty, or err is non-nil) and needs no close; otherwise Y
// has been absorbed into m.sc.InX and the caller must close the node.
func (m *miner) open(items []dataset.Item, supp, supn, epCount int, rmax int) (nd node, ok bool, err error) {
	if err := m.ex.EnterNode(); err != nil {
		return nd, false, err
	}
	if len(items) == 0 {
		return nd, false, nil // I(X) = ∅: no rule here and no deeper candidates
	}

	// Step 1 — pruning strategy 2 (back scan, Lemma 3.6).
	emitOK := true
	if m.backScanHit(items, rmax) {
		if !m.opt.DisablePruning2 {
			m.ex.Stats.PrunedBackScan++
			return nd, false, nil
		}
		// Ablation mode: keep traversing, but this node's group was (or
		// will be) found at its compressed twin; emitting here would
		// report a wrong row set.
		emitOK = false
	}

	// Step 2 — pruning strategy 3, loose bounds (before scanning).
	if !m.opt.DisablePruning3 {
		us2 := supp + epCount
		if us2 < m.opt.MinSup {
			m.ex.Stats.PrunedLooseBound++
			return nd, false, nil
		}
		if m.opt.needsConfBound() {
			if uc2 := float64(us2) / float64(us2+supn); m.confBoundFails(uc2) {
				m.ex.Stats.PrunedLooseBound++
				return nd, false, nil
			}
		}
	}

	// Everything from here on allocates on the arena and pops at close.
	mark := m.sc.A.Mark()

	// Step 3 — scan the conditional table. With pruning 1 disabled, rows
	// in every tuple stay ordinary candidates, the node's counts exclude
	// them, and the node must not emit: its row set is not closed, and
	// the fully explicit descendant will report the group.
	sc := m.scanNode(items, rmax, supp, supn, !m.opt.DisablePruning1)
	if sc.inAll {
		emitOK = false
	}
	m.ex.Stats.RowsAbsorbed += int64(len(sc.yRows))

	// Step 4 — pruning strategy 3, tight bounds (after scanning).
	if !m.opt.DisablePruning3 && m.tightBoundPrunes(sc.suppIn+sc.maxPos, sc.supp, sc.supn) {
		m.sc.A.Release(mark)
		return nd, false, nil
	}

	// Step 5 — pruning strategy 1: absorb Y into the node's row set, which
	// drops it from every tuple's candidates (Lemma 3.5).
	for _, r := range sc.yRows {
		m.sc.InX.Set(int(r))
	}
	return node{nodeScan: sc, items: items, emitOK: emitOK, mark: mark}, true, nil
}

// nodeScan is the outcome of scanNode: step 3 of Figure 5 over a node's
// conditional table.
type nodeScan struct {
	eRows []int32 // E': candidates in some but not every tuple, ascending
	yRows []int32 // Y: candidates in every tuple, ascending (absorbed)
	supp  int     // identified positive rows after absorbing Y
	supn  int     // identified negative rows after absorbing Y
	// suppIn is the positive count before absorption and maxPos the
	// largest per-tuple positive-candidate count: suppIn+maxPos is Us1.
	suppIn, maxPos int
	// inAll reports, when absorption is off, that some candidate was in
	// every tuple (it stayed in eRows).
	inAll bool
}

// scanNode is step 3 of Figure 5, the one table scan behind Mine, the
// top-k walk and the anytime searches, for the node whose last chosen row
// is rmax. Per item it takes the tuple — the item's row words masked to
// the node's candidates, the rows after rmax off the path — and
// accumulates the U set (rows in ≥1 tuple), the Y set (rows in every
// tuple) and the per-tuple positive-candidate maximum for Us1; E' = U − Y.
// supp/supn are the node's identified counts before absorption. With
// absorb false (the pruning-1 ablation) Y stays in E' and the counts
// exclude it. The row lists live on the arena inside the caller's mark.
func (m *miner) scanNode(items []dataset.Item, rmax int, supp, supn int, absorb bool) nodeScan {
	cand, union, all := m.sc.RowWords[0], m.sc.RowWords[1], m.sc.RowWords[2]
	inX := m.sc.InX.Words()
	for w := range cand {
		after := ^uint64(0) // rows > rmax in word w
		switch lo := w * 64; {
		case rmax >= lo+64:
			after = 0
		case rmax >= lo:
			after <<= uint(rmax-lo) + 1
		}
		cand[w] = after &^ inX[w]
	}
	clear(union)
	copy(all, cand)
	sc := nodeScan{suppIn: supp}
	for _, it := range items {
		iw := m.tt.ItemWords(it)
		np := 0
		for w, c := range cand {
			t := iw[w] & c
			union[w] |= t
			all[w] &= t
			np += bits.OnesCount64(t & m.posWords[w])
		}
		sc.maxPos = max(sc.maxPos, np)
	}

	// all is Y; union becomes E'.
	yPos, yAll := 0, 0
	for w, y := range all {
		if absorb {
			union[w] &^= y
			yPos += bits.OnesCount64(y & m.posWords[w])
			yAll += bits.OnesCount64(y)
		} else if y != 0 {
			sc.inAll = true
		}
	}
	sc.eRows = appendRows(m.sc.A.I32.Alloc(popcount(union))[:0], union)
	if yAll > 0 {
		sc.yRows = appendRows(m.sc.A.I32.Alloc(yAll)[:0], all)
	}
	sc.supp = supp + yPos
	sc.supn = supn + yAll - yPos
	return sc
}

// tightBoundPrunes evaluates the step-4 bounds of a scanned node — Us1 and
// Uc1, then the chi-square and gain vertex bounds at the absorbed counts —
// and counts the first one that prunes it.
func (m *miner) tightBoundPrunes(us1, supp, supn int) bool {
	c := &m.ex.Stats.Counters
	switch {
	case us1 < m.opt.MinSup:
		c.PrunedTightBound++
	case m.opt.needsConfBound() && m.confBoundFails(float64(us1)/float64(us1+supn)):
		c.PrunedTightBound++
	case m.opt.MinChi > 0 && stats.Chi2UpperBound(supp+supn, supp, m.n, m.numPos) < m.opt.MinChi:
		c.PrunedChiBound++
	case m.opt.MinEntropyGain > 0 && stats.EntropyGainUpperBound(supp+supn, supp, m.n, m.numPos) < m.opt.MinEntropyGain:
		c.PrunedGainBound++
	case m.opt.MinGiniGain > 0 && stats.GiniGainUpperBound(supp+supn, supp, m.n, m.numPos) < m.opt.MinGiniGain:
		c.PrunedGainBound++
	default:
		return false
	}
	return true
}

// children is step 6 of Figure 5 over the candidates r ∈ E' ∩ [lo, hi),
// in ORD order.
func (m *miner) children(nd *node, lo, hi int) error {
	eRows := nd.eRows
	pLo, pHi := searchRow(eRows, int32(lo)), searchRow(eRows, int32(hi))
	if pLo >= pHi {
		return nil
	}
	span := eRows[pLo:pHi]
	tables, offs := m.childTables(nd.items, span)
	posBoundary := searchRow(eRows, int32(m.numPos))
	for p, r := range span {
		ca, cb, ep := m.childCounts(nd.supp, nd.supn, r, pLo+p, posBoundary)
		m.sc.InX.Set(int(r))
		err := m.mineNode(tables[offs[p]:offs[p+1]], ca, cb, ep, int(r))
		m.sc.InX.Clear(int(r))
		if err != nil {
			return err
		}
	}
	return nil
}

// childTables builds the conditional tables of the children r ∈ span of
// an opened node (Y already absorbed); span is an ascending run of the
// node's E'. Child r's table is every item whose tuple contains r
// (Lemma 3.3) — whose row words hold r, since r is a candidate. All
// children are built in two passes over the items' words masked to span:
// a dense row → position table (Scratch.Pos) counts each child's items,
// then the fill pass writes each item straight into its child's slot,
// keeping the parent's item order. Child p is tables[offs[p]:offs[p+1]],
// on the arena inside the caller's mark.
func (m *miner) childTables(items []dataset.Item, span []int32) (tables []dataset.Item, offs []int32) {
	pos, mask := m.sc.Pos, m.sc.RowWords[0]
	clear(mask)
	for p, r := range span {
		pos[r] = int32(p)
		mask[r>>6] |= 1 << (uint(r) & 63)
	}
	offs = m.sc.A.I32.Alloc(len(span) + 1)
	for _, it := range items {
		iw := m.tt.ItemWords(it)
		for w, x := range mask {
			for b := iw[w] & x; b != 0; b &= b - 1 {
				offs[pos[w<<6+bits.TrailingZeros64(b)]+1]++
			}
		}
	}
	for p := range span {
		offs[p+1] += offs[p]
	}
	tables = m.sc.A.I32.Alloc(int(offs[len(span)]))
	fill := m.sc.A.I32.Alloc(len(span))
	for _, it := range items {
		iw := m.tt.ItemWords(it)
		for w, x := range mask {
			for b := iw[w] & x; b != 0; b &= b - 1 {
				p := pos[w<<6+bits.TrailingZeros64(b)]
				tables[offs[p]+fill[p]] = it
				fill[p]++
			}
		}
	}
	return tables, offs
}

// childCounts returns the identified counts and positive-candidate count
// of the child reached by choosing candidate r of a node with identified
// counts supp/supn, where p is r's index in the node's ascending E' and
// posBoundary the number of positive rows in E'.
func (m *miner) childCounts(supp, supn int, r int32, p, posBoundary int) (ca, cb, epCount int) {
	if int(r) < m.numPos {
		return supp + 1, supn, posBoundary - p - 1
	}
	return supp, supn + 1, 0
}

// close finishes an opened node once its children ran with outcome err:
// step 7 — emit I(X) → C if it is the upper bound of an IRG satisfying the
// constraints, after all descendants (Lemma 3.4) — only when err is nil,
// then pop Y from the row set and the node's buffers from the arena.
func (m *miner) close(nd *node, err error) error {
	if err == nil && nd.emitOK {
		err = m.maybeEmit(nd.items, nd.supp, nd.supn)
	}
	for _, r := range nd.yRows {
		m.sc.InX.Clear(int(r))
	}
	m.sc.A.Release(nd.mark)
	return err
}

// maybeEmit applies the step-7 constraint and interestingness checks for
// the current node, whose row set R(I(X)) is m.sc.InX. A kept group is
// final the moment it is appended (later discoveries are more specific or
// incomparable, so they can never displace it — see MineStream), which is
// what makes streaming delivery sound.
func (m *miner) maybeEmit(items []dataset.Item, supp, supn int) error {
	// After cancellation nothing more is delivered: the unwind path from a
	// cancelled descendant passes through the step-7 calls of every
	// ancestor, which would otherwise still emit.
	if err := m.ex.Err(); err != nil {
		return err
	}
	if supp < m.opt.MinSup {
		return nil
	}
	tot := supp + supn
	conf := float64(supp) / float64(tot)
	if conf < m.opt.MinConf {
		return nil
	}
	chi := stats.Chi2(tot, supp, m.n, m.numPos)
	if m.opt.MinChi > 0 && chi < m.opt.MinChi {
		return nil
	}
	if m.opt.MinLift > 0 && stats.Lift(tot, supp, m.n, m.numPos) < m.opt.MinLift {
		return nil
	}
	if m.opt.MinConviction > 0 && stats.Conviction(tot, supp, m.n, m.numPos) < m.opt.MinConviction {
		return nil
	}
	if m.opt.MinEntropyGain > 0 && stats.EntropyGain(tot, supp, m.n, m.numPos) < m.opt.MinEntropyGain {
		return nil
	}
	if m.opt.MinGiniGain > 0 && stats.GiniGain(tot, supp, m.n, m.numPos) < m.opt.MinGiniGain {
		return nil
	}
	// Interestingness: every already-kept group with a subset antecedent —
	// equivalently a proper superset row set (both sets are closed) — must
	// have strictly lower confidence. An equal row set means this very
	// group was already kept.
	inX := m.sc.InX
	for i := range m.groups {
		e := &m.groups[i]
		if e.rows.SupersetOf(inX) {
			if e.rows.Equal(inX) {
				return nil // duplicate discovery (possible only in ablation modes)
			}
			if !confLess(e.supPos, e.tot, supp, tot) {
				m.ex.Stats.GroupsNotInterest++
				if m.recordRejected {
					if m.rejectedSeen == nil {
						m.rejectedSeen = bitset.NewDedup()
					}
					if !m.rejectedSeen.Contains(inX) {
						c := inX.Clone()
						m.rejectedSeen.Add(c)
						m.rejectedRows = append(m.rejectedRows, c)
					}
				}
				return nil
			}
		}
	}
	m.groups = append(m.groups, irgEntry{
		rows:   inX.Clone(),
		supPos: supp,
		tot:    tot,
		items:  slices.Clone(items),
		chi:    chi,
	})
	m.ex.Stats.GroupsEmitted++
	if m.emit != nil {
		return m.emit(&m.groups[len(m.groups)-1])
	}
	return nil
}

// confBoundFails reports whether a confidence upper bound already violates
// one of the confidence-monotone constraints (minconf, and through it lift
// and conviction: both are strictly increasing functions of confidence for
// fixed margins n, m).
func (m *miner) confBoundFails(confUB float64) bool {
	if m.opt.MinConf > 0 && confUB < m.opt.MinConf {
		return true
	}
	if m.opt.MinLift > 0 && confUB*float64(m.n)/float64(m.numPos) < m.opt.MinLift {
		return true
	}
	if m.opt.MinConviction > 0 && confUB < 1 {
		conv := (1 - float64(m.numPos)/float64(m.n)) / (1 - confUB)
		if conv < m.opt.MinConviction {
			return true
		}
	}
	return false
}

// backScanHit implements the detection of Lemma 3.6: is there a row r0 with
// r0 < rmax, r0 ∉ X ∪ Yacc, occurring in every tuple of the node? Such a
// row proves every upper bound below this node was already discovered at an
// earlier or compressed node. The scan is word-parallel over the items'
// global row sets: start from [0, rmax) minus m.sc.InX and AND in each
// item's row words, stopping as soon as nothing survives.
func (m *miner) backScanHit(items []dataset.Item, rmax int) bool {
	if len(items) == 0 || rmax == 0 {
		return false
	}
	nw := (rmax + 63) >> 6
	acc := m.sc.RowWords[0][:nw]
	for w, x := range m.sc.InX.Words()[:nw] {
		acc[w] = ^x
	}
	if tail := uint(rmax) & 63; tail != 0 {
		acc[nw-1] &= 1<<tail - 1
	}
	for _, it := range items {
		iw := m.tt.ItemWords(it)[:nw]
		var live uint64
		for w := range acc {
			acc[w] &= iw[w]
			live |= acc[w]
		}
		if live == 0 {
			return false
		}
	}
	return true
}

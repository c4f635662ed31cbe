package core

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

// tuple is one row of a conditional transposed table: an item together with
// the enumeration-candidate rows it contains at the current node. The Rows
// slice is a view into an ancestor's storage and is never mutated. It is
// the engine's shared Tuple so conditional tables live on the engine arena.
type tuple = engine.Tuple

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
	// along the current path: the exclusion set of the back scan and, at
	// step 7, exactly R(I(X)) (see DESIGN.md). sc.Cnt/sc.Stamp are the
	// epoch-stamped per-row counters shared by the candidate scan and the
	// back scan; each pass bumps the epoch instead of clearing.
	sc *engine.Scratch

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
	return &miner{
		ds:     d,
		tt:     tt,
		numPos: numPos,
		n:      n,
		opt:    opt,
		ex:     ex,
		sc:     engine.NewScratch(n),
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

// rootTuples builds the conditional transposed table of root node {ri}: one
// tuple per item of row ri, with the item's global occurrences after ri as
// candidates. The table lives on the arena; the caller owns the enclosing
// mark.
func (m *miner) rootTuples(ri int) []tuple {
	row := &m.ds.Rows[ri]
	tuples := m.sc.A.Tup.Alloc(len(row.Items))
	for i, it := range row.Items {
		list := m.tt.Lists[it]
		k := sort.Search(len(list), func(i int) bool { return list[i] > int32(ri) })
		tuples[i] = tuple{Item: it, Rows: list[k:]}
	}
	return tuples
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
// (back scan, bounds, Y absorption, cleaned table), then expands only the
// children r2 ∈ E'(r1) ∩ [lo, hi), each built from the root's cleaned
// table. The span that owns the singleton subtask (lo == r1) is the one
// that counts the root's own events and runs its step 7; any other span
// replays the root silently. The spans of one root therefore partition
// exactly the subtree Mine expands below {r1}, and mineSpan(r1, r1, n) is
// that whole subtree.
func (m *miner) mineSpan(r1, lo, hi int) error {
	mark := m.sc.A.Mark()
	defer m.sc.A.Release(mark)
	tuples := m.rootTuples(r1)
	supp, supn := 0, 0
	if r1 < m.numPos {
		supp = 1
	} else {
		supn = 1
	}
	epCount := m.numPos - r1 - 1 // positive candidates after r1
	if epCount < 0 {
		epCount = 0
	}
	m.sc.InX.Set(r1)
	defer m.sc.InX.Clear(r1)

	owner := lo == r1
	saved := m.ex.Stats.Counters
	nd, ok, err := m.open(tuples, supp, supn, epCount, r1)
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
// tuples is the X-conditional transposed table, supp/supn the counts of
// identified rows containing I(X)∪C and I(X)∪¬C, epCount the number of
// positive enumeration candidates, and rmax the largest explicitly chosen
// row id. A non-nil error aborts the whole traversal (cancellation or a
// failed emission callback).
func (m *miner) mineNode(tuples []tuple, supp, supn, epCount int, rmax int) error {
	nd, ok, err := m.open(tuples, supp, supn, epCount, rmax)
	if !ok {
		return err
	}
	return m.close(&nd, m.children(&nd, 0, m.n))
}

// node is an opened enumeration node between its open and close: the
// X-conditional table, its Y-cleaned candidate lists, the candidate rows
// E' and absorbed rows Y, and the identified-row counts after absorption.
// Its buffers live on the arena above mark.
type node struct {
	tuples     []tuple
	cleaned    [][]int32
	eRows      []int32
	yRows      []int32
	supp, supn int
	emitOK     bool
	mark       engine.ArenaMark
}

// open runs steps 1–5 of Figure 5 on a node. ok=false means the node was
// pruned (or is empty, or err is non-nil) and needs no close; otherwise Y
// has been absorbed into m.sc.InX and the caller must close the node.
func (m *miner) open(tuples []tuple, supp, supn, epCount int, rmax int) (nd node, ok bool, err error) {
	if err := m.ex.EnterNode(); err != nil {
		return nd, false, err
	}
	if len(tuples) == 0 {
		return nd, false, nil // I(X) = ∅: no rule here and no deeper candidates
	}

	// Step 1 — pruning strategy 2 (back scan, Lemma 3.6).
	emitOK := true
	if m.backScanHit(tuples, rmax) {
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

	// Step 3 — scan the conditional table: per-candidate occurrence counts,
	// the U set (rows in ≥1 tuple), the Y set (rows in every tuple), and
	// the per-tuple positive-candidate maximum for Us1.
	ep := m.sc.NextEpoch()
	cnt, stamp := m.sc.Cnt, m.sc.Stamp
	ntup := int32(len(tuples))
	maxPosInTuple := 0
	distinct := 0
	for _, t := range tuples {
		if len(t.Rows) == 0 {
			continue
		}
		// Candidates are sorted with positives (< numPos) first.
		if pos := sort.Search(len(t.Rows), func(i int) bool { return t.Rows[i] >= int32(m.numPos) }); pos > maxPosInTuple {
			maxPosInTuple = pos
		}
		for _, r := range t.Rows {
			if stamp[r] != ep {
				stamp[r] = ep
				cnt[r] = 0
				distinct++
			}
			cnt[r]++
		}
	}

	// Classify the union U into Y (in every tuple) and E' = U − Y, packed
	// into one arena buffer: E' grows from the front, Y from the back.
	// With pruning 1 disabled, Y rows stay ordinary candidates, the node's
	// counts exclude them, and the node must not emit: its row set is not
	// closed, and the fully explicit descendant will report the group.
	union := m.sc.A.I32.Alloc(distinct)
	ne, ny := 0, 0
	yPos, yNeg := 0, 0
	for _, t := range tuples {
		for _, r := range t.Rows {
			if stamp[r] != ep || cnt[r] < 0 {
				continue // already classified
			}
			if cnt[r] == ntup {
				if m.opt.DisablePruning1 {
					emitOK = false
					union[ne] = r
					ne++
				} else {
					ny++
					union[distinct-ny] = r
					if int(r) < m.numPos {
						yPos++
					} else {
						yNeg++
					}
				}
			} else {
				union[ne] = r
				ne++
			}
			cnt[r] = -1 // classified
		}
	}
	eRows, yRows := union[:ne], union[ne:]
	slices.Sort(eRows)

	m.ex.Stats.RowsAbsorbed += int64(len(yRows))
	suppIn := supp // γ'.sup plus this node's chosen row, per the Us1 formula
	supp += yPos
	supn += yNeg

	// Step 4 — pruning strategy 3, tight bounds (after scanning).
	if !m.opt.DisablePruning3 && m.tightBoundPrunes(suppIn+maxPosInTuple, supp, supn) {
		m.sc.A.Release(mark)
		return nd, false, nil
	}

	// Step 5 — pruning strategy 1: absorb Y into the node's row set and
	// drop it from every tuple's candidate list (Lemma 3.5).
	for _, r := range yRows {
		m.sc.InX.Set(int(r))
	}
	cleaned := m.sc.A.Rows.Alloc(len(tuples))
	if len(yRows) == 0 {
		for i := range tuples {
			cleaned[i] = tuples[i].Rows
		}
	} else {
		slices.Sort(yRows)
		total := 0
		for i := range tuples {
			total += len(tuples[i].Rows) - len(yRows) // Y is in every tuple
		}
		backing := m.sc.A.I32.Alloc(total)
		w := 0
		for i := range tuples {
			start := w
			yi := 0
			for _, r := range tuples[i].Rows {
				for yi < len(yRows) && yRows[yi] < r {
					yi++
				}
				if yi < len(yRows) && yRows[yi] == r {
					continue
				}
				backing[w] = r
				w++
			}
			cleaned[i] = backing[start:w:w]
		}
	}
	return node{
		tuples:  tuples,
		cleaned: cleaned,
		eRows:   eRows,
		yRows:   yRows,
		supp:    supp,
		supn:    supn,
		emitOK:  emitOK,
		mark:    mark,
	}, true, nil
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
// in ORD order. Each child's tuples are exactly the node's tuples that
// contain r, with candidate rows > r (Lemma 3.3). The tuple lists per
// candidate are laid out in one flat counted array; candidate positions
// come from binary search in the sorted E' (candidate counts are tiny
// compared to tuple counts).
func (m *miner) children(nd *node, lo, hi int) error {
	eRows := nd.eRows
	pLo := sort.Search(len(eRows), func(i int) bool { return eRows[i] >= int32(lo) })
	pHi := sort.Search(len(eRows), func(i int) bool { return eRows[i] >= int32(hi) })
	if pLo >= pHi {
		return nil
	}
	span := eRows[pLo:pHi]
	first, last := span[0], span[len(span)-1]
	posOf := func(r int32) int {
		return sort.Search(len(span), func(i int) bool { return span[i] >= r })
	}
	cleaned := nd.cleaned
	counts := m.sc.A.I32.Alloc(len(span) + 1)
	for ti := range cleaned {
		for _, r := range cleaned[ti] {
			if r > last {
				break
			}
			if r >= first {
				counts[posOf(r)+1]++
			}
		}
	}
	for i := 1; i <= len(span); i++ {
		counts[i] += counts[i-1]
	}
	flat := m.sc.A.I32.Alloc(int(counts[len(span)]))
	fill := m.sc.A.I32.Alloc(len(span))
	for ti := range cleaned {
		for _, r := range cleaned[ti] {
			if r > last {
				break
			}
			if r >= first {
				p := posOf(r)
				flat[int(counts[p])+int(fill[p])] = int32(ti)
				fill[p]++
			}
		}
	}
	posBoundary := sort.Search(len(eRows), func(i int) bool { return eRows[i] >= int32(m.numPos) })
	childBacking := m.sc.A.Tup.Alloc(int(counts[len(span)]))
	for p, r := range span {
		tis := flat[counts[p]:counts[p+1]]
		child := childBacking[counts[p]:counts[p]:counts[p+1]]
		for _, ti := range tis {
			rows := cleaned[ti]
			k := sort.Search(len(rows), func(i int) bool { return rows[i] > r })
			child = append(child, tuple{Item: nd.tuples[ti].Item, Rows: rows[k:]})
		}
		ca, cb := nd.supp, nd.supn
		childEp := 0
		if int(r) < m.numPos {
			ca++
			childEp = posBoundary - (pLo + p) - 1
		} else {
			cb++
		}
		m.sc.InX.Set(int(r))
		err := m.mineNode(child, ca, cb, childEp, int(r))
		m.sc.InX.Clear(int(r))
		if err != nil {
			return err
		}
	}
	return nil
}

// close finishes an opened node once its children ran with outcome err:
// step 7 — emit I(X) → C if it is the upper bound of an IRG satisfying the
// constraints, after all descendants (Lemma 3.4) — only when err is nil,
// then pop Y from the row set and the node's buffers from the arena.
func (m *miner) close(nd *node, err error) error {
	if err == nil && nd.emitOK {
		err = m.maybeEmit(nd.tuples, nd.supp, nd.supn)
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
func (m *miner) maybeEmit(tuples []tuple, supp, supn int) error {
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
	items := make([]dataset.Item, len(tuples))
	for i, t := range tuples {
		items[i] = t.Item
	}
	slices.Sort(items)
	m.groups = append(m.groups, irgEntry{
		rows:   inX.Clone(),
		supPos: supp,
		tot:    tot,
		items:  items,
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
// earlier or compressed node. The scan walks the prefixes of the tuples'
// global row lists (the "back scan" of §3.3).
func (m *miner) backScanHit(tuples []tuple, rmax int) bool {
	if len(tuples) == 0 || rmax == 0 {
		return false
	}
	ep := m.sc.NextEpoch()
	cnt, stamp := m.sc.Cnt, m.sc.Stamp
	inX := m.sc.InX
	ntup := int32(len(tuples))
	for ti, t := range tuples {
		glist := m.tt.Lists[t.Item]
		hitAny := false
		for _, r := range glist {
			if int(r) >= rmax {
				break
			}
			if inX.Test(int(r)) {
				continue
			}
			if ti == 0 {
				stamp[r] = ep
				cnt[r] = 1
				if ntup == 1 {
					return true
				}
				hitAny = true
				continue
			}
			if stamp[r] == ep && cnt[r] == int32(ti) {
				cnt[r]++
				if cnt[r] == ntup {
					return true
				}
				hitAny = true
			}
		}
		if !hitAny {
			return false // some tuple contributes no surviving prefix row
		}
	}
	return false
}

package core

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// Strategy selects how TopK explores the row-enumeration lattice.
type Strategy int

const (
	// StrategyExact, the zero value, runs the best-first search below:
	// unbudgeted it is exhaustive and exact. It and StrategyBestFirst are
	// one run under two names.
	StrategyExact Strategy = iota
	// StrategyBestFirst expands frontier nodes in descending order of
	// their convex upper bound, so the top-k heap is valid best-so-far at
	// every instant and the certified optimality gap (best outstanding
	// bound minus the k-th score) shrinks monotonically. Exhausted, it
	// returns the exact top-k.
	StrategyBestFirst
	// StrategyLeap is the sLeap-style relaxed pruner: a subtree is cut as
	// soon as its bound cannot improve the current k-th score by more than
	// the factor Delta, trading a certified (1+Delta)-bounded gap for a
	// much smaller search.
	StrategyLeap
	// StrategySample abandons systematic search for seeded, bound-weighted
	// random walks down the row lattice, admitting every closed group the
	// walks touch. It needs a node or wall-clock budget and certifies no
	// gap.
	StrategySample
)

// String returns the strategy's canonical name, as accepted by
// ParseStrategy and the service's "quality" knob.
func (s Strategy) String() string {
	switch s {
	case StrategyBestFirst:
		return "best_first"
	case StrategyLeap:
		return "leap"
	case StrategySample:
		return "sample"
	default:
		return "exact"
	}
}

// ParseStrategy maps a canonical strategy name back to its Strategy; the
// empty string parses as StrategyExact.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "exact", "":
		return StrategyExact, nil
	case "best_first":
		return StrategyBestFirst, nil
	case "leap":
		return StrategyLeap, nil
	case "sample":
		return StrategySample, nil
	}
	return 0, fmt.Errorf("core: unknown strategy %q (want exact, best_first, leap or sample)", name)
}

// anytimeTask is one unexpanded node of the frontier search. Unlike
// Mine's depth-first recursion — whose conditional tables live on the
// arena and die on unwind — a frontier task outlives its parent's
// expansion arbitrarily, so everything it references must survive off the
// arena. Tasks are lazy: a child enqueued by expand carries only its
// parent's conditional table (pitems, heap-retained and shared by all
// siblings), its parent's path and the branch row to descend to; its own
// table is derived at pop time.
// A task pruned at pop — the common fate once the admission threshold
// rises — therefore costs nothing beyond its struct. A root task's table
// is its row's item list, immutable for the run.
type anytimeTask struct {
	// bound is the convex vertex bound computed from the node's identified
	// counts at enqueue time: a sound upper bound on every score in the
	// subtree (the Lemma 3.9 parallelogram only shrinks downward), and the
	// best-first priority.
	bound float64
	// seq is the enqueue sequence number: the heap's tie-break, so a
	// sequential run pops equal-bound tasks in a deterministic order.
	seq uint64

	// items is the node's conditional table (roots only); nil marks a
	// lazy task, whose table is derived from pitems at pop.
	items []dataset.Item
	// pitems is the parent's conditional table, shared by every sibling.
	pitems []dataset.Item
	// row is the explicitly chosen row this task descends to — the lazy
	// materialization key, the back-scan anchor (chosen rows only grow
	// down a path), and the last element of the node's path.
	row int32
	// basePath is the parent's full path (chosen + absorbed rows), shared
	// by every sibling; the node's own path is basePath plus row.
	basePath []int32
	supp     int // identified positive rows (chosen + absorbed on the path)
	supn     int // identified negative rows
	epCount  int // positive enumeration candidates remaining
}

// childItems appends to dst the conditional table of the child reached by
// descending from a parent table to its candidate row r: the parent items
// whose tuples hold r (Lemma 3.3). A parent tuple is its item's global row
// set restricted to the parent's candidates, and r is one of them, so
// membership is one word test.
func (m *miner) childItems(dst, parent []dataset.Item, r int32) []dataset.Item {
	wi, bit := int(r>>6), uint64(1)<<(uint(r)&63)
	for _, it := range parent {
		if m.tt.ItemWords(it)[wi]&bit != 0 {
			dst = append(dst, it)
		}
	}
	return dst
}

// taskHeap is a max-heap on bound. Shallow nodes tie at near-maximal
// bounds in droves (the vertex bound is loosest there), so ties prefer the
// task with more identified rows — deeper in the lattice, closer to real
// scores, and with a tighter effective bound — before falling back to
// enqueue order, which keeps sequential runs deterministic.
type taskHeap []*anytimeTask

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	if h[i].bound != h[j].bound {
		return h[i].bound > h[j].bound
	}
	if di, dj := h[i].supp+h[i].supn, h[j].supp+h[j].supn; di != dj {
		return di > dj
	}
	return h[i].seq < h[j].seq
}
func (h taskHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)   { *h = append(*h, x.(*anytimeTask)) }
func (h *taskHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return x
}

// scoredEntry is one kept top-k candidate: the group and its score.
type scoredEntry struct {
	irgEntry
	score float64
}

// canonWorse is the canonical total order on candidate groups: a ranks
// strictly below b when its score is lower, then when its support is
// lower, then when its antecedent is lexicographically larger. Admission
// under this order — never under score alone — is what makes the anytime
// answer independent of expansion order and worker count: the kept set is
// exactly the k maximal elements of the enumerated candidates.
func canonWorse(a, b *scoredEntry) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	if a.supPos != b.supPos {
		return a.supPos < b.supPos
	}
	return lessItems(b.items, a.items)
}

// canonHeap is a min-heap under canonWorse: the root is the evictable
// worst of the kept k.
type canonHeap []scoredEntry

func (h canonHeap) Len() int           { return len(h) }
func (h canonHeap) Less(i, j int) bool { return canonWorse(&h[i], &h[j]) }
func (h canonHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *canonHeap) Push(x any)        { *h = append(*h, x.(scoredEntry)) }
func (h *canonHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// anytimeSearch is the shared state of one anytime run: the frontier, the
// canonical top-k heap, and the stop/gap bookkeeping. Workers hold mu for
// every heap access and for admission; node expansion itself (the scan)
// runs outside the lock on per-worker scratch.
type anytimeSearch struct {
	k       int
	minsup  int
	n       int
	numPos  int
	delta   float64
	measure Measure
	// boundTab and valueTab memoize the measure over its whole domain —
	// the identified counts (supp, supn) range over [0, numPos] × [0,
	// n-numPos], a few thousand cells even at paper scale — so the
	// per-child bound evaluation in the expansion hot loop is one indexed
	// load instead of a convex-corner evaluation. Values are bit-identical
	// to calling the measure directly (the same routine fills the table).
	boundTab []float64
	valueTab []float64
	negWidth int

	mu       sync.Mutex
	cond     *sync.Cond
	frontier taskHeap
	best     canonHeap
	seq      uint64
	active   int
	inFlight []float64 // per-worker bound of the task being expanded
	stopped  bool
	stopErr  error // context cancellation, propagated; budget stops stay nil
	// unfinished records the bounds of tasks whose expansion was cut off
	// by the budget: their subtrees are unexplored, so they stay part of
	// the gap certificate.
	unfinished []float64
	// maxPruned is the largest bound among delta-pruned subtrees — the
	// leap strategy's contribution to the gap certificate.
	maxPruned float64
	anyPruned bool
	// dedup, for the sampler only, maps an admitted group's antecedent key
	// to struct{}: random walks rediscover the same closed group freely,
	// and without back-scan pruning the heap-not-full phase would admit it
	// twice.
	dedup map[string]struct{}

	sharedNodes atomic.Int64
}

// fillTables computes the memoized bound and value of every reachable
// (supp, supn) pair.
func (s *anytimeSearch) fillTables() {
	nneg := s.n - s.numPos
	s.negWidth = nneg + 1
	s.boundTab = make([]float64, (s.numPos+1)*s.negWidth)
	s.valueTab = make([]float64, (s.numPos+1)*s.negWidth)
	for supp := 0; supp <= s.numPos; supp++ {
		for supn := 0; supn <= nneg; supn++ {
			i := supp*s.negWidth + supn
			s.boundTab[i] = s.measure.bound(supp+supn, supp, s.n, s.numPos)
			s.valueTab[i] = s.measure.value(supp+supn, supp, s.n, s.numPos)
		}
	}
}

func (s *anytimeSearch) boundAt(supp, supn int) float64 {
	return s.boundTab[supp*s.negWidth+supn]
}

func (s *anytimeSearch) valueAt(supp, supn int) float64 {
	return s.valueTab[supp*s.negWidth+supn]
}

// pruneBoundLocked decides whether a subtree with the given bound is cut
// against the current k-th score. The comparison is strict — a bound equal
// to the k-th score survives — so every candidate tied at the final
// threshold is enumerated and the canonical admission order alone decides
// the kept set, independent of expansion schedule. With delta > 0 the
// threshold is inflated to kth*(1+delta) (sLeap), and the cut's bound is
// recorded for the gap certificate. Callers hold mu.
func (s *anytimeSearch) pruneBoundLocked(bound float64, ex *engine.Exec) bool {
	if len(s.best) < s.k {
		return false
	}
	kth := s.best[0].score
	if bound < kth {
		ex.Stats.PrunedGainBound++
		return true
	}
	if s.delta > 0 && bound < kth*(1+s.delta) {
		ex.Stats.PrunedGainBound++
		s.anyPruned = true
		if bound > s.maxPruned {
			s.maxPruned = bound
		}
		return true
	}
	return false
}

// admitLocked offers one scored candidate to the top-k heap under the
// canonical order. items may live on the worker's arena and the node's
// closed row set is m's InX: both are cloned only on admission. Callers
// hold mu.
func (s *anytimeSearch) admitLocked(ex *engine.Exec, m *miner, items []dataset.Item, score float64, supp, supn int) {
	cand := scoredEntry{score: score}
	cand.supPos = supp
	cand.tot = supp + supn
	cand.items = items
	if len(s.best) == s.k && !canonWorse(&s.best[0], &cand) {
		return
	}
	if s.dedup != nil {
		key := itemsKey(items)
		if _, seen := s.dedup[key]; seen {
			return
		}
		s.dedup[key] = struct{}{}
	}
	cand.items = slices.Clone(items)
	cand.rows = m.sc.InX.Clone()
	heap.Push(&s.best, cand)
	if len(s.best) > s.k {
		heap.Pop(&s.best)
	}
	ex.Stats.GroupsEmitted++
}

// itemsKey renders a sorted antecedent as a map key for the sampler's
// admission dedup.
func itemsKey(items []dataset.Item) string {
	b := make([]byte, 0, len(items)*3)
	for _, it := range items {
		b = append(b, byte(it), byte(it>>8), byte(it>>16))
	}
	return string(b)
}

// enqueueLocked pushes a task unless its bound is already prunable.
// Callers hold mu.
func (s *anytimeSearch) enqueueLocked(t *anytimeTask, ex *engine.Exec) {
	if s.pruneBoundLocked(t.bound, ex) {
		return
	}
	s.seq++
	t.seq = s.seq
	heap.Push(&s.frontier, t)
	s.cond.Signal()
}

// expand runs steps 1–6 of the conditional-table node for task t on worker
// m: lazy-task materialization, back scan, support bounds, scan/absorption,
// admission of the node's own group, and enqueueing of its children as lazy
// frontier tasks. It is the unit of budget accounting: one EnterNode per
// call, so a budget stop truncates the search within one expansion.
//
// The highest-bound surviving child is returned instead of enqueued: the
// worker expands it immediately (a greedy dive). Bounds only shrink down a
// path, so the dive reaches the deep, high-scoring groups of a promising
// subtree within one frontier pop — filling the top-k heap with real
// scores long before breadth-first frontier order would, which raises the
// admission threshold and prunes the shallow frontier wholesale. The dive
// changes only expansion order, never the certificate: siblings all reach
// the frontier, and a dive cut short by the budget is covered by the
// popped ancestor's recorded bound.
func (s *anytimeSearch) expand(m *miner, t *anytimeTask) (*anytimeTask, error) {
	if err := m.ex.EnterNode(); err != nil {
		return nil, err
	}
	// Everything built here lives on the arena and pops on return; what
	// outlives the expansion — the table and path the children share, the
	// children themselves, an admitted group — is copied off it.
	mark := m.sc.A.Mark()
	defer m.sc.A.Release(mark)

	items := t.items
	if items == nil {
		items = m.childItems(m.sc.A.I32.Alloc(len(t.pitems))[:0], t.pitems, t.row)
	}
	if len(items) == 0 {
		return nil, nil
	}
	for _, r := range t.basePath {
		m.sc.InX.Set(int(r))
	}
	m.sc.InX.Set(int(t.row))
	defer func() {
		for _, r := range t.basePath {
			m.sc.InX.Clear(int(r))
		}
		m.sc.InX.Clear(int(t.row))
	}()
	if m.backScanHit(items, int(t.row)) {
		m.ex.Stats.PrunedBackScan++
		return nil, nil
	}
	if t.supp+t.epCount < s.minsup {
		m.ex.Stats.PrunedLooseBound++
		return nil, nil
	}

	sc := m.scanNode(items, int(t.row), t.supp, t.supn, true)
	supp, supn := sc.supp, sc.supn
	if sc.suppIn+sc.maxPos < s.minsup {
		m.ex.Stats.PrunedTightBound++
		return nil, nil
	}
	bound := s.boundAt(supp, supn)

	s.mu.Lock()
	if s.pruneBoundLocked(bound, m.ex) {
		s.mu.Unlock()
		return nil, nil
	}
	s.mu.Unlock()

	for _, r := range sc.yRows {
		m.sc.InX.Set(int(r))
	}
	defer func() {
		for _, r := range sc.yRows {
			m.sc.InX.Clear(int(r))
		}
	}()

	if supp >= s.minsup {
		score := s.valueAt(supp, supn)
		s.mu.Lock()
		s.admitLocked(m.ex, m, items, score, supp, supn)
		s.mu.Unlock()
	}

	if len(sc.eRows) == 0 {
		return nil, nil
	}

	// Children: the same enumeration Mine performs, enqueued lazily. No
	// per-child table is built here — each surviving child carries a
	// reference to this node's table plus its branch row, and derives its
	// own table only if it is actually popped. The pre-enqueue bound check
	// against a snapshot of the k-th score drops children that can never
	// be admitted (the threshold only rises), exactly as pruneBoundLocked
	// would at enqueue; delta-relaxed cuts are not taken early, since they
	// must be recorded under the lock for the gap certificate.
	eRows := sc.eRows
	posBoundary := searchRow(eRows, int32(s.numPos))

	s.mu.Lock()
	kth := math.Inf(-1)
	if len(s.best) == s.k {
		kth = s.best[0].score
	}
	s.mu.Unlock()

	// First pass: the candidate positions of the surviving children, on
	// the arena, so the task slab below is sized by the survivors.
	keep := m.sc.A.I32.Alloc(len(eRows))[:0]
	for p, r := range eRows {
		ca, cb, childEp := m.childCounts(supp, supn, r, p, posBoundary)
		if ca+childEp < s.minsup {
			m.ex.Stats.PrunedLooseBound++
			continue
		}
		if s.boundAt(ca, cb) < kth {
			m.ex.Stats.PrunedGainBound++
			continue
		}
		keep = append(keep, int32(p))
	}
	if len(keep) == 0 {
		return nil, nil
	}

	// The children share this node's table — copied off the arena unless
	// it is a root row's immutable item list — and its path, which carries
	// the absorbed rows.
	if t.items == nil {
		items = slices.Clone(items)
	}
	basePath := make([]int32, 0, len(t.basePath)+1+len(sc.yRows))
	basePath = append(basePath, t.basePath...)
	basePath = append(basePath, t.row)
	basePath = append(basePath, sc.yRows...)
	taskSlab := make([]anytimeTask, len(keep))
	dive := 0
	for i, p := range keep {
		r := eRows[p]
		ca, cb, childEp := m.childCounts(supp, supn, r, int(p), posBoundary)
		taskSlab[i] = anytimeTask{
			bound:    s.boundAt(ca, cb),
			pitems:   items,
			row:      r,
			basePath: basePath,
			supp:     ca,
			supn:     cb,
			epCount:  childEp,
		}
		// The highest-bound child continues the dive.
		if taskSlab[i].bound > taskSlab[dive].bound {
			dive = i
		}
	}
	// Its siblings join the frontier in one locked batch.
	s.mu.Lock()
	for i := range taskSlab {
		if i != dive {
			s.enqueueLocked(&taskSlab[i], m.ex)
		}
	}
	s.mu.Unlock()
	return &taskSlab[dive], nil
}

// worker drains the frontier until it is empty (with no expansion in
// flight) or the search stops — budget exhaustion, cancellation, or an
// expansion error. The pop-time bound recheck matters: the k-th score may
// have risen since a task was enqueued. Each pop starts a greedy dive:
// the worker keeps expanding the best child inline until the chain dies
// out or its bound falls below the admission threshold, so one pop
// reaches leaf depth instead of one level.
func (s *anytimeSearch) worker(w int, m *miner) {
	s.mu.Lock()
	for {
		if s.stopped {
			break
		}
		if len(s.frontier) == 0 {
			if s.active == 0 {
				s.stopped = true
				s.cond.Broadcast()
				break
			}
			s.cond.Wait()
			continue
		}
		t := heap.Pop(&s.frontier).(*anytimeTask)
		if s.pruneBoundLocked(t.bound, m.ex) {
			continue
		}
		s.active++
		s.inFlight[w] = t.bound
		s.mu.Unlock()

		var err error
		for {
			var next *anytimeTask
			next, err = s.expand(m, t)
			if err != nil || next == nil {
				break
			}
			s.mu.Lock()
			if s.stopped {
				// Keep the unexpanded chain visible to the gap
				// certificate: back to the frontier it goes.
				s.enqueueLocked(next, m.ex)
				s.mu.Unlock()
				break
			}
			if s.pruneBoundLocked(next.bound, m.ex) {
				s.mu.Unlock()
				break
			}
			s.inFlight[w] = next.bound
			s.mu.Unlock()
			t = next
		}

		s.mu.Lock()
		s.active--
		s.inFlight[w] = math.Inf(-1)
		if err != nil {
			s.unfinished = append(s.unfinished, t.bound)
			if !s.stopped {
				s.stopped = true
				if !errors.Is(err, engine.ErrBudgetExceeded) {
					s.stopErr = err
				}
				s.cond.Broadcast()
			}
			break
		}
	}
	s.mu.Unlock()
}

// outstandingLocked returns the largest upper bound over everything the
// stopped search did not finish: queued frontier tasks, expansions cut off
// mid-node, and delta-pruned subtrees. Callers hold mu (or own the search
// exclusively).
func (s *anytimeSearch) outstandingLocked() (float64, bool) {
	maxOut := math.Inf(-1)
	any := false
	for _, t := range s.frontier {
		any = true
		if t.bound > maxOut {
			maxOut = t.bound
		}
	}
	for _, b := range s.unfinished {
		any = true
		if b > maxOut {
			maxOut = b
		}
	}
	if s.anyPruned {
		any = true
		if s.maxPruned > maxOut {
			maxOut = s.maxPruned
		}
	}
	return maxOut, any
}

// seedRoots enqueues one task per root row {ri}, in ORD order. A root's
// table is its row's item list, so roots cost no copies.
func (s *anytimeSearch) seedRoots(m *miner) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for ri := 0; ri < s.n; ri++ {
		supp, supn, epCount := m.rootCounts(ri)
		s.seq++
		heap.Push(&s.frontier, &anytimeTask{
			bound:   s.boundAt(supp, supn),
			seq:     s.seq,
			items:   m.ds.Rows[ri].Items,
			row:     int32(ri),
			supp:    supp,
			supn:    supn,
			epCount: epCount,
		})
	}
}

// sample runs seeded random walks down the row lattice until the budget
// stops it: at each step the walk descends to a child chosen with
// probability proportional to the child's convex bound, admitting every
// closed group with enough support along the way. No back scan runs — the
// same group may be reached by many walks — so admission dedups instead.
func (s *anytimeSearch) sample(m *miner, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for {
		if err := s.sampleWalk(m, rng); err != nil {
			if !errors.Is(err, engine.ErrBudgetExceeded) {
				s.stopErr = err
			}
			s.stopped = true
			return
		}
	}
}

// sampleWalk performs one root-to-leaf walk. The whole walk unwinds one
// arena mark; InX tracks the walk's row set for closed-row-set cloning at
// admission.
func (s *anytimeSearch) sampleWalk(m *miner, rng *rand.Rand) error {
	ri := rng.Intn(s.n)
	mark := m.sc.A.Mark()
	defer m.sc.A.Release(mark)

	var setRows []int32
	defer func() {
		for _, r := range setRows {
			m.sc.InX.Clear(int(r))
		}
	}()

	items, row := m.ds.Rows[ri].Items, int32(ri)
	supp, supn, epCount := m.rootCounts(ri)
	m.sc.InX.Set(ri)
	setRows = append(setRows, row)

	for {
		if err := m.ex.EnterNode(); err != nil {
			return err
		}
		if len(items) == 0 {
			return nil
		}
		if supp+epCount < s.minsup {
			return nil
		}
		sc := m.scanNode(items, int(row), supp, supn, true)
		supp, supn = sc.supp, sc.supn
		for _, r := range sc.yRows {
			m.sc.InX.Set(int(r))
			setRows = append(setRows, r)
		}
		if supp >= s.minsup {
			score := s.valueAt(supp, supn)
			s.mu.Lock()
			s.admitLocked(m.ex, m, items, score, supp, supn)
			s.mu.Unlock()
		}
		if len(sc.eRows) == 0 {
			return nil
		}

		// Pick the next row among feasible candidates, weighted by the
		// child bound.
		posBoundary := searchRow(sc.eRows, int32(s.numPos))
		totalW := 0.0
		feasible := 0
		bounds := make([]float64, len(sc.eRows))
		for p, r := range sc.eRows {
			ca, cb, childEp := m.childCounts(supp, supn, r, p, posBoundary)
			if ca+childEp < s.minsup {
				bounds[p] = -1
				continue
			}
			b := s.boundAt(ca, cb)
			bounds[p] = b
			totalW += b
			feasible++
		}
		if feasible == 0 {
			return nil
		}
		pick := -1
		if totalW <= 0 {
			// All bounds zero: fall back to a uniform feasible pick.
			nth := rng.Intn(feasible)
			for p := range bounds {
				if bounds[p] < 0 {
					continue
				}
				if nth == 0 {
					pick = p
					break
				}
				nth--
			}
		} else {
			x := rng.Float64() * totalW
			for p := range bounds {
				if bounds[p] < 0 {
					continue
				}
				x -= bounds[p]
				pick = p
				if x <= 0 {
					break
				}
			}
		}
		r := sc.eRows[pick]

		// Build the chosen child's conditional table on the arena.
		items = m.childItems(m.sc.A.I32.Alloc(len(items))[:0], items, r)
		row = r
		supp, supn, epCount = m.childCounts(supp, supn, r, pick, posBoundary)
		m.sc.InX.Set(int(r))
		setRows = append(setRows, r)
	}
}

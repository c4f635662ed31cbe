package core

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/plan"
)

// MineParallel is Mine spread over worker goroutines: the subtrees rooted
// at each first row of the enumeration tree are independent, so workers
// mine them concurrently, collecting every CONSTRAINT-satisfying rule group
// (without the interestingness comparison, which needs global order); a
// sequential pass then applies the step-7 interestingness fixpoint in
// ascending antecedent-size order, which yields exactly Mine's result set.
//
// workers ≤ 0 selects GOMAXPROCS. The ablation switches are honoured; the
// per-strategy pruning counters in Stats are summed across workers.
func MineParallel(d *dataset.Dataset, consequent int, opt Options, workers int) (*Result, error) {
	return MineParallelContext(context.Background(), d, consequent, opt, workers)
}

// Task granularity: depth-2 nodes. The row enumeration tree is extremely
// left-heavy (the first root subtree holds about half the work), so
// scheduling whole root subtrees starves all but one worker. Instead the
// subtasks are the pairs (r1, r2), r1 ≤ r2, and a worker executes
// consecutive subtasks that share r1 as one span task (mineSpan): it
// replays root {r1} exactly as Mine opens it — back scan, bounds, Y
// absorption — and expands only the children r2 ∈ E'(r1) inside the
// span. The span holding the singleton (r1, r1) counts the root's own
// events and runs its step 7.
// Span tasks replay the root, so the union of tasks is exactly Mine's
// tree: each node is visited once, and the summed counters equal Mine's.
//
// That subtask universe lives in internal/plan: a plan.Partition is a
// contiguous slice of the linearized triangle, a plan.Source deals
// disjoint partitions out. In-process mining consumes plan.RootSource
// (one whole root at a time, so the cheap deep tail stays coalesced) and
// a cluster worker consumes plan.NewSpanSource over its leased slice —
// the scheduler below is the same either way. The universe is fixed by
// the row count alone and only its distribution varies, so the summed
// counters are identical across worker counts, schedules, and cluster
// topologies.

// wsGrain is the partition size below which tasks are no longer split.
// Pair subtrees near the diagonal are tiny, and every split costs one
// more root replay; splitting below this granularity costs more than it
// recovers in balance.
const wsGrain = 16

// wsDeque is one worker's task queue. The owner pushes and pops at the
// tail (LIFO keeps the conditional tables it just shed cache-warm);
// thieves steal from the head, where the largest shed partitions sit.
type wsDeque struct {
	mu    sync.Mutex
	tasks []plan.Partition
}

func (d *wsDeque) push(t plan.Partition) {
	d.mu.Lock()
	d.tasks = append(d.tasks, t)
	d.mu.Unlock()
}

func (d *wsDeque) popTail() (plan.Partition, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.tasks) == 0 {
		return plan.Partition{}, false
	}
	t := d.tasks[len(d.tasks)-1]
	d.tasks = d.tasks[:len(d.tasks)-1]
	return t, true
}

func (d *wsDeque) stealHead() (plan.Partition, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.tasks) == 0 {
		return plan.Partition{}, false
	}
	t := d.tasks[0]
	d.tasks = d.tasks[1:]
	return t, true
}

// wsScheduler coordinates the partition source, the per-worker deques,
// and termination detection. done counts executed subtasks; when it
// reaches the source's size the last worker closes doneCh and everyone
// exits.
type wsScheduler struct {
	src    plan.SizedSource
	deques []wsDeque
	hungry atomic.Int32 // workers currently looking for work
	done   atomic.Int64 // subtasks executed
	total  int64
	doneCh chan struct{}
}

func newWsScheduler(src plan.SizedSource, workers int) *wsScheduler {
	s := &wsScheduler{
		src:    src,
		deques: make([]wsDeque, workers),
		total:  src.Size(),
		doneCh: make(chan struct{}),
	}
	if s.total == 0 {
		close(s.doneCh)
	}
	return s
}

// take returns the next partition for worker w: own deque first, then the
// source, then stealing. ok=false means no work was found this round (the
// caller re-polls until doneCh closes).
func (s *wsScheduler) take(w int) (plan.Partition, bool) {
	if t, ok := s.deques[w].popTail(); ok {
		return t, true
	}
	if t, ok := s.src.Claim(); ok {
		return t, true
	}
	for i := 1; i < len(s.deques); i++ {
		if t, ok := s.deques[(w+i)%len(s.deques)].stealHead(); ok {
			return t, true
		}
	}
	return plan.Partition{}, false
}

// finish credits executed subtasks toward termination.
func (s *wsScheduler) finish(count int) {
	if s.done.Add(int64(count)) == s.total {
		close(s.doneCh)
	}
}

// workerOut is what one scheduler worker hands back: its candidate store,
// the row sets it rejected locally, and its subtask counters.
type workerOut struct {
	cands      []irgEntry
	rejected   []*bitset.Set
	counters   engine.Counters
	arenaBytes int64
}

// minePartitions drains src over the given worker count: each worker owns
// its Exec, miner and scratch, takes partitions via the work-stealing
// scheduler, sheds halves while others are hungry, and executes subtasks
// at depth-2 granularity. It returns when the source's whole region has
// been executed or the context fired.
func minePartitions(ctx context.Context, ordered *dataset.Dataset, shared *dataset.Transposed, numPos int, opt Options, src plan.SizedSource, workers int) []workerOut {
	sched := newWsScheduler(src, workers)
	outs := make([]workerOut, workers)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wex := engine.NewExec(ctx)
			m := newMiner(ordered, numPos, opt, wex, shared)
			m.recordRejected = true
			for wex.Err() == nil {
				t, ok := sched.take(w)
				if !ok {
					// Advertise hunger (busy workers start shedding), then
					// spin between source, deques, and termination.
					sched.hungry.Add(1)
					for !ok {
						select {
						case <-sched.doneCh:
							sched.hungry.Add(-1)
							goto out
						default:
						}
						if wex.Err() != nil {
							sched.hungry.Add(-1)
							goto out
						}
						runtime.Gosched()
						t, ok = sched.take(w)
					}
					sched.hungry.Add(-1)
				}
				// Adaptive granularity: while others are starving, shed
				// the upper half of the partition into the (stealable)
				// deque.
				for t.Len() > wsGrain && sched.hungry.Load() > 0 {
					var upper plan.Partition
					t, upper = t.Split()
					sched.deques[w].push(upper)
				}
				sched.finish(m.minePartition(t))
			}
		out:
			outs[w] = workerOut{cands: m.groups, rejected: m.rejectedRows, counters: wex.Stats.Counters, arenaBytes: m.sc.Bytes()}
		}(w)
	}
	wg.Wait()
	return outs
}

// minePartition executes partition p one root span at a time (mineSpan)
// and returns how many subtasks ran before cancellation (if any) stopped
// it. A span's subtasks are credited only once the whole span has run.
func (m *miner) minePartition(p plan.Partition) int {
	ran := 0
	idx := p.Start
	for idx < p.End {
		r1 := plan.RootOf(p.N, idx)
		base := plan.RootBase(p.N, r1)
		end := plan.RootBase(p.N, r1+1)
		if end > p.End {
			end = p.End
		}
		if m.mineSpan(r1, r1+int(idx-base), r1+int(end-base)) != nil {
			return ran
		}
		ran += int(end - idx)
		idx = end
	}
	return ran
}

// MineParallelContext is MineParallel under a context. Each worker polls
// cancellation at node-expansion granularity; once the context fires, every
// worker stops taking tasks and exits before the call returns — no
// goroutine outlives the call. On cancellation it returns ctx.Err()
// together with a non-nil Result carrying the merged partial statistics
// (and no groups: the interestingness fixpoint needs the complete
// candidate set to be sound).
func MineParallelContext(ctx context.Context, d *dataset.Dataset, consequent int, opt Options, workers int) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	ex := engine.NewExec(ctx)
	setupDone := engine.Phase(&ex.Stats.Timings.Setup)
	ordered, ord, shared, err := resolveView(d, consequent, opt.Prepared, ex)
	if err != nil {
		return nil, err
	}
	n := len(ordered.Rows)
	res := &Result{
		Consequent: consequent,
		NumRows:    n,
		NumPos:     ord.NumPositive,
	}
	if n == 0 || ord.NumPositive == 0 {
		setupDone()
		res.stats = ex.Stats
		return res, nil
	}

	// The transposed table is immutable and shared; each worker owns its
	// scratch arrays and candidate store.
	if shared == nil {
		shared = dataset.Transpose(ordered)
	}
	setupDone()

	searchDone := engine.Phase(&ex.Stats.Timings.Search)
	outs := minePartitions(ctx, ordered, shared, ord.NumPositive, opt, plan.NewRootSource(n), workers)
	searchDone()

	// Rejection accounting: a group dropped by a worker's local filter is a
	// constraint-satisfying group the global fixpoint would also reject
	// (dropping a group because ANY constraint-satisfying subset group has
	// ≥ confidence is sound: if that subset is itself uninteresting,
	// transitivity yields an interesting dominator). Span tasks visit each
	// node once, so every group is rejected at most once — locally or in
	// the fixpoint. Counting distinct rejected row sets (closed groups are
	// identified by their row sets) additionally collapses the duplicate
	// discoveries the pruning-2 ablation allows.
	rejected := bitset.NewDedup()
	var cands []irgEntry
	for _, o := range outs {
		cands = append(cands, o.cands...)
		ex.Stats.Counters.Add(o.counters)
		// Counters.Add cannot carry ArenaBytes (it lives outside Counters
		// to stay out of counter-equality); sum the per-worker high-water
		// marks explicitly.
		ex.Stats.ArenaBytes += o.arenaBytes
		for _, r := range o.rejected {
			rejected.Add(r)
		}
	}

	if err := ex.Err(); err != nil {
		// Worker GroupsEmitted/GroupsNotInterest reflect local decisions
		// only; without a complete candidate set they cannot be globally
		// recomputed, so zero them as before.
		ex.Stats.GroupsEmitted = 0
		ex.Stats.GroupsNotInterest = 0
		res.stats = ex.Stats
		return res, err
	}

	return finishParallel(ex, res, ordered, ord, opt, cands, rejected)
}

// finishParallel applies the global interestingness fixpoint to the
// gathered candidates and materializes the result — the merge step shared
// by the in-process scheduler above and MergePartials at the cluster
// boundary. ex.Stats.Counters must already hold the summed subtask
// counters; GroupsEmitted and GroupsNotInterest are recomputed globally
// here. The stats are copied into res only after the Finish phase stops,
// so the fixpoint's time is reported.
func finishParallel(ex *engine.Exec, res *Result, ordered *dataset.Dataset, ord *dataset.Ordering, opt Options, cands []irgEntry, rejected *bitset.Dedup) (*Result, error) {
	finishDone := engine.Phase(&ex.Stats.Timings.Finish)
	err := applyFixpoint(ex, res, ordered, ord, opt, cands, rejected)
	finishDone()
	res.stats = ex.Stats
	return res, err
}

// applyFixpoint is finishParallel's body: it decides the candidates, sets
// the group counters, and fills res.Groups (left nil on cancellation).
func applyFixpoint(ex *engine.Exec, res *Result, ordered *dataset.Dataset, ord *dataset.Ordering, opt Options, cands []irgEntry, rejected *bitset.Dedup) error {
	ex.Stats.GroupsEmitted = 0
	ex.Stats.GroupsNotInterest = 0

	// Sequential interestingness fixpoint: more general groups (larger row
	// sets) decided first; row-set dedup collapses duplicates from ablation
	// modes.
	sort.SliceStable(cands, func(i, j int) bool {
		return cands[i].rows.Count() > cands[j].rows.Count()
	})
	var kept []irgEntry
	for _, c := range cands {
		if err := ex.Err(); err != nil {
			return err
		}
		interesting := true
		for i := range kept {
			e := &kept[i]
			if e.rows.SupersetOf(c.rows) {
				if e.rows.Equal(c.rows) {
					interesting = false // duplicate discovery
					break
				}
				if !confLess(e.supPos, e.tot, c.supPos, c.tot) {
					interesting = false
					rejected.Add(c.rows)
					break
				}
			}
		}
		if interesting {
			kept = append(kept, c)
		}
	}
	ex.Stats.GroupsEmitted = int64(len(kept))
	ex.Stats.GroupsNotInterest = int64(rejected.Len())

	var groups []RuleGroup
	for i := range kept {
		if err := ex.Err(); err != nil {
			return err
		}
		e := &kept[i]
		g := RuleGroup{
			Antecedent: e.items,
			SupPos:     e.supPos,
			SupNeg:     e.tot - e.supPos,
			Confidence: float64(e.supPos) / float64(e.tot),
			Chi:        e.chi,
			Rows:       ord.MapRowsToOriginal(e.rows.Ints()),
		}
		sort.Ints(g.Rows)
		if opt.ComputeLowerBounds {
			g.LowerBounds, g.Truncated = MineLowerBounds(ordered, e.items, e.rows, opt.MaxLowerBounds)
		}
		groups = append(groups, g)
	}
	// Deterministic output order regardless of worker scheduling.
	sort.SliceStable(groups, func(i, j int) bool {
		return lessItems(groups[i].Antecedent, groups[j].Antecedent)
	})
	res.Groups = groups
	return nil
}

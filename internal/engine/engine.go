// Package engine is the shared mining runtime behind every miner in the
// repository: FARMER's row enumerators (Mine, MineParallel, TopK,
// MineLB) and the five baselines (CHARM, CLOSET, ColumnE, CARPENTER,
// COBBLER). It factors out the three pieces the miners used to hand-roll
// independently:
//
//   - Execution control (Exec): a context-cancellation token polled at
//     node-expansion granularity. A cancelled run stops within one node
//     expansion and surfaces ctx.Err() alongside whatever partial
//     statistics were gathered.
//   - Instrumentation (Stats): one counter set with identical semantics
//     across miners — enumeration nodes, per-pruning-strategy cuts
//     (strategies 1–3 of §3.2), emission counts — plus wall-clock phase
//     timings. The counter portion (Counters) is deterministic and
//     comparable; timings are kept separate so differential tests can
//     assert counter equality across runs.
//   - Scratch substrate (Scratch): the epoch-stamped per-row counters and
//     bitset scratch shared by the row-enumeration miners, so per-node
//     work reuses one allocation per run instead of allocating per node.
//
// The streaming contract every miner built on this package follows: a
// group/pattern is delivered to its OnX callback at the moment its
// membership in the result set becomes final (each miner's emission
// decision is final when made; only ColumnE's global interestingness
// fixpoint defers delivery to the finish phase). A callback error aborts
// the run and is returned verbatim; after cancellation no further
// deliveries happen.
package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
)

// ErrBudgetExceeded is returned by EnterNode once a run's node or deadline
// budget (SetBudget) is exhausted. It is distinct from context
// cancellation on purpose: a budget stop is the anytime contract working
// as intended — the caller keeps the best-so-far result as a successful,
// partial answer — while ctx.Err() means the caller no longer wants any
// answer at all.
var ErrBudgetExceeded = errors.New("engine: node or deadline budget exhausted")

// Counters is the deterministic portion of Stats: pure event counts that
// depend only on the dataset, the options, and the task decomposition —
// never on scheduling or wall clock. It is comparable, so tests can assert
// run-to-run equality.
//
// Not every miner uses every counter: the class-blind baselines have no
// confidence bounds, CHARM/CLOSET prune only by support. A counter a miner
// does not implement stays zero; the ones it does implement share these
// exact semantics.
type Counters struct {
	NodesVisited      int64 // enumeration-tree nodes entered
	PrunedBackScan    int64 // subtrees cut by pruning strategy 2 (back scan)
	PrunedLooseBound  int64 // subtrees cut by Us2/Uc2 before scanning
	PrunedTightBound  int64 // subtrees cut by Us1/Uc1 (or support) after scanning
	PrunedChiBound    int64 // subtrees cut by the Lemma 3.9 chi bound
	PrunedGainBound   int64 // subtrees cut by the entropy/gini gain bounds
	RowsAbsorbed      int64 // candidates folded in by absorption pruning (rows for row enumerators, items for column enumerators)
	GroupsEmitted     int64 // groups/patterns kept (delivered or accumulated)
	GroupsNotInterest int64 // candidate upper bounds rejected as uninteresting
}

// Add accumulates o into c (used to merge per-worker counters).
func (c *Counters) Add(o Counters) {
	c.NodesVisited += o.NodesVisited
	c.PrunedBackScan += o.PrunedBackScan
	c.PrunedLooseBound += o.PrunedLooseBound
	c.PrunedTightBound += o.PrunedTightBound
	c.PrunedChiBound += o.PrunedChiBound
	c.PrunedGainBound += o.PrunedGainBound
	c.RowsAbsorbed += o.RowsAbsorbed
	c.GroupsEmitted += o.GroupsEmitted
	c.GroupsNotInterest += o.GroupsNotInterest
}

// Timings records the wall-clock phases of one run. Unlike Counters these
// vary run to run; they are reported, never compared.
type Timings struct {
	// Setup covers validation, row reordering and transposition.
	Setup time.Duration
	// Search covers the enumeration itself (including streamed emission).
	Search time.Duration
	// Finish covers post-enumeration work: the parallel interestingness
	// fixpoint, sorting, and batch materialization. Zero for miners that
	// finalize inline.
	Finish time.Duration
}

// Stats is the unified instrumentation record shared by all miners: the
// deterministic counters plus the phase timings. Counter fields are
// promoted (s.NodesVisited); tests that need run-to-run equality compare
// s.Counters.
//
// PrepareReused lives outside Counters on purpose: a run that reuses a
// prepared dataset snapshot must produce Counters identical to a
// from-scratch run (the snapshot only moves the build phase, it never
// changes the enumeration), so the reuse marker cannot participate in
// counter-equality checks.
type Stats struct {
	Counters
	Timings Timings
	// PrepareReused counts build phases satisfied from a prepared
	// dataset.Snapshot instead of being recomputed (1 per run that was
	// handed a snapshot, 0 otherwise). The saving itself shows up as a
	// near-zero Timings.Setup.
	PrepareReused int64
	// ArenaBytes is the high-water retained size of the run's arena and
	// scratch storage, for resource accounting. Like PrepareReused it
	// lives outside Counters: slab capacities grow by amortized doubling,
	// so the figure depends on allocation history (and, for parallel
	// miners, on the task decomposition), never satisfying the
	// run-to-run equality Counters guarantees.
	ArenaBytes int64
}

// MinerResult is the common face of every miner's result type — FARMER's
// rule groups, the top-k groups, and the five baselines' closed sets /
// rules all satisfy it. It lets a caller that juggles several miners (the
// serving layer's job manager, the progress endpoint) read run statistics
// and batch sizes uniformly instead of switching on six concrete types.
type MinerResult interface {
	// Stats returns the run's unified statistics. After cancellation it
	// reflects the work actually done (a partial run).
	Stats() Stats
	// Count returns the number of groups/patterns/rules materialized in
	// the batch result. Streamed runs do not accumulate a batch, so their
	// count is zero; the emitted total lives in Stats().GroupsEmitted.
	Count() int
}

// Phase starts timing a phase and returns the function that stops it,
// adding the elapsed time to *dst:
//
//	defer engine.Phase(&ex.Stats.Timings.Search)()
func Phase(dst *time.Duration) func() {
	t0 := time.Now()
	return func() { *dst += time.Since(t0) }
}

// Exec is the per-run execution state a miner threads through its
// enumeration: the unified Stats and the cancellation token. One Exec is
// private to one goroutine; parallel miners give each worker its own and
// merge Counters afterwards.
type Exec struct {
	Stats Stats

	ctx  context.Context
	done <-chan struct{}
	err  error

	// Budget state (SetBudget). budgeted gates the whole check so an
	// unbudgeted run pays one predictable branch per node and nothing else
	// — the exact miners' counters and timings are unaffected.
	budgeted    bool
	deadline    time.Time
	maxNodes    int64
	sharedNodes *atomic.Int64
	budgetErr   error
}

// NewExec returns an Exec bound to ctx. A nil ctx behaves like
// context.Background() (never cancelled, zero polling cost).
func NewExec(ctx context.Context) *Exec {
	e := &Exec{}
	if ctx != nil {
		e.ctx = ctx
		e.done = ctx.Done()
	}
	return e
}

// SetBudget arms the budget check EnterNode performs alongside its
// cancellation poll: the run stops (ErrBudgetExceeded) once the deadline
// passes or once more than maxNodes nodes have been entered. A zero
// deadline or a non-positive maxNodes leaves that dimension unlimited.
// shared, when non-nil, is the node counter drawn against instead of this
// Exec's own NodesVisited — how parallel anytime workers split one node
// budget: each worker's Exec points at the same counter.
func (e *Exec) SetBudget(deadline time.Time, maxNodes int64, shared *atomic.Int64) {
	e.deadline = deadline
	e.maxNodes = maxNodes
	e.sharedNodes = shared
	e.budgeted = !deadline.IsZero() || maxNodes > 0
}

// EnterNode counts one enumeration node, draws on the node/deadline budget
// when one is set, and polls cancellation. Miners call it first thing on
// every node expansion — that is the granularity of both contracts: once
// the context is cancelled or the budget exhausted, at most one further
// node is entered.
func (e *Exec) EnterNode() error {
	e.Stats.NodesVisited++
	if e.budgeted {
		if err := e.pollBudget(); err != nil {
			return err
		}
	}
	return e.Err()
}

// pollBudget checks the armed budget dimensions, latching the first
// exhaustion so every subsequent call keeps failing.
func (e *Exec) pollBudget() error {
	if e.budgetErr != nil {
		return e.budgetErr
	}
	if e.maxNodes > 0 {
		n := e.Stats.NodesVisited
		if e.sharedNodes != nil {
			n = e.sharedNodes.Add(1)
		}
		if n > e.maxNodes {
			e.budgetErr = ErrBudgetExceeded
			return e.budgetErr
		}
	}
	if !e.deadline.IsZero() && time.Now().After(e.deadline) {
		e.budgetErr = ErrBudgetExceeded
		return e.budgetErr
	}
	return nil
}

// Err polls cancellation without counting a node. It returns nil until the
// context fires, then the context's error on every subsequent call.
func (e *Exec) Err() error {
	if e.err == nil && e.done != nil {
		select {
		case <-e.done:
			e.err = e.ctx.Err()
		default:
		}
	}
	return e.err
}

// Scratch is the shared per-run scratch substrate of the row-enumeration
// miners: epoch-stamped per-row counters (reset by bumping the epoch, not
// by clearing) and reusable bitsets, all sized to the dataset's row count
// and allocated once per run.
type Scratch struct {
	// Cnt and Stamp form the epoch-stamped counter array: Cnt[r] is valid
	// iff Stamp[r] equals the current epoch. Both the conditional-table
	// scan and the back scan use them; each pass calls NextEpoch instead
	// of zeroing.
	Cnt   []int32
	Stamp []uint32

	// InX marks the rows of the current enumeration path (X plus absorbed
	// rows) — the exclusion set of the back scan.
	InX *bitset.Set

	// Tmp is a reusable bitset for non-allocating set algebra on hot
	// paths (e.g. intersection prechecks before a Clone is justified).
	// Its contents are undefined between uses.
	Tmp *bitset.Set

	// Pos is a dense row → position table for step 6's child build: a
	// node writes the position of each of its candidate rows, then reads
	// it back for every candidate occurrence in its tuples. Entries of
	// rows that are not current candidates are stale, never read.
	Pos []int32

	// RowWords are three row-set word buffers (⌈n/64⌉ words each) for
	// word-parallel node work: FARMER's node scan, back scan and child
	// build. Their contents are undefined between uses.
	RowWords [3][]uint64

	// A is the depth-indexed slab arena behind the conditional-table hot
	// path: every per-node buffer (cleaned candidate lists, count arrays,
	// child conditional tables) is pushed on node entry and popped on
	// recursion unwind, so steady-state node expansion allocates nothing.
	A Arena

	epoch uint32
}

// NewScratch returns scratch for a dataset of n rows.
func NewScratch(n int) *Scratch {
	s := &Scratch{
		Cnt:   make([]int32, n),
		Stamp: make([]uint32, n),
		InX:   bitset.New(n),
		Tmp:   bitset.New(n),
		Pos:   make([]int32, n),
	}
	stride := (n + 63) / 64
	words := make([]uint64, len(s.RowWords)*stride)
	for i := range s.RowWords {
		s.RowWords[i] = words[i*stride : (i+1)*stride : (i+1)*stride]
	}
	return s
}

// Bytes reports the scratch substrate's retained storage: the stamped
// counter arrays, the position table, both bitsets, the row-set words, and
// the slab arena at its high-water size.
func (s *Scratch) Bytes() int64 {
	return int64(cap(s.Cnt))*4 + int64(cap(s.Stamp))*4 + int64(cap(s.Pos))*4 +
		s.InX.Bytes() + s.Tmp.Bytes() + int64(len(s.RowWords)*cap(s.RowWords[0]))*8 + s.A.Bytes()
}

// NextEpoch invalidates every stamped counter and returns the new epoch.
// On uint32 wraparound the stamp array is cleared explicitly, so stale
// stamps from four billion epochs ago can never collide with a live one.
func (s *Scratch) NextEpoch() uint32 {
	s.epoch++
	if s.epoch == 0 {
		clear(s.Stamp)
		s.epoch = 1
	}
	return s.epoch
}

package dataset

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/bitset"
)

// Snapshot is the immutable compiled form of a dataset: everything a miner
// derives from the raw rows before enumeration starts — the transposed
// table, per-item row bitsets, the global item frequency order, and (per
// consequent, compiled lazily) the ORD row permutation with its own
// transposed table and class mask. One snapshot can back any number of
// concurrent runs: every precomputed structure is treated as read-only by
// all miners (verified in the race-enabled service suite), so sharing is
// safe without copying.
//
// A snapshot is pinned to the exact *Dataset it was built from. Mutating
// that dataset after NewSnapshot is a caller bug; the service layer never
// does (re-registration swaps in a fresh dataset + snapshot pair).
type Snapshot struct {
	d  *Dataset
	tt *Transposed

	// itemRows[it] is the set of original row ids containing item it,
	// carved from tt's row words (one copy). Shared across runs; miners
	// must only read (And/AndCount/Clone).
	itemRows []*bitset.Set

	// freqOrder holds every item with nonzero support, sorted by
	// (frequency desc, item asc) — CLOSET's header order before the
	// minsup filter. Filtering a prefix-stable order by any minsup yields
	// exactly the per-run order CLOSET would have computed itself.
	freqOrder []Item

	mu    sync.Mutex
	views map[int]*ConsequentView
}

// ConsequentView is the per-consequent slice of a snapshot: the ORD-ordered
// dataset, the permutation back to original row ids, the transposed table
// of the ordered rows, and the consequent-class mask over original row ids.
// Like the snapshot itself it is immutable once built.
type ConsequentView struct {
	Ordered *Dataset
	Ord     *Ordering
	TT      *Transposed // transpose of Ordered
	PosMask *bitset.Set // original row ids with the consequent class
}

// NewSnapshot validates d and compiles its consequent-independent
// structures. The per-consequent views are compiled on first use by
// ForConsequent.
func NewSnapshot(d *Dataset) (*Snapshot, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	tt := Transpose(d)
	var freqOrder []Item
	for it, list := range tt.Lists {
		if len(list) > 0 {
			freqOrder = append(freqOrder, Item(it))
		}
	}
	sort.Slice(freqOrder, func(a, b int) bool {
		fa, fb := len(tt.Lists[freqOrder[a]]), len(tt.Lists[freqOrder[b]])
		if fa != fb {
			return fa > fb
		}
		return freqOrder[a] < freqOrder[b]
	})
	return &Snapshot{
		d:         d,
		tt:        tt,
		itemRows:  tt.RowSets(),
		freqOrder: freqOrder,
		views:     make(map[int]*ConsequentView),
	}, nil
}

// RestoreSnapshot assembles a snapshot from parts compiled earlier — the
// decode half of the durable snapshot format (internal/store). The caller
// guarantees the parts are mutually consistent and derived from d exactly
// as NewSnapshot would have computed them; the store's decoder establishes
// this with structural checks plus a whole-file checksum. views may be nil
// or hold any subset of materialized consequent views (missing ones are
// compiled lazily as usual). The per-item row bitsets are tt's row words.
func RestoreSnapshot(d *Dataset, tt *Transposed, freqOrder []Item, views map[int]*ConsequentView) *Snapshot {
	if views == nil {
		views = make(map[int]*ConsequentView)
	}
	return &Snapshot{
		d:         d,
		tt:        tt,
		itemRows:  tt.RowSets(),
		freqOrder: freqOrder,
		views:     views,
	}
}

// MaterializedViews returns a copy of the per-consequent views compiled so
// far (keyed by consequent class). The encoder uses it to persist views a
// warm snapshot has already paid for; callers must not mutate the views.
func (s *Snapshot) MaterializedViews() map[int]*ConsequentView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int]*ConsequentView, len(s.views))
	for k, v := range s.views {
		out[k] = v
	}
	return out
}

// Dataset returns the dataset the snapshot was compiled from. Miners use
// pointer identity to check that a caller-supplied snapshot actually
// belongs to the dataset being mined.
func (s *Snapshot) Dataset() *Dataset { return s.d }

// Transposed returns the transposed table in original row order.
func (s *Snapshot) Transposed() *Transposed { return s.tt }

// ItemRows returns the per-item row bitsets (original row order). The
// returned sets are shared: callers must not mutate them.
func (s *Snapshot) ItemRows() []*bitset.Set { return s.itemRows }

// ItemFreq returns the number of rows containing item it.
func (s *Snapshot) ItemFreq(it Item) int { return len(s.tt.Lists[it]) }

// FreqOrder returns every item with nonzero support sorted by (frequency
// desc, item asc). The returned slice is shared: callers must not mutate
// it.
func (s *Snapshot) FreqOrder() []Item { return s.freqOrder }

// ForConsequent returns the compiled view for the given consequent class,
// building it on first use. Safe for concurrent callers; the view for each
// consequent is built at most once.
func (s *Snapshot) ForConsequent(consequent int) (*ConsequentView, error) {
	if consequent < 0 || consequent >= s.d.NumClasses() {
		return nil, fmt.Errorf("dataset: consequent class %d outside [0,%d)", consequent, s.d.NumClasses())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.views[consequent]; ok {
		return v, nil
	}
	ordered, ord := OrderForConsequent(s.d, consequent)
	pos := bitset.New(len(s.d.Rows))
	for i, r := range s.d.Rows {
		if r.Class == consequent {
			pos.Set(i)
		}
	}
	v := &ConsequentView{
		Ordered: ordered,
		Ord:     ord,
		TT:      Transpose(ordered),
		PosMask: pos,
	}
	s.views[consequent] = v
	return v, nil
}

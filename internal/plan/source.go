package plan

import "sync/atomic"

// Source hands out disjoint partitions of some region of the universe
// until it is exhausted. Claim must be safe for concurrent use; the
// partitions returned across all claimants are pairwise disjoint and
// together cover exactly the source's region.
type Source interface {
	Claim() (Partition, bool)
}

// SizedSource is a Source that also knows the exact number of subtasks
// its claims will cover. Schedulers use it for termination detection: a
// worker finding no work cannot exit until every claimed subtask has been
// executed, because stealable halves may still sit in other workers'
// deques.
type SizedSource interface {
	Source
	Size() int64
}

// RootSource deals the universe of an n-row dataset one root at a time —
// the in-process generator behind MineParallel. Handing out whole roots
// (not fixed-size chunks) keeps the cheap deep-r1 tail coalesced while the
// expensive early roots are split further by the consumer's own
// work-stealing; this is exactly the atomic next-root counter the
// scheduler used before the partition layer existed.
type RootSource struct {
	n    int
	next atomic.Int64
}

// NewRootSource returns a RootSource over the n-row universe.
func NewRootSource(n int) *RootSource {
	return &RootSource{n: n}
}

// Size returns the universe size Total(n).
func (s *RootSource) Size() int64 { return Total(s.n) }

// Claim returns the next unclaimed root's partition.
func (s *RootSource) Claim() (Partition, bool) {
	r1 := s.next.Add(1) - 1
	if r1 >= int64(s.n) {
		return Partition{}, false
	}
	return Root(s.n, int(r1)), true
}

// SpanSource deals out one leased partition root-span by root-span — how a
// cluster worker feeds its local work-stealing scheduler from the slice of
// the universe it holds a lease on. Spans never straddle roots, so the
// consumer's per-root span execution is identical to the whole-universe
// case.
type SpanSource struct {
	p   Partition
	idx atomic.Int64
}

// NewSpanSource returns a SpanSource over partition p.
func NewSpanSource(p Partition) *SpanSource {
	s := &SpanSource{p: p}
	s.idx.Store(p.Start)
	return s
}

// Size returns the leased partition's subtask count.
func (s *SpanSource) Size() int64 { return s.p.Len() }

// Claim returns the next unclaimed single-root span of the partition.
func (s *SpanSource) Claim() (Partition, bool) {
	for {
		idx := s.idx.Load()
		if idx >= s.p.End {
			return Partition{}, false
		}
		r1 := RootOf(s.p.N, idx)
		end := RootBase(s.p.N, r1+1)
		if end > s.p.End {
			end = s.p.End
		}
		if s.idx.CompareAndSwap(idx, end) {
			return Partition{N: s.p.N, Start: idx, End: end}, true
		}
	}
}

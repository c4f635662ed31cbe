// Package plan is the explicit form of FARMER's enumeration-task universe:
// the set of depth-2 subtasks the parallel row miner executes, lifted out of
// the in-process scheduler so that every consumer — the work-stealing deques
// inside one process and the cluster coordinator leasing work to farmerd
// nodes — speaks the same, serializable vocabulary.
//
// For a dataset of N rows (in ORD order) the universe is the triangle
//
//	U(N) = { (r1, r2) : 0 <= r1 <= r2 < N }
//
// where (r1, r1) is root r1's own node (its counters and emission) and
// (r1, r2), r2 > r1, is the subtree of r1's child {r1, r2} (see
// core/parallel.go for why depth-2 granularity balances the left-heavy
// tree and how a run of one root's subtasks executes). Subtasks are linearized root-major:
//
//	index(r1, r2) = RootBase(N, r1) + (r2 - r1)
//
// so the whole universe is the half-open interval [0, Total(N)) and a
// Partition is nothing more than a contiguous slice of it. That makes the
// three operations every scheduler needs trivial and composable:
//
//   - split anywhere (halves for work-stealing, k chunks for a cluster),
//   - serialize (two integers plus the universe size),
//   - audit coverage (intervals partition [0, Total) exactly once iff
//     there is no gap and no overlap — see Coverage).
//
// The subtask set is fixed by N alone; partitioning only changes how the
// set is distributed. Every counter in engine.Counters is a sum over
// executed subtasks, so merged statistics are byte-identical across any
// split sequence, worker count, schedule, or cluster topology.
package plan

import (
	"encoding/binary"
	"fmt"
)

// Total returns the number of subtasks in the universe of an n-row
// dataset: n singletons plus n(n-1)/2 pairs.
func Total(n int) int64 {
	return int64(n) * int64(n+1) / 2
}

// RootBase returns the linear index of subtask (r1, r1), the first subtask
// of root r1: the whole triangle above it has n + (n-1) + ... + (n-r1+1)
// subtasks.
func RootBase(n, r1 int) int64 {
	return int64(r1)*int64(n) - int64(r1)*int64(r1-1)/2
}

// RootOf returns the root r1 whose span contains linear index idx, by
// binary search over the monotone RootBase.
func RootOf(n int, idx int64) int {
	lo, hi := 0, n-1
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		if RootBase(n, mid) <= idx {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// Index returns the linear index of subtask (r1, r2), r1 <= r2 < n.
func Index(n, r1, r2 int) int64 {
	return RootBase(n, r1) + int64(r2-r1)
}

// Subtask inverts Index: the (r1, r2) pair at linear index idx.
func Subtask(n int, idx int64) (r1, r2 int) {
	r1 = RootOf(n, idx)
	return r1, r1 + int(idx-RootBase(n, r1))
}

// Partition is a contiguous, half-open slice [Start, End) of the
// linearized enumeration-task universe of an N-row dataset. The zero value
// is an empty partition. Partitions are plain values: JSON-encodable for
// the cluster wire, binary-encodable for compact ledgers, splittable at
// any interior point, and cheap to copy into scheduler deques.
type Partition struct {
	N     int   `json:"n"`
	Start int64 `json:"start"`
	End   int64 `json:"end"`
}

// Universe returns the partition covering every subtask of an n-row
// dataset.
func Universe(n int) Partition {
	return Partition{N: n, Start: 0, End: Total(n)}
}

// Root returns the partition covering exactly the subtasks of root r1 —
// what the in-process generator hands out one at a time.
func Root(n, r1 int) Partition {
	return Partition{N: n, Start: RootBase(n, r1), End: RootBase(n, r1+1)}
}

// Len returns the number of subtasks in the partition.
func (p Partition) Len() int64 {
	if p.End <= p.Start {
		return 0
	}
	return p.End - p.Start
}

// Empty reports whether the partition covers no subtasks.
func (p Partition) Empty() bool { return p.End <= p.Start }

// Validate checks that the partition lies inside its universe.
func (p Partition) Validate() error {
	switch {
	case p.N < 0:
		return fmt.Errorf("plan: negative universe size %d", p.N)
	case p.Start < 0 || p.End < p.Start || p.End > Total(p.N):
		return fmt.Errorf("plan: partition [%d,%d) outside universe [0,%d) of n=%d",
			p.Start, p.End, Total(p.N), p.N)
	}
	return nil
}

// Split halves the partition: [Start, mid) and [mid, End). Splitting an
// empty or single-subtask partition returns it unchanged plus an empty
// second half.
func (p Partition) Split() (Partition, Partition) {
	if p.Len() < 2 {
		return p, Partition{N: p.N, Start: p.End, End: p.End}
	}
	mid := p.Start + p.Len()/2
	return p.SplitAt(mid)
}

// SplitAt cuts the partition at linear index at (clamped to [Start, End]),
// returning [Start, at) and [at, End).
func (p Partition) SplitAt(at int64) (Partition, Partition) {
	if at < p.Start {
		at = p.Start
	}
	if at > p.End {
		at = p.End
	}
	return Partition{N: p.N, Start: p.Start, End: at}, Partition{N: p.N, Start: at, End: p.End}
}

// SplitN cuts the partition into at most k near-equal contiguous chunks
// (fewer when the partition has fewer subtasks), covering it exactly. The
// cluster coordinator uses it to shape leases.
func (p Partition) SplitN(k int) []Partition {
	if k < 1 {
		k = 1
	}
	if int64(k) > p.Len() {
		k = int(p.Len())
	}
	if k <= 1 {
		if p.Empty() {
			return nil
		}
		return []Partition{p}
	}
	out := make([]Partition, 0, k)
	rest := p
	for i := k; i > 1; i-- {
		var head Partition
		head, rest = rest.SplitAt(rest.Start + rest.Len()/int64(i))
		out = append(out, head)
	}
	return append(out, rest)
}

// Span is a maximal single-root run of subtasks inside a partition: root
// R1 with r2 ranging over [Lo, Hi). Lo == R1 means the span includes the
// root's singleton task.
type Span struct {
	R1     int
	Lo, Hi int
}

// Spans calls yield for each single-root span of the partition, in order,
// stopping early when yield returns false. It allocates nothing, so the
// scheduler hot path can walk partitions freely.
func (p Partition) Spans(yield func(s Span) bool) {
	if p.Empty() {
		return
	}
	idx := p.Start
	r1 := RootOf(p.N, idx)
	for idx < p.End {
		base := RootBase(p.N, r1)
		lo := r1 + int(idx-base)
		hi := r1 + int(minI64(p.End, RootBase(p.N, r1+1))-base)
		if !yield(Span{R1: r1, Lo: lo, Hi: hi}) {
			return
		}
		idx = RootBase(p.N, r1+1)
		r1++
	}
}

// AppendBinary appends the partition's compact binary form (three varints)
// to dst — the ledger/lease encoding used on the cluster wire next to the
// JSON form.
func (p Partition) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(p.N))
	dst = binary.AppendUvarint(dst, uint64(p.Start))
	return binary.AppendUvarint(dst, uint64(p.End))
}

// DecodeBinary decodes a partition written by AppendBinary, returning the
// remaining bytes.
func DecodeBinary(src []byte) (Partition, []byte, error) {
	var p Partition
	n, k := binary.Uvarint(src)
	if k <= 0 {
		return p, nil, fmt.Errorf("plan: truncated partition encoding")
	}
	src = src[k:]
	start, k := binary.Uvarint(src)
	if k <= 0 {
		return p, nil, fmt.Errorf("plan: truncated partition encoding")
	}
	src = src[k:]
	end, k := binary.Uvarint(src)
	if k <= 0 {
		return p, nil, fmt.Errorf("plan: truncated partition encoding")
	}
	p = Partition{N: int(n), Start: int64(start), End: int64(end)}
	if err := p.Validate(); err != nil {
		return Partition{}, nil, err
	}
	return p, src[k:], nil
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

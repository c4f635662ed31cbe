package engine

import "unsafe"

// Slab is a grow-only typed slab with stack (mark/release) discipline: the
// recursion-structured scratch data of an enumeration tree — conditional
// tables, cleaned candidate lists, count buffers — is pushed on node entry
// and popped on unwind, so steady-state node expansion reuses the same
// backing storage instead of allocating per node.
//
// The contract mirrors a call stack:
//
//	mark := s.Mark()
//	buf := s.Alloc(n) // valid until Release(mark)
//	...
//	s.Release(mark)
//
// Storage is a list of chunks. Alloc carves from the current chunk; when
// it does not fit, Alloc moves on to the next chunk (the unused tail of
// the current one waits for the next release), adding a chunk at least
// twice the current one's size only when no free chunk is large enough.
// Growth never copies, so slices handed out earlier stay in place, and a
// run allocates its high-water storage once rather than every doubling
// on the way there. Chunks freed by Release are kept and reused, after
// which every subsequent Alloc is allocation-free.
type Slab[T any] struct {
	buf    []T   // current chunk; its length is the chunk's fill
	base   int   // stack position of buf[0]
	cur    int   // index of buf in chunks
	chunks [][]T // every chunk at full length; those after cur are free
}

// Mark returns the current stack depth, to be passed to Release.
func (s *Slab[T]) Mark() int { return s.base + len(s.buf) }

// Release pops every allocation made since the corresponding Mark,
// restoring the slab's high-water state for reuse. Slices allocated above
// the mark must not be used afterwards.
func (s *Slab[T]) Release(mark int) {
	for mark < s.base {
		s.cur--
		s.buf = s.chunks[s.cur]
		s.base -= len(s.buf)
	}
	s.buf = s.buf[:mark-s.base]
}

// Alloc returns a zeroed slice of length n whose storage lives in the slab
// until the enclosing mark is released. The result has capacity exactly n,
// so appending to it cannot clobber later allocations.
func (s *Slab[T]) Alloc(n int) []T {
	l := len(s.buf)
	if l+n > cap(s.buf) {
		s.nextChunk(n)
		l = 0
	}
	s.buf = s.buf[:l+n]
	out := s.buf[l : l+n : l+n]
	clear(out)
	return out
}

// nextChunk makes the chunk after the current one, holding at least n
// elements, current: a free chunk is reused when one is large enough
// (swapped into place), otherwise a new one is added.
func (s *Slab[T]) nextChunk(n int) {
	next := s.cur + 1
	if s.chunks == nil {
		next = 0
	}
	i := next
	for i < len(s.chunks) && len(s.chunks[i]) < n {
		i++
	}
	if i == len(s.chunks) {
		size := max(n, 2*cap(s.buf), 64)
		s.chunks = append(s.chunks, make([]T, size))
	}
	s.chunks[next], s.chunks[i] = s.chunks[i], s.chunks[next]
	s.base += cap(s.buf)
	s.cur = next
	s.buf = s.chunks[next][:0]
}

// One allocates a single zeroed element and returns its address. The
// pointer is valid until the enclosing mark is released.
func (s *Slab[T]) One() *T {
	return &s.Alloc(1)[0]
}

// SizeBytes reports the slab's retained backing storage — every chunk's
// capacity, not the live length — since that is what the run actually
// held.
func (s *Slab[T]) SizeBytes() int64 {
	var zero T
	total := 0
	for _, c := range s.chunks {
		total += len(c)
	}
	return int64(total) * int64(unsafe.Sizeof(zero))
}

// Tuple is one row of a conditional transposed table: an item together with
// the enumeration-candidate rows containing it at the current node. The
// Rows slice is a view into an ancestor's storage and is never mutated.
// (The item type is int32 because dataset.Item is an alias of int32; using
// the underlying type keeps engine free of a dataset dependency.)
type Tuple struct {
	Item int32
	Rows []int32
}

// Arena groups the slabs behind the row-enumeration hot path: int32 row
// lists and count buffers, cleaned-table slice headers, and conditional
// transposed tables. One Arena is private to one goroutine (it lives in
// Scratch); parallel miners give each worker its own.
type Arena struct {
	I32  Slab[int32]
	Rows Slab[[]int32]
	Tup  Slab[Tuple]
}

// ArenaMark captures the depth of every slab at one recursion level.
type ArenaMark struct {
	i32, rows, tup int
}

// Mark records the arena state on node entry.
func (a *Arena) Mark() ArenaMark {
	return ArenaMark{a.I32.Mark(), a.Rows.Mark(), a.Tup.Mark()}
}

// Release pops every allocation made since m, on recursion unwind.
func (a *Arena) Release(m ArenaMark) {
	a.I32.Release(m.i32)
	a.Rows.Release(m.rows)
	a.Tup.Release(m.tup)
}

// Bytes reports the arena's retained backing storage across all slabs.
func (a *Arena) Bytes() int64 {
	return a.I32.SizeBytes() + a.Rows.SizeBytes() + a.Tup.SizeBytes()
}

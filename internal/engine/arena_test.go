package engine

import (
	"runtime"
	"testing"
)

func TestSlabMarkReleaseRestoresHighWater(t *testing.T) {
	var s Slab[int32]
	m0 := s.Mark()
	a := s.Alloc(10)
	for i := range a {
		a[i] = int32(i)
	}
	m1 := s.Mark()
	if m1 != 10 {
		t.Fatalf("mark after 10-element alloc = %d, want 10", m1)
	}
	b := s.Alloc(20)
	if len(b) != 20 {
		t.Fatalf("alloc len = %d, want 20", len(b))
	}
	s.Release(m1)
	if s.Mark() != m1 {
		t.Fatalf("release(m1) left mark %d, want %d", s.Mark(), m1)
	}
	// The older allocation survives its sibling's release untouched.
	for i := range a {
		if a[i] != int32(i) {
			t.Fatalf("a[%d] = %d corrupted by release", i, a[i])
		}
	}
	s.Release(m0)
	if s.Mark() != 0 {
		t.Fatalf("release(m0) left mark %d, want 0", s.Mark())
	}
}

func TestSlabAllocZeroesReusedStorage(t *testing.T) {
	var s Slab[int32]
	m := s.Mark()
	a := s.Alloc(8)
	for i := range a {
		a[i] = -1
	}
	s.Release(m)
	b := s.Alloc(8)
	for i := range b {
		if b[i] != 0 {
			t.Fatalf("reused slot %d = %d, want 0", i, b[i])
		}
	}
}

func TestSlabAllocCapIsExact(t *testing.T) {
	var s Slab[int32]
	a := s.Alloc(3)
	b := s.Alloc(3)
	// Appending to a must reallocate rather than clobber b.
	a = append(a, 99)
	if b[0] != 0 {
		t.Fatalf("append through earlier alloc clobbered later one: b[0] = %d", b[0])
	}
	_ = a
}

// Growth mid-recursion must not invalidate slices held by outer frames:
// they keep pointing into the old backing array.
func TestSlabGrowthKeepsOuterFramesValid(t *testing.T) {
	var s Slab[int32]
	outer := s.Alloc(4)
	for i := range outer {
		outer[i] = int32(100 + i)
	}
	m := s.Mark()
	for i := 0; i < 12; i++ { // force several growths
		_ = s.Alloc(1 << uint(i))
	}
	for i := range outer {
		if outer[i] != int32(100+i) {
			t.Fatalf("outer[%d] = %d after growth, want %d", i, outer[i], 100+i)
		}
	}
	s.Release(m)
}

// After one full push/pop cycle at a given shape, repeating the cycle
// performs zero heap allocations: the arena is at its high-water size.
func TestSlabSteadyStateZeroAllocs(t *testing.T) {
	var s Slab[int32]
	cycle := func() {
		m := s.Mark()
		_ = s.Alloc(64)
		inner := s.Mark()
		_ = s.Alloc(128)
		s.Release(inner)
		_ = s.Alloc(128)
		s.Release(m)
	}
	cycle() // warm to high water
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Fatalf("steady-state cycle allocates %v times, want 0", n)
	}
}

// Growth adds chunks instead of copying: every byte a run allocates is
// storage the slab retains, and a repeated run that spans several chunks
// reuses them without allocating.
func TestSlabGrowthByChunks(t *testing.T) {
	var s Slab[int32]
	run := func() {
		m := s.Mark()
		for i := 1; i <= 300; i++ {
			_ = s.Alloc(i)
		}
		s.Release(m)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	if len(s.chunks) < 3 {
		t.Fatalf("run spanned %d chunks, want several", len(s.chunks))
	}
	if got, kept := int64(after.TotalAlloc-before.TotalAlloc), s.SizeBytes(); got > kept+kept/8 {
		t.Fatalf("run allocated %d bytes for %d retained: growth copied", got, kept)
	}
	if n := testing.AllocsPerRun(5, run); n != 0 {
		t.Fatalf("repeated multi-chunk run allocates %v times, want 0", n)
	}
}

// An allocation larger than the next free chunk takes a larger free chunk
// further out, so Release-then-regrow keeps reusing what the slab holds.
func TestSlabReusesLargerFreeChunk(t *testing.T) {
	var s Slab[int32]
	m := s.Mark()
	_ = s.Alloc(60)
	_ = s.Alloc(100) // chunk 1 (128)
	_ = s.Alloc(200) // chunk 2 (256)
	s.Release(m)
	size := s.SizeBytes()
	_ = s.Alloc(60)
	big := s.Alloc(200) // chunk 1 is too small: chunk 2 is swapped in
	big[0] = 1
	if s.SizeBytes() != size {
		t.Fatalf("slab grew from %d to %d bytes with a large enough free chunk", size, s.SizeBytes())
	}
	if s.Mark() != 64+200 {
		t.Fatalf("mark = %d, want %d", s.Mark(), 64+200)
	}
	s.Release(m)
	if s.Mark() != 0 {
		t.Fatalf("release left mark %d", s.Mark())
	}
}

func TestSlabOne(t *testing.T) {
	var s Slab[Tuple]
	m := s.Mark()
	p := s.One()
	p.Item = 7
	if s.Mark() != m+1 {
		t.Fatalf("One advanced mark by %d, want 1", s.Mark()-m)
	}
	q := s.One()
	if q.Item != 0 {
		t.Fatalf("One returned non-zeroed element: %+v", *q)
	}
	if p.Item != 7 {
		t.Fatalf("earlier One clobbered: %+v", *p)
	}
	s.Release(m)
}

func TestArenaMarkReleaseCoversAllSlabs(t *testing.T) {
	var a Arena
	m := a.Mark()
	_ = a.I32.Alloc(5)
	_ = a.Rows.Alloc(3)
	_ = a.Tup.Alloc(2)
	a.Release(m)
	if a.I32.Mark() != 0 || a.Rows.Mark() != 0 || a.Tup.Mark() != 0 {
		t.Fatalf("release left marks %d/%d/%d, want 0/0/0",
			a.I32.Mark(), a.Rows.Mark(), a.Tup.Mark())
	}
}

func TestScratchArenaSteadyStateZeroAllocs(t *testing.T) {
	sc := NewScratch(16)
	cycle := func() {
		m := sc.A.Mark()
		cleaned := sc.A.Rows.Alloc(4)
		backing := sc.A.I32.Alloc(32)
		cleaned[0] = backing[:8]
		_ = sc.A.Tup.Alloc(4)
		sc.A.Release(m)
	}
	cycle()
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Fatalf("scratch arena steady-state cycle allocates %v times, want 0", n)
	}
}

// The epoch counter must survive uint32 wraparound: a stamp written just
// before the wrap may never collide with a post-wrap epoch.
func TestScratchEpochWraparoundReset(t *testing.T) {
	s := NewScratch(4)
	s.epoch = ^uint32(0) - 1
	ep := s.NextEpoch() // ^uint32(0)
	s.Stamp[2] = ep
	ep2 := s.NextEpoch() // wraps: stamps cleared, epoch restarts at 1
	if ep2 != 1 {
		t.Fatalf("post-wrap epoch = %d, want 1", ep2)
	}
	if s.Stamp[2] == ep2 {
		t.Fatal("stale stamp collides with post-wrap epoch")
	}
	for i, st := range s.Stamp {
		if st != 0 {
			t.Fatalf("Stamp[%d] = %d after wrap, want 0", i, st)
		}
	}
}

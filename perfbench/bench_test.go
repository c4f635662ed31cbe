package main

import (
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		p    float64
		want int
	}{{50, 20}, {70, 34}, {90, 100}, {99, 1000}} {
		if got := samplesFor(c.p); got != c.want {
			t.Errorf("samplesFor(%v) = %d, want %d", c.p, got, c.want)
		}
		if supported(c.want-1, c.p) {
			t.Errorf("p%v supported by %d samples", c.p, c.want-1)
		}
		if b := beyond(c.want, c.p); b != minBeyond {
			t.Errorf("p%v over %d samples leaves %d beyond, want %d", c.p, c.want, b, minBeyond)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {20, 50}, {40, 75}, {99, 80}, {100, 90}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
}

func TestMixAndScheduleRepeatPerSeed(t *testing.T) {
	draw := func(seed int64) ([]time.Duration, []mixedRequest) {
		rng := rand.New(rand.NewSource(seed))
		s := poissonSchedule(rng, 500, 2*time.Second)
		return s, mixedPlan(rng, len(s), 215, 10)
	}
	s1, p1 := draw(7)
	s2, p2 := draw(7)
	if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(p1, p2) {
		t.Fatal("equal seeds drew different schedules or mixes")
	}
	s3, p3 := draw(8)
	if reflect.DeepEqual(s1, s3) || reflect.DeepEqual(p1, p3) {
		t.Fatal("different seeds drew the same schedule and mix")
	}
	if n := len(s1); n < 800 || n > 1200 {
		t.Fatalf("%d arrivals in 2 s at 500/s", n)
	}
	budget, cond := 0, 0
	for _, r := range p1 {
		if r.budget {
			budget++
		}
		if r.conditional {
			cond++
		}
	}
	if f := float64(budget) / float64(len(p1)); f < 0.02 || f > 0.09 {
		t.Errorf("budgeted share %.3f, want about %.2f", f, mixedBudgetShare)
	}
	if f := float64(cond) / float64(len(p1)); f < 0.14 || f > 0.26 {
		t.Errorf("conditional share %.3f, want about %.2f", f, mixedConditionalShare)
	}
}

func TestZipfApportion(t *testing.T) {
	counts := newZipf(100, 1.0).apportion(20000)
	sum := 0
	for i, c := range counts {
		sum += c
		if i > 0 && c > counts[i-1] {
			t.Fatalf("rank %d gets %d, more than rank %d's %d", i, c, i-1, counts[i-1])
		}
	}
	if sum != 20000 {
		t.Fatalf("counts sum to %d, want 20000", sum)
	}
	if counts[0] < 5*counts[50] {
		t.Fatalf("rank counts %d, %d not Zipf-shaped", counts[0], counts[50])
	}
}

func TestMixSameAcrossSeeds(t *testing.T) {
	multiset := func(seed int64) map[mixedRequest]int {
		m := map[mixedRequest]int{}
		for _, r := range mixedPlan(rand.New(rand.NewSource(seed)), 1000, 215, 10) {
			m[r]++
		}
		return m
	}
	if !reflect.DeepEqual(multiset(7), multiset(8)) {
		t.Fatal("seeds 7 and 8 send different multisets of requests")
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 1, Op: 1, Name: "op", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Op: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Op: 1, Name: "b", Start: 30 * ms, End: 50 * ms},  // overlaps a
		{ID: 4, Parent: 1, Op: 1, Name: "c", Start: 90 * ms, End: 120 * ms}, // runs past the parent
		{ID: 5, Parent: 2, Op: 1, Name: "a1", Start: 15 * ms, End: 20 * ms},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 100*ms - 40*ms - 10*ms, // [10,50) and [90,100) covered
		2: 30*ms - 5*ms,
		3: 20 * ms,
		4: 30 * ms,
		5: 5 * ms,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time %v, want %v", id, self[id], w)
		}
	}
}

func TestRecorderNesting(t *testing.T) {
	var nilRec *Recorder
	if id := nilRec.Start(1, "x", 0); id != 0 {
		t.Fatal("nil recorder returned a span ID")
	}
	nilRec.End(0)
	r := NewRecorder()
	root := r.Start(1, "op", 0)
	child := r.Start(1, "search", root)
	r.End(child)
	open := r.Start(2, "op", 0) // never closed: not reported
	_ = open
	r.End(root)
	spans := r.Spans()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Op != 1 {
		t.Fatalf("spans %+v", spans)
	}
	sum := summarize(spans)
	if _, ok := sum.selfMS["search"]; sum.ops != 1 || !ok || sum.selfMS["op"] < 0 {
		t.Fatalf("summary %+v", sum)
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// Three requests due at once over one connection: each waits for the
	// ones before it, and that wait is part of its latency.
	const work = 30 * time.Millisecond
	var inFlight atomic.Int32
	res := runOpenLoop([]time.Duration{0, 0, 0}, 1, func(int) error {
		if inFlight.Add(1) > 1 {
			t.Error("more requests in flight than connections")
		}
		time.Sleep(work)
		inFlight.Add(-1)
		return nil
	})
	for i, r := range res {
		want := time.Duration(i+1) * work
		if r.latency < want || r.latency > want+25*time.Millisecond {
			t.Errorf("request %d latency %v, want about %v from its due time", i, r.latency, want)
		}
		if r.late < 0 || r.late > 25*time.Millisecond {
			t.Errorf("request %d generator lateness %v", i, r.late)
		}
	}
	// A request due in the future is not early, and its lateness is the
	// dispatcher's oversleep only.
	res = runOpenLoop([]time.Duration{20 * time.Millisecond}, 1, func(int) error { return nil })
	if res[0].late < 0 || res[0].latency < res[0].late {
		t.Errorf("lateness %v, latency %v", res[0].late, res[0].latency)
	}
}

package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// zipf holds the CDF of ranks 0..n-1 drawn with probability proportional
// to 1/(rank+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	total := 0.0
	for i := range cdf {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &zipf{cdf: cdf}
}

// apportion splits n draws over the ranks in proportion to their
// probabilities by largest remainder, ties to the lower rank: the counts
// a perfectly even sample of n would give.
func (z *zipf) apportion(n int) []int {
	counts := make([]int, len(z.cdf))
	rem := make([]float64, len(z.cdf))
	left, prev := n, 0.0
	for i, c := range z.cdf {
		exp := (c - prev) * float64(n)
		prev = c
		counts[i] = int(exp)
		rem[i] = exp - float64(counts[i])
		left -= counts[i]
	}
	order := make([]int, len(rem))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for _, i := range order[:left] {
		counts[i]++
	}
	return counts
}

// poissonSchedule returns the send offsets of a Poisson arrival process at
// rate arrivals per second over dur.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return out
		}
		out = append(out, at)
	}
}

// openResult is what the open loop measured for one scheduled request.
type openResult struct {
	latency time.Duration // completion minus due time
	late    time.Duration // dispatch minus due time (generator lateness)
	service time.Duration // completion minus the moment a connection took it
	err     error
}

// runOpenLoop sends request i at start+schedule[i] regardless of whether
// earlier requests finished, over conns concurrent connections. Each
// request is timed from its due time, so a request that waited for a free
// connection or behind a stall carries that wait. The dispatcher's own
// lateness is reported per request.
func runOpenLoop(schedule []time.Duration, conns int, do func(i int) error) []openResult {
	type item struct {
		i        int
		due, out time.Time
	}
	out := make([]openResult, len(schedule))
	ch := make(chan item, len(schedule)) // every request is queued at most once
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range ch {
				taken := time.Now()
				err := do(it.i)
				out[it.i] = openResult{latency: time.Since(it.due), late: it.out.Sub(it.due), service: time.Since(taken), err: err}
			}
		}()
	}
	start := time.Now()
	for i, off := range schedule {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		ch <- item{i: i, due: due, out: time.Now()}
	}
	close(ch)
	wg.Wait()
	return out
}

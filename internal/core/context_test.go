package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/bitset"
)

// A context cancelled before the run starts must stop within one node
// expansion: the cancellation contract is checked at EnterNode, so the
// first node entered observes it and nothing deeper runs.
func TestMineContextCancelledBeforeStart(t *testing.T) {
	d := stressDataset(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := MineContext(ctx, d, 0, Options{MinSup: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled run returned nil Result; want partial stats")
	}
	if res.Stats().NodesVisited > 1 {
		t.Fatalf("NodesVisited = %d after pre-cancelled context; want <= 1 (stop within one node expansion)",
			res.Stats().NodesVisited)
	}
	if len(res.Groups) != 0 {
		t.Fatalf("pre-cancelled run emitted %d groups", len(res.Groups))
	}
}

// Cancelling from inside the streaming callback must stop the run within
// one node expansion and deliver nothing further — including on the unwind
// path, where ancestors of the cancelled node reach their own step 7.
func TestMineStreamCancelMidRun(t *testing.T) {
	d := stressDataset(t)
	opt := Options{MinSup: 2, MinConf: 0.5}
	full, err := Mine(d, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Groups) < 3 {
		t.Fatalf("need >= 3 groups for a mid-run cancel, got %d", len(full.Groups))
	}

	for stopAt := 1; stopAt < len(full.Groups); stopAt += (len(full.Groups)-1)/4 + 1 {
		ctx, cancel := context.WithCancel(context.Background())
		var got []RuleGroup
		res, err := MineStream(ctx, d, 0, opt, func(g RuleGroup) error {
			got = append(got, g)
			if len(got) == stopAt {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("stopAt=%d: err = %v, want context.Canceled", stopAt, err)
		}
		if len(got) != stopAt {
			t.Fatalf("stopAt=%d: %d groups delivered after cancel", stopAt, len(got))
		}
		// The emitted prefix must be exactly the batch run's prefix.
		if !reflect.DeepEqual(got, full.Groups[:stopAt]) {
			t.Fatalf("stopAt=%d: cancelled-run prefix differs from batch order", stopAt)
		}
		if res.Stats().NodesVisited > full.Stats().NodesVisited {
			t.Fatalf("stopAt=%d: cancelled run visited %d nodes, full run %d",
				stopAt, res.Stats().NodesVisited, full.Stats().NodesVisited)
		}
	}
}

// An error returned by the streaming callback aborts the run and surfaces
// verbatim.
func TestMineStreamCallbackError(t *testing.T) {
	d := stressDataset(t)
	boom := errors.New("boom")
	calls := 0
	_, err := MineStream(context.Background(), d, 0, Options{MinSup: 2}, func(RuleGroup) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the callback's error", err)
	}
	if calls != 1 {
		t.Fatalf("callback ran %d times after returning an error", calls)
	}
}

// Streaming delivery must be byte-identical to batch Mine: same groups,
// same order, including lower bounds.
func TestMineStreamEquivalentToBatch(t *testing.T) {
	d := stressDataset(t)
	opt := Options{MinSup: 3, MinConf: 0.6, ComputeLowerBounds: true}
	batch := mustMine(t, d, 0, opt)
	var streamed []RuleGroup
	res, err := MineStream(context.Background(), d, 0, opt, func(g RuleGroup) error {
		streamed = append(streamed, g)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, batch.Groups) {
		t.Fatalf("streamed groups differ from batch:\n got %d\nwant %d", len(streamed), len(batch.Groups))
	}
	if res.Stats().Counters != batch.Stats().Counters {
		t.Fatalf("streamed counters differ from batch:\n got %+v\nwant %+v",
			res.Stats().Counters, batch.Stats().Counters)
	}
	if res.Groups != nil {
		t.Fatal("MineStream accumulated Groups; streaming must not batch")
	}
}

// A cancelled MineParallelContext must not leak worker goroutines: workers
// drain the task queue without expanding nodes and exit before the call
// returns.
func TestMineParallelContextCancelDrains(t *testing.T) {
	d := stressDataset(t)
	opt := Options{MinSup: 2, MinConf: 0.5, ComputeLowerBounds: true}
	before := runtime.NumGoroutine()

	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // cancel up front: every task should be skipped
		res, err := MineParallelContext(ctx, d, 0, opt, 4)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if res == nil {
			t.Fatal("cancelled parallel run returned nil Result")
		}
		if len(res.Groups) != 0 {
			t.Fatalf("cancelled parallel run returned %d groups; fixpoint must not run on partial candidates",
				len(res.Groups))
		}
		// Workers enter at most one node each before observing cancellation.
		if res.Stats().NodesVisited > 4 {
			t.Fatalf("cancelled run visited %d nodes with 4 workers; want <= 4", res.Stats().NodesVisited)
		}
	}

	// All workers must have exited by return; poll briefly for the runtime
	// to reap them before declaring a leak.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after cancelled runs",
				before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// A deadline that expires mid-run surfaces DeadlineExceeded with partial
// stats from MineParallelContext.
func TestMineParallelContextDeadline(t *testing.T) {
	d := stressDataset(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := MineParallelContext(ctx, d, 0, Options{MinSup: 2}, 2)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if res == nil || len(res.Groups) != 0 {
		t.Fatal("expired-deadline run should return partial stats and no groups")
	}
}

// TopK under a pre-cancelled context stops within one node.
func TestMineTopKContextCancelled(t *testing.T) {
	d := stressDataset(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := TopK(ctx, d, 0, TopKOptions{K: 5, MinSup: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Groups) != 0 {
		t.Fatal("pre-cancelled top-k should return its stats and no groups")
	}
}

// MineLowerBoundsContext polls cancellation and reports nothing partial.
func TestMineLowerBoundsContextCancelled(t *testing.T) {
	d := stressDataset(t)
	res := mustMine(t, d, 0, Options{MinSup: 2})
	if len(res.Groups) == 0 {
		t.Fatal("no groups to expand")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := res.Groups[0]
	rowSet := bitset.FromInts(len(d.Rows), g.Rows...)
	lbs, _, err := MineLowerBoundsContext(ctx, d, g.Antecedent, rowSet, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if lbs != nil {
		t.Fatal("cancelled MineLowerBoundsContext returned partial bounds")
	}
}

package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/store"
	"repro/internal/synth"
)

// backScanHitLists is the list-walk form of the Lemma 3.6 back scan, kept
// as the oracle of the word-parallel backScanHit: it walks each tuple's
// global row list below rmax, counting per row (epoch-stamped) how many
// tuples hold it outside m.sc.InX, and hits when one row reaches every
// tuple.
func (m *miner) backScanHitLists(items []dataset.Item, rmax int) bool {
	if len(items) == 0 || rmax == 0 {
		return false
	}
	ep := m.sc.NextEpoch()
	cnt, stamp := m.sc.Cnt, m.sc.Stamp
	inX := m.sc.InX
	ntup := int32(len(items))
	for ti, it := range items {
		glist := m.tt.Lists[it]
		hitAny := false
		for _, r := range glist {
			if int(r) >= rmax {
				break
			}
			if inX.Test(int(r)) {
				continue
			}
			if ti == 0 {
				stamp[r] = ep
				cnt[r] = 1
				if ntup == 1 {
					return true
				}
				hitAny = true
				continue
			}
			if stamp[r] == ep && cnt[r] == int32(ti) {
				cnt[r]++
				if cnt[r] == ntup {
					return true
				}
				hitAny = true
			}
		}
		if !hitAny {
			return false // some tuple contributes no surviving prefix row
		}
	}
	return false
}

// kernelDataset draws a dataset of 1–200 rows over a few dozen items at a
// random density, so word-boundary row counts (64, 128) and dense tuples
// whose back scans hit both occur.
func kernelDataset(rng *rand.Rand) *dataset.Dataset {
	n := 1 + rng.Intn(200)
	numItems := 1 + rng.Intn(40)
	density := 0.3 + 0.65*rng.Float64()
	lists := make([][]dataset.Item, n)
	classes := make([]int, n)
	for i := range lists {
		for it := 0; it < numItems; it++ {
			if rng.Float64() < density {
				lists[i] = append(lists[i], dataset.Item(it))
			}
		}
		classes[i] = rng.Intn(2)
	}
	d, err := dataset.FromItemLists(lists, classes, numItems, []string{"C", "N"})
	if err != nil {
		panic(err)
	}
	return d
}

// checkWordsMatchLists asserts a transposed table's per-item row words
// hold exactly the rows of its lists.
func checkWordsMatchLists(t *testing.T, what string, tt *dataset.Transposed) {
	t.Helper()
	if want := (tt.NumRows + 63) / 64; tt.Stride != want {
		t.Fatalf("%s: stride %d for %d rows, want %d", what, tt.Stride, tt.NumRows, want)
	}
	if len(tt.Words) != len(tt.Lists)*tt.Stride {
		t.Fatalf("%s: %d words for %d items × stride %d", what, len(tt.Words), len(tt.Lists), tt.Stride)
	}
	for it, list := range tt.Lists {
		want := make([]uint64, tt.Stride)
		for _, r := range list {
			want[r/64] |= 1 << (r % 64)
		}
		got := tt.ItemWords(dataset.Item(it))
		for w := range want {
			if got[w] != want[w] {
				t.Fatalf("%s: item %d word %d = %#x, list %v gives %#x", what, it, w, got[w], list, want[w])
			}
		}
	}
}

// TestBackScanWordsMatchListWalk checks the word-parallel back scan
// against the list walk on random datasets of 1–200 rows, with rmax on
// and around the 64- and 128-row word boundaries and random exclusion
// sets.
func TestBackScanWordsMatchListWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	hits, misses := 0, 0
	for trial := 0; trial < 300; trial++ {
		d := kernelDataset(rng)
		n := len(d.Rows)
		m := newMiner(d, n, Options{MinSup: 1}, engine.NewExec(nil), nil)
		rmaxes := []int{0, 1, n, rng.Intn(n + 1)}
		for _, b := range []int{63, 64, 65, 127, 128, 129} {
			if b <= n {
				rmaxes = append(rmaxes, b)
			}
		}
		for probe := 0; probe < 20; probe++ {
			m.sc.InX.Reset()
			for r := 0; r < n; r++ {
				if rng.Float64() < 0.15 {
					m.sc.InX.Set(r)
				}
			}
			items := make([]dataset.Item, 1+rng.Intn(4))
			for i := range items {
				items[i] = dataset.Item(rng.Intn(d.NumItems))
			}
			for _, rmax := range rmaxes {
				want := m.backScanHitLists(items, rmax)
				if got := m.backScanHit(items, rmax); got != want {
					t.Fatalf("trial %d: n=%d rmax=%d items=%v inX=%v: words %v, lists %v",
						trial, n, rmax, items, m.sc.InX.Ints(), got, want)
				}
				if want {
					hits++
				} else {
					misses++
				}
			}
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("vacuous: %d hits, %d misses", hits, misses)
	}
}

// TestTransposedWordsMatchLists checks the per-item row words against the
// lists for Transpose, for every consequent view of a snapshot, and for
// the same tables after a store encode/decode round trip.
func TestTransposedWordsMatchLists(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 40; trial++ {
		d := kernelDataset(rng)
		checkWordsMatchLists(t, "Transpose", dataset.Transpose(d))
		snap, err := dataset.NewSnapshot(d)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < d.NumClasses(); c++ {
			if _, err := snap.ForConsequent(c); err != nil {
				t.Fatal(err)
			}
		}
		buf, err := store.Encode(snap)
		if err != nil {
			t.Fatal(err)
		}
		back, err := store.Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []*dataset.Snapshot{snap, back} {
			checkWordsMatchLists(t, "snapshot", s.Transposed())
			for c, v := range s.MaterializedViews() {
				checkWordsMatchLists(t, "view "+d.ClassNames[c], v.TT)
			}
		}
	}
}

// TestPaperEnumerationPinned holds the search Counters of Mine and of
// exhausted top-k — under both names of the one best-first search — on
// two unpermuted paper shapes at fixed values. The node kernel may get
// faster, but a change that alters which nodes the searches visit or how
// they are pruned must fail here and say so.
func TestPaperEnumerationPinned(t *testing.T) {
	cases := []struct {
		name   string
		minsup int
		mine   engine.Counters
		topk   engine.Counters
	}{
		{"CT", 40,
			engine.Counters{NodesVisited: 1567, PrunedBackScan: 282, PrunedLooseBound: 1244, PrunedTightBound: 3, RowsAbsorbed: 24, GroupsEmitted: 6},
			engine.Counters{NodesVisited: 336, PrunedBackScan: 214, PrunedLooseBound: 1442, PrunedGainBound: 32, GroupsEmitted: 27}},
		{"ALL", 47,
			engine.Counters{NodesVisited: 2023, PrunedBackScan: 143, PrunedLooseBound: 1842, PrunedTightBound: 1, RowsAbsorbed: 9},
			engine.Counters{NodesVisited: 199, PrunedBackScan: 74, PrunedLooseBound: 2029, GroupsEmitted: 15}},
	}
	for _, tc := range cases {
		spec, ok := synth.PaperSpec(tc.name)
		if !ok {
			t.Fatalf("no paper spec %s", tc.name)
		}
		d, err := spec.GenerateDiscrete(10)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Mine(d, 0, Options{MinSup: tc.minsup, MinConf: 0.9, MinChi: 10})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Stats().Counters; got != tc.mine {
			t.Errorf("%s %d Mine counters\n got %+v\nwant %+v", tc.name, tc.minsup, got, tc.mine)
		}
		for _, strat := range []Strategy{StrategyExact, StrategyBestFirst} {
			tk, err := TopK(context.Background(), d, 0, TopKOptions{K: 20, MinSup: tc.minsup, Strategy: strat})
			if err != nil {
				t.Fatal(err)
			}
			if got := tk.Stats().Counters; got != tc.topk {
				t.Errorf("%s %d top-k %s counters\n got %+v\nwant %+v", tc.name, tc.minsup, strat, got, tc.topk)
			}
		}
	}
}

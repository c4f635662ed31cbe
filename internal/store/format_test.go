package store

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/dataset"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_v1.snap from testdata/golden_v1.txt")

// mustSnapshot compiles d and materializes the views for the given
// consequents so the encoding exercises the view sections.
func mustSnapshot(t testing.TB, d *dataset.Dataset, consequents ...int) *dataset.Snapshot {
	t.Helper()
	s, err := dataset.NewSnapshot(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range consequents {
		if _, err := s.ForConsequent(c); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// assertSnapshotsEqual compares two snapshots structure by structure —
// reflect.DeepEqual on the whole Snapshot would drag in the internal
// mutex, and bitsets compare by content, not representation.
func assertSnapshotsEqual(t *testing.T, want, got *dataset.Snapshot) {
	t.Helper()
	if !reflect.DeepEqual(want.Dataset(), got.Dataset()) {
		t.Errorf("dataset differs:\nwant %+v\ngot  %+v", want.Dataset(), got.Dataset())
	}
	if !reflect.DeepEqual(want.Transposed(), got.Transposed()) {
		t.Errorf("transposed table differs")
	}
	wr, gr := want.ItemRows(), got.ItemRows()
	if len(wr) != len(gr) {
		t.Fatalf("item row sets: %d vs %d", len(wr), len(gr))
	}
	for i := range wr {
		if !wr[i].Equal(gr[i]) {
			t.Errorf("item %d row set differs: want %v got %v", i, wr[i], gr[i])
		}
	}
	if !reflect.DeepEqual(want.FreqOrder(), got.FreqOrder()) {
		t.Errorf("frequency order differs: want %v got %v", want.FreqOrder(), got.FreqOrder())
	}
	wv, gv := want.MaterializedViews(), got.MaterializedViews()
	if len(wv) != len(gv) {
		t.Fatalf("materialized views: %d vs %d", len(wv), len(gv))
	}
	for c, w := range wv {
		g, ok := gv[c]
		if !ok {
			t.Errorf("view for consequent %d missing", c)
			continue
		}
		if !reflect.DeepEqual(w.Ordered, g.Ordered) {
			t.Errorf("view %d: ordered dataset differs", c)
		}
		if !reflect.DeepEqual(w.Ord, g.Ord) {
			t.Errorf("view %d: ordering differs: want %+v got %+v", c, w.Ord, g.Ord)
		}
		if !reflect.DeepEqual(w.TT, g.TT) {
			t.Errorf("view %d: ordered transposed table differs", c)
		}
		if !w.PosMask.Equal(g.PosMask) {
			t.Errorf("view %d: class mask differs", c)
		}
	}
}

// randomDataset draws a small dataset with occasional empty rows and an
// unused (zero-support) item so the encoder sees nil transposed lists.
func randomDataset(t testing.TB, rng *rand.Rand) *dataset.Dataset {
	t.Helper()
	n := 1 + rng.Intn(12)
	numItems := 2 + rng.Intn(10)
	numClasses := 2 + rng.Intn(2)
	lists := make([][]dataset.Item, n)
	classes := make([]int, n)
	for i := 0; i < n; i++ {
		for it := 0; it < numItems-1; it++ { // last item stays unused
			if rng.Float64() < 0.5 {
				lists[i] = append(lists[i], dataset.Item(it))
			}
		}
		classes[i] = rng.Intn(numClasses)
	}
	names := []string{"C", "N", "X"}[:numClasses]
	d, err := dataset.FromItemLists(lists, classes, numItems, names)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for iter := 0; iter < 50; iter++ {
		d := randomDataset(t, rng)
		var views []int
		for c := 0; c < d.NumClasses(); c++ {
			if rng.Intn(2) == 0 {
				views = append(views, c)
			}
		}
		want := mustSnapshot(t, d, views...)
		buf, err := Encode(want)
		if err != nil {
			t.Fatalf("iter %d: Encode: %v", iter, err)
		}
		got, err := Decode(buf)
		if err != nil {
			t.Fatalf("iter %d: Decode: %v", iter, err)
		}
		assertSnapshotsEqual(t, want, got)
	}
}

func TestRoundTripEmptyAndEdgeDatasets(t *testing.T) {
	cases := []struct {
		name string
		d    func(t *testing.T) *dataset.Dataset
	}{
		{"no-rows", func(t *testing.T) *dataset.Dataset {
			d, err := dataset.FromItemLists(nil, nil, 3, []string{"C", "N"})
			if err != nil {
				t.Fatal(err)
			}
			return d
		}},
		{"empty-rows", func(t *testing.T) *dataset.Dataset {
			d, err := dataset.FromItemLists([][]dataset.Item{nil, {0}, nil}, []int{0, 1, 0}, 2, []string{"C", "N"})
			if err != nil {
				t.Fatal(err)
			}
			return d
		}},
		{"item-names", func(t *testing.T) *dataset.Dataset {
			d, err := dataset.ReadTransactions(bytes.NewReader([]byte("C : a b\nN : b c\n")))
			if err != nil {
				t.Fatal(err)
			}
			return d
		}},
		{"64-rows-word-boundary", func(t *testing.T) *dataset.Dataset {
			lists := make([][]dataset.Item, 64)
			classes := make([]int, 64)
			for i := range lists {
				lists[i] = []dataset.Item{dataset.Item(i % 3)}
				classes[i] = i % 2
			}
			d, err := dataset.FromItemLists(lists, classes, 3, []string{"C", "N"})
			if err != nil {
				t.Fatal(err)
			}
			return d
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.d(t)
			var views []int
			if d.NumRows() > 0 {
				views = append(views, 0)
			}
			want := mustSnapshot(t, d, views...)
			buf, err := Encode(want)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Decode(buf)
			if err != nil {
				t.Fatal(err)
			}
			assertSnapshotsEqual(t, want, got)
		})
	}
}

// The encoding must be deterministic — the golden test, content-addressed
// distribution, and byte-level diffing all rely on it. Views are the only
// map involved; encode with both materialized repeatedly.
func TestEncodeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := randomDataset(t, rng)
	var first []byte
	for i := 0; i < 10; i++ {
		s := mustSnapshot(t, d, 0, 1)
		buf, err := Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = buf
		} else if !bytes.Equal(first, buf) {
			t.Fatalf("encoding %d differs from the first", i)
		}
	}
}

// Every truncation and every flipped bit must yield ErrFormat — never a
// panic, never a silent success.
func TestDecodeRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := randomDataset(t, rng)
	buf, err := Encode(mustSnapshot(t, d, 0))
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncated", func(t *testing.T) {
		for cut := 0; cut < len(buf); cut++ {
			if _, err := Decode(buf[:cut]); !errors.Is(err, ErrFormat) {
				t.Fatalf("truncation at %d: got %v, want ErrFormat", cut, err)
			}
		}
	})
	t.Run("bit-flipped", func(t *testing.T) {
		for off := 0; off < len(buf); off++ {
			mut := append([]byte(nil), buf...)
			mut[off] ^= 1 << uint(off%8)
			if _, err := Decode(mut); !errors.Is(err, ErrFormat) {
				t.Fatalf("flip at %d: got %v, want ErrFormat", off, err)
			}
		}
	})
	t.Run("wrong-version", func(t *testing.T) {
		mut := append([]byte(nil), buf...)
		mut[8] = 99 // version field, little-endian low byte
		if _, err := Decode(mut); !errors.Is(err, ErrFormat) {
			t.Fatalf("got %v, want ErrFormat", err)
		}
	})
	t.Run("trailing-garbage", func(t *testing.T) {
		if _, err := Decode(append(append([]byte(nil), buf...), 0xAB)); !errors.Is(err, ErrFormat) {
			t.Fatalf("got %v, want ErrFormat", err)
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := Decode(nil); !errors.Is(err, ErrFormat) {
			t.Fatalf("got %v, want ErrFormat", err)
		}
	})
}

// A header may declare any shape its 4-byte row and item slots can pay
// for. A file of empty rows and empty lists that ends before its item row
// sets must fail without sizing those sets: 65536 rows × 131072 items of
// them would be 1 GiB, from about 1 MiB of input.
func TestDecodeHugeShapeAllocatesLittle(t *testing.T) {
	const numRows, numItems = 1 << 16, 1 << 17
	a := &appender{}
	a.raw([]byte(Magic))
	for _, v := range []uint32{Version, 0, numRows, numItems, 1, 0} {
		a.u32(v) // version, flags, rows, items, classes, views
	}
	a.str("C")
	for i := 0; i < 2*numRows+1; i++ {
		a.u32(0) // row classes, then the row offset table: all rows empty
	}
	for i := 0; i < numItems+1; i++ {
		a.u32(0) // transposed offset table: all lists empty
	}
	a.u64(0)
	data := fixCRC(a.b)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := Decode(data)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrFormat) {
		t.Fatalf("got %v, want ErrFormat", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16*uint64(len(data)) {
		t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
	}
}

// A view's row words are rebuilt, not stored, so a file with many views of
// a wide, sparse table decodes to more words than it has bytes. Decode
// restores views only while their words fit in len(data); the rest are
// compiled on first use, identical to a fresh snapshot's.
func TestDecodeViewWordsStayWithinInput(t *testing.T) {
	const numRows, numItems, numClasses = 4096, 512, 24
	lists := make([][]dataset.Item, numRows)
	classes := make([]int, numRows)
	names := make([]string, numClasses)
	for i := range names {
		names[i] = fmt.Sprint("c", i)
	}
	for r := range lists {
		classes[r] = r % numClasses
		lists[r] = []dataset.Item{dataset.Item(r % numItems)}
	}
	d, err := dataset.FromItemLists(lists, classes, numItems, names)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, numClasses)
	for c := range all {
		all[c] = c
	}
	want := mustSnapshot(t, d, all...)
	buf, err := Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	restored := got.MaterializedViews()
	words := 0
	for _, v := range restored {
		words += 8 * len(v.TT.Words)
	}
	if len(restored) == 0 || len(restored) == numClasses || words > len(buf) {
		t.Fatalf("%d of %d views restored, %d word bytes from a %d-byte file", len(restored), numClasses, words, len(buf))
	}
	for c := range all {
		w, _ := want.ForConsequent(c)
		g, err := got.ForConsequent(c)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(w.TT, g.TT) || !reflect.DeepEqual(w.Ord, g.Ord) || !w.PosMask.Equal(g.PosMask) {
			t.Fatalf("view %d differs from a fresh snapshot's", c)
		}
	}
}

// goldenSnapshot compiles the committed golden source dataset exactly as
// the golden binary was produced: both consequent views materialized.
func goldenSnapshot(t *testing.T) *dataset.Snapshot {
	t.Helper()
	f, err := os.Open("testdata/golden_v1.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d, err := dataset.ReadTransactions(f)
	if err != nil {
		t.Fatal(err)
	}
	return mustSnapshot(t, d, 0, 1)
}

// TestGoldenV1 locks the version-1 encoding against silent drift: the
// committed binary must keep decoding to a snapshot deep-equal to one
// freshly compiled from the committed source. An intentional format change
// bumps Version and regenerates with `go test ./internal/store -update`.
func TestGoldenV1(t *testing.T) {
	const golden = "testdata/golden_v1.snap"
	want := goldenSnapshot(t)
	if *update {
		buf, err := Encode(want)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(buf))
		return
	}
	buf, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v — run `go test ./internal/store -update` after an intentional format change", err)
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatalf("decode committed golden: %v", err)
	}
	assertSnapshotsEqual(t, want, got)

	// The current encoder must also still produce the committed bytes —
	// byte-for-byte — or readers of old files and writers have diverged.
	reenc, err := Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reenc, buf) {
		t.Fatalf("re-encoding the golden source differs from the committed binary (len %d vs %d)", len(reenc), len(buf))
	}
}

func TestWriteRead(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	want := mustSnapshot(t, randomDataset(t, rng), 0)
	var buf bytes.Buffer
	if err := Write(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSnapshotsEqual(t, want, got)
}

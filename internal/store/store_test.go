package store

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func openTestStore(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	st, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func TestStorePutLoadAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(1))
	d := randomDataset(t, rng)
	want := mustSnapshot(t, d, 0)

	st := openTestStore(t, dir, Options{})
	if err := st.Put("mini", want, 3); err != nil {
		t.Fatal(err)
	}
	if got := st.Generation(); got != 3 {
		t.Fatalf("generation = %d, want 3", got)
	}
	st.Close()

	// The default LRU budget: CacheBytes 0 keeps nothing decoded, so the
	// LRU-hit assertion below would race the evictor.
	st2 := openTestStore(t, dir, Options{CacheBytes: -1})
	if got := st2.Generation(); got != 3 {
		t.Fatalf("reopened generation = %d, want 3", got)
	}
	entries := st2.Entries()
	if len(entries) != 1 || entries[0].Name != "mini" || entries[0].Generation != 3 {
		t.Fatalf("entries = %+v", entries)
	}
	if entries[0].Rows != d.NumRows() || entries[0].Items != d.NumItems {
		t.Fatalf("manifest shape %d×%d, want %d×%d", entries[0].Rows, entries[0].Items, d.NumRows(), d.NumItems)
	}
	got, gen, err := st2.Load("mini")
	if err != nil {
		t.Fatal(err)
	}
	if gen != 3 {
		t.Fatalf("loaded generation = %d, want 3", gen)
	}
	assertSnapshotsEqual(t, want, got)

	// Second load must be an LRU hit returning the identical decoded value.
	again, _, err := st2.Load("mini")
	if err != nil {
		t.Fatal(err)
	}
	if again != got {
		t.Fatal("LRU hit returned a different snapshot pointer")
	}
}

func TestStoreReplaceBumpsGenerationAndDropsOldFile(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(2))
	st := openTestStore(t, dir, Options{})
	first := mustSnapshot(t, randomDataset(t, rng), 0)
	second := mustSnapshot(t, randomDataset(t, rng))
	if err := st.Put("ds", first, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("ds", second, 2); err != nil {
		t.Fatal(err)
	}
	got, gen, err := st.Load("ds")
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 {
		t.Fatalf("generation = %d, want 2", gen)
	}
	assertSnapshotsEqual(t, second, got)
	files, err := os.ReadDir(filepath.Join(dir, snapshotDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		names := make([]string, len(files))
		for i, f := range files {
			names[i] = f.Name()
		}
		t.Fatalf("want 1 snapshot file after replace, got %v", names)
	}
}

// A failing writer must leave no trace: no manifest change, no generation
// change, no snapshot file, no cache entry — and the store keeps working
// once the writer recovers.
func TestStorePutFailureLeavesNoPartialState(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(3))
	snapA := mustSnapshot(t, randomDataset(t, rng), 0)
	snapB := mustSnapshot(t, randomDataset(t, rng))

	bomb := errors.New("disk on fire")
	failing := true
	var wrote []string
	st := openTestStore(t, dir, Options{WriteFile: func(path string, data []byte) error {
		if failing {
			// Worst case: the writer dirties the target before failing.
			os.WriteFile(path, data[:len(data)/2], 0o644)
			return bomb
		}
		wrote = append(wrote, filepath.Base(path))
		return atomicWriteFile(path, data)
	}})

	if err := st.Put("good", snapA, 1); !errors.Is(err, bomb) {
		t.Fatalf("Put with failing writer: %v, want %v", err, bomb)
	}
	if gen := st.Generation(); gen != 0 {
		t.Fatalf("generation advanced to %d after failed Put", gen)
	}
	if entries := st.Entries(); len(entries) != 0 {
		t.Fatalf("failed Put left entries: %+v", entries)
	}
	if n, b := st.CacheStats(); n != 0 || b != 0 {
		t.Fatalf("failed Put left cache state: %d entries, %d bytes", n, b)
	}
	if _, _, err := st.Load("good"); err == nil {
		t.Fatal("Load succeeded for a dataset whose Put failed")
	}
	files, _ := os.ReadDir(filepath.Join(dir, snapshotDir))
	if len(files) != 0 {
		t.Fatalf("failed Put left %d snapshot file(s)", len(files))
	}

	// Manifest-commit failure (snapshot write succeeds, manifest doesn't)
	// must roll the snapshot file back too.
	failing = false
	manifestBomb := func(path string, data []byte) error {
		if filepath.Base(path) == manifestName {
			return bomb
		}
		return atomicWriteFile(path, data)
	}
	st2 := openTestStore(t, dir, Options{WriteFile: manifestBomb})
	if err := st2.Put("good", snapA, 1); !errors.Is(err, bomb) {
		t.Fatalf("Put with failing manifest writer: %v, want %v", err, bomb)
	}
	files, _ = os.ReadDir(filepath.Join(dir, snapshotDir))
	if len(files) != 0 {
		t.Fatalf("failed manifest commit left %d snapshot file(s)", len(files))
	}

	// And the same directory keeps working with a healthy writer.
	st3 := openTestStore(t, dir, Options{})
	if err := st3.Put("good", snapB, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st3.Load("good"); err != nil {
		t.Fatal(err)
	}
	_ = wrote
}

// Orphaned snapshot files — a crash after the snapshot write but before
// the manifest commit — are collected by the next Open.
func TestStoreOpenCollectsOrphans(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(4))
	st := openTestStore(t, dir, Options{})
	if err := st.Put("keep", mustSnapshot(t, randomDataset(t, rng)), 1); err != nil {
		t.Fatal(err)
	}
	st.Close()

	orphan := filepath.Join(dir, snapshotDir, "orphan.9.snap")
	if err := os.WriteFile(orphan, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2 := openTestStore(t, dir, Options{})
	if _, err := os.Stat(orphan); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("orphan still present after Open: %v", err)
	}
	if _, _, err := st2.Load("keep"); err != nil {
		t.Fatalf("committed dataset lost: %v", err)
	}
}

// The evictor must keep the decoded working set under the byte budget
// while every Load still succeeds (evicted snapshots re-decode from disk).
func TestStoreLRUEviction(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(5))
	// Budget ≈ one encoded snapshot: inserting a second must evict the
	// least recently used.
	probe, err := Encode(mustSnapshot(t, randomDataset(t, rng)))
	if err != nil {
		t.Fatal(err)
	}
	st := openTestStore(t, dir, Options{CacheBytes: int64(len(probe)) * 3 / 2})

	var gens []uint64
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("ds%d", i)
		if err := st.Put(name, mustSnapshot(t, randomDataset(t, rng)), uint64(i+1)); err != nil {
			t.Fatal(err)
		}
		gens = append(gens, uint64(i+1))
	}
	waitBudget := func() {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for {
			if _, b := st.CacheStats(); b <= st.cacheBytes {
				return
			}
			if time.Now().After(deadline) {
				_, b := st.CacheStats()
				t.Fatalf("evictor never trimmed cache to %d bytes (at %d)", st.cacheBytes, b)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitBudget()
	if n, _ := st.CacheStats(); n >= 4 {
		t.Fatalf("no eviction happened: %d entries resident", n)
	}
	// Every dataset still loads — including evicted ones — at its
	// registered generation.
	for i := 0; i < 4; i++ {
		_, gen, err := st.Load(fmt.Sprintf("ds%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if gen != gens[i] {
			t.Fatalf("ds%d generation = %d, want %d", i, gen, gens[i])
		}
		waitBudget()
	}
}

// CacheBytes 0 is the degenerate budget: nothing stays decoded, loads
// always hit the disk, and the store still serves correctly.
func TestStoreZeroBudget(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(6))
	want := mustSnapshot(t, randomDataset(t, rng), 0)
	st := openTestStore(t, dir, Options{CacheBytes: 0})
	if err := st.Put("ds", want, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, _, err := st.Load("ds")
		if err != nil {
			t.Fatal(err)
		}
		assertSnapshotsEqual(t, want, got)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n, b := st.CacheStats(); n == 0 && b == 0 {
			break
		}
		if time.Now().After(deadline) {
			n, b := st.CacheStats()
			t.Fatalf("zero-budget store retained %d entries, %d bytes", n, b)
		}
		time.Sleep(time.Millisecond)
	}
}

// Names that need escaping on disk must round-trip through the store.
func TestStoreEscapedNames(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	st := openTestStore(t, dir, Options{})
	names := []string{"with space", "slash/y", "dots..", "ünïcode", strings.Repeat("x", 60)}
	for i, name := range names {
		if err := st.Put(name, mustSnapshot(t, randomDataset(t, rng)), uint64(i+1)); err != nil {
			t.Fatalf("Put %q: %v", name, err)
		}
	}
	st.Close()
	st2 := openTestStore(t, dir, Options{})
	for _, name := range names {
		if _, _, err := st2.Load(name); err != nil {
			t.Fatalf("Load %q after reopen: %v", name, err)
		}
	}
}

// A corrupted snapshot file surfaces as a load error, not a panic, and
// does not take the rest of the store down.
func TestStoreCorruptFileLoadError(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(8))
	st := openTestStore(t, dir, Options{CacheBytes: 0}) // keep nothing decoded
	if err := st.Put("a", mustSnapshot(t, randomDataset(t, rng)), 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("b", mustSnapshot(t, randomDataset(t, rng)), 2); err != nil {
		t.Fatal(err)
	}
	// Wait for the zero-budget evictor to drop the Put-time cache entry so
	// the corruption is actually read back.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n, _ := st.CacheStats(); n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("evictor never drained the cache")
		}
		time.Sleep(time.Millisecond)
	}
	meta := st.Entries()
	var aFile string
	for _, m := range meta {
		if m.Name == "a" {
			aFile = m.File
		}
	}
	path := filepath.Join(dir, snapshotDir, aFile)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0xFF
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Load("a"); !errors.Is(err, ErrFormat) {
		t.Fatalf("Load of corrupted file: %v, want ErrFormat", err)
	}
	if _, _, err := st.Load("b"); err != nil {
		t.Fatalf("healthy sibling failed too: %v", err)
	}
}

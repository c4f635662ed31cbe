package store

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/dataset"
)

// fixCRC recomputes the trailing checksum over a mutated body so the
// fuzzer's structural mutations reach the section parsers instead of
// dying at the checksum gate. Inputs too short to carry a trailer pass
// through unchanged.
func fixCRC(data []byte) []byte {
	if len(data) < headerSize+trailerSize {
		return data
	}
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(out[len(out)-trailerSize:], checksum(out[:len(out)-trailerSize]))
	return out
}

// fuzzSeeds builds the deterministic seed inputs: valid encodings of
// several snapshot shapes plus systematic corruptions of one of them —
// truncations, bit flips (checksum-fixed and not), a wrong version, and
// absurd declared dimensions.
func fuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(20260808))
	var seeds [][]byte

	valid := func(views bool) []byte {
		d := randomDataset(tb, rng)
		var vs []int
		if views {
			for c := 0; c < d.NumClasses(); c++ {
				vs = append(vs, c)
			}
		}
		snap := mustSnapshot(tb, d, vs...)
		buf, err := Encode(snap)
		if err != nil {
			tb.Fatal(err)
		}
		return buf
	}

	base := valid(true)
	seeds = append(seeds,
		base,
		valid(false),
		valid(true),
		valid(false),
		valid(true),
	)

	// Truncations at structurally interesting depths.
	for _, cut := range []int{0, 4, 8, headerSize - 1, headerSize,
		headerSize + trailerSize, len(base) / 4, len(base) / 2, len(base) - trailerSize, len(base) - 1} {
		if cut <= len(base) {
			seeds = append(seeds, base[:cut])
		}
	}

	// Bit flips — raw (checksum catches) and checksum-fixed (parsers catch).
	for _, off := range []int{9, 13, 17, 21, 25, len(base) / 3, 2 * len(base) / 3} {
		mut := append([]byte(nil), base...)
		mut[off%len(mut)] ^= 0x40
		seeds = append(seeds, mut, fixCRC(mut))
	}

	// Wrong version, wrong magic, unknown flags.
	v := append([]byte(nil), base...)
	v[8] = 2
	seeds = append(seeds, fixCRC(v))
	m := append([]byte(nil), base...)
	m[0] = 'X'
	seeds = append(seeds, m)
	fl := append([]byte(nil), base...)
	fl[12] |= 0x80
	seeds = append(seeds, fixCRC(fl))

	// Absurd declared dimensions: a header claiming 2^31 rows/items over a
	// tiny file must be rejected before any allocation matches the claim.
	huge := append([]byte(nil), base[:headerSize]...)
	binary.LittleEndian.PutUint32(huge[16:], 1<<31)
	binary.LittleEndian.PutUint32(huge[20:], 1<<31)
	huge = append(huge, make([]byte, 64)...)
	seeds = append(seeds, fixCRC(huge))
	maxed := append([]byte(nil), base[:headerSize]...)
	for off := 16; off < headerSize; off += 4 {
		binary.LittleEndian.PutUint32(maxed[off:], ^uint32(0))
	}
	maxed = append(maxed, make([]byte, 64)...)
	seeds = append(seeds, fixCRC(maxed))

	seeds = append(seeds, nil, []byte(Magic))
	return seeds
}

// FuzzReadSnapshot drives Decode with arbitrary bytes: it must return a
// snapshot or an error — never panic, and never allocate beyond a small
// multiple of the input (length fields are validated against the file
// size first). Inputs are additionally replayed with a corrected
// checksum so mutations explore the section parsers, and any input that
// decodes must survive an encode/decode round trip.
func FuzzReadSnapshot(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, fixCRC(data)} {
			snap, err := Decode(in)
			if err != nil {
				continue
			}
			// The per-item row words of every decoded transposed table
			// must hold exactly its lists' rows.
			checkWordsMatchLists(t, snap.Transposed())
			for _, v := range snap.MaterializedViews() {
				checkWordsMatchLists(t, v.TT)
			}
			// Whatever Decode accepts must be internally consistent
			// enough to re-encode, and the re-encoding must decode.
			buf, err := Encode(snap)
			if err != nil {
				t.Fatalf("decoded snapshot does not re-encode: %v", err)
			}
			if _, err := Decode(buf); err != nil {
				t.Fatalf("re-encoded snapshot does not decode: %v", err)
			}
		}
	})
}

// checkWordsMatchLists fails t unless tt's per-item row words hold
// exactly the rows of its lists.
func checkWordsMatchLists(t *testing.T, tt *dataset.Transposed) {
	t.Helper()
	if tt.Stride != (tt.NumRows+63)/64 || len(tt.Words) != len(tt.Lists)*tt.Stride {
		t.Fatalf("transposed table: stride %d, %d words for %d rows × %d items", tt.Stride, len(tt.Words), tt.NumRows, len(tt.Lists))
	}
	want := make([]uint64, tt.Stride)
	for it, list := range tt.Lists {
		clear(want)
		for _, r := range list {
			want[r/64] |= 1 << (r % 64)
		}
		if got := tt.ItemWords(dataset.Item(it)); !slices.Equal(got, want) {
			t.Fatalf("item %d row words %x, list %v", it, got, list)
		}
	}
}

// TestWriteFuzzCorpus materializes the seed corpus under
// testdata/fuzz/FuzzReadSnapshot so the seeds are committed, replayed by
// plain `go test`, and shared with CI's -fuzz smoke run. Regenerate with
// `go test ./internal/store -update`.
func TestWriteFuzzCorpus(t *testing.T) {
	if !*update {
		// Assert the committed corpus is at least as large as the
		// generator's output, so seeds cannot silently go missing.
		entries, err := os.ReadDir(filepath.Join("testdata", "fuzz", "FuzzReadSnapshot"))
		if err != nil {
			t.Fatalf("%v — run `go test ./internal/store -update` to generate the fuzz corpus", err)
		}
		if want := len(fuzzSeeds(t)); len(entries) < want {
			t.Fatalf("committed fuzz corpus has %d seeds, generator produces %d — rerun with -update", len(entries), want)
		}
		return
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzReadSnapshot")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range fuzzSeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("wrote %d fuzz seeds to %s", len(fuzzSeeds(t)), dir)
}

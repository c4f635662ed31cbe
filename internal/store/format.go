// Package store gives dataset snapshots a life beyond one process: a
// versioned binary encoding of dataset.Snapshot (the compiled form every
// miner runs from) and a directory-backed store that persists encoded
// snapshots atomically, reloads them lazily, and bounds the decoded
// working set with byte-budgeted LRU eviction.
//
// The format (version 1) is a sequence of flat, length-prefixed sections —
// transposed table, per-item row bitsets, frequency order, materialized
// ORD views — laid out so a decoder can carve each structure out of the
// raw file bytes with a handful of bulk copies instead of recompiling it
// from the rows (see BENCH_core.json: SnapshotLoad vs Prepare). A CRC-32C
// trailer covers the whole file; every length field is checked against the
// remaining input before any allocation, so truncated or corrupted files
// fail with an error rather than a panic or an absurd allocation.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"math"

	"repro/internal/bitset"
	"repro/internal/dataset"
)

// Magic opens every snapshot file, followed by the format version.
const Magic = "FARMSNAP"

// Version is the current format version. Decoders reject other versions:
// the format changes by bumping this number, never silently.
const Version = 1

const (
	flagItemNames = 1 << 0

	headerSize  = 8 + 4 + 4 + 4 + 4 + 4 + 4 // magic, version, flags, rows, items, classes, views
	trailerSize = 8                         // CRC-32C, zero-extended to u64
)

// ErrFormat tags every decode failure: corrupt, truncated, or
// wrong-version input. Use errors.Is to detect it.
var ErrFormat = errors.New("store: invalid snapshot encoding")

// crcTable selects CRC-32C (Castagnoli): hardware-accelerated on amd64 and
// arm64, so the whole-file integrity check costs microseconds even for
// multi-megabyte snapshots.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// checksum is the trailer value: the body's CRC-32C, zero-extended to 64
// bits so the trailer keeps the format's 4-byte field alignment with room
// for a wider checksum in a future version.
func checksum(body []byte) uint64 {
	return uint64(crc32.Checksum(body, crcTable))
}

// Layout of one encoded snapshot (all integers little-endian):
//
//	magic      [8]byte  "FARMSNAP"
//	version    uint32
//	flags      uint32   bit 0: item names present
//	numRows    uint32
//	numItems   uint32
//	numClasses uint32
//	numViews   uint32
//	classNames numClasses × (uint32 len + bytes)
//	itemNames  numItems × (uint32 len + bytes)        [flag bit 0]
//	classes    numRows × uint32                       row class labels
//	rowOffs    (numRows+1) × uint32                   offsets into flatItems
//	flatItems  rowOffs[numRows] × int32               all rows' items, concatenated
//	ttOffs     (numItems+1) × uint32                  offsets into ttRows
//	ttRows     ttOffs[numItems] × int32               transposed table, concatenated
//	itemBits   numItems × W × uint64                  per-item row bitsets, W = ceil(numRows/64)
//	freqLen    uint32
//	freqOrder  freqLen × int32
//	views      numViews × view                        ascending consequent
//	crc        uint64                                 CRC-32C of everything above, zero-extended
//
// view:
//
//	consequent  uint32
//	numPositive uint32
//	toOriginal  numRows × uint32                      ORD permutation (new → original id)
//	ordTTOffs   (numItems+1) × uint32
//	ordTTRows   ordTTOffs[numItems] × int32           transposed table of the ordered rows
//	posMask     W × uint64                            consequent-class mask, original row ids

// appender accumulates the encoding. Methods append little-endian.
type appender struct{ b []byte }

func (a *appender) u32(v uint32)  { a.b = binary.LittleEndian.AppendUint32(a.b, v) }
func (a *appender) u64(v uint64)  { a.b = binary.LittleEndian.AppendUint64(a.b, v) }
func (a *appender) raw(p []byte)  { a.b = append(a.b, p...) }
func (a *appender) str(s string)  { a.u32(uint32(len(s))); a.b = append(a.b, s...) }
func (a *appender) i32s(v []int32) {
	for _, x := range v {
		a.u32(uint32(x))
	}
}
func (a *appender) u64s(v []uint64) {
	for _, x := range v {
		a.u64(x)
	}
}

// Encode renders s in the durable format, trailing checksum included. The
// encoding is deterministic: the same snapshot (same materialized views)
// always yields the same bytes.
func Encode(s *dataset.Snapshot) ([]byte, error) {
	d := s.Dataset()
	tt := s.Transposed()
	views := s.MaterializedViews()
	if len(d.Rows) > math.MaxUint32-1 || d.NumItems > math.MaxUint32-1 {
		return nil, fmt.Errorf("store: dataset too large to encode (%d rows, %d items)", len(d.Rows), d.NumItems)
	}

	a := &appender{b: make([]byte, 0, encodedSizeHint(d, tt, len(views)))}
	a.raw([]byte(Magic))
	a.u32(Version)
	var flags uint32
	if len(d.ItemNames) != 0 {
		flags |= flagItemNames
	}
	a.u32(flags)
	a.u32(uint32(len(d.Rows)))
	a.u32(uint32(d.NumItems))
	a.u32(uint32(len(d.ClassNames)))
	a.u32(uint32(len(views)))

	for _, name := range d.ClassNames {
		a.str(name)
	}
	if flags&flagItemNames != 0 {
		for _, name := range d.ItemNames {
			a.str(name)
		}
	}

	// Rows: classes, then items flattened behind an offset table.
	for i := range d.Rows {
		a.u32(uint32(d.Rows[i].Class))
	}
	off := uint32(0)
	a.u32(off)
	for i := range d.Rows {
		off += uint32(len(d.Rows[i].Items))
		a.u32(off)
	}
	for i := range d.Rows {
		a.i32s(d.Rows[i].Items)
	}

	encodeTT(a, tt)

	for _, set := range s.ItemRows() {
		a.u64s(set.Words())
	}

	a.u32(uint32(len(s.FreqOrder())))
	a.i32s(s.FreqOrder())

	for _, consequent := range sortedKeys(views) {
		v := views[consequent]
		a.u32(uint32(consequent))
		a.u32(uint32(v.Ord.NumPositive))
		for _, orig := range v.Ord.ToOriginal {
			a.u32(uint32(orig))
		}
		encodeTT(a, v.TT)
		a.u64s(v.PosMask.Words())
	}

	a.u64(checksum(a.b))
	return a.b, nil
}

func encodeTT(a *appender, tt *dataset.Transposed) {
	off := uint32(0)
	a.u32(off)
	for _, list := range tt.Lists {
		off += uint32(len(list))
		a.u32(off)
	}
	for _, list := range tt.Lists {
		a.i32s(list)
	}
}

func sortedKeys(m map[int]*dataset.ConsequentView) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ { // tiny n: insertion sort
		for j := i; j > 0 && keys[j-1] > keys[j]; j-- {
			keys[j-1], keys[j] = keys[j], keys[j-1]
		}
	}
	return keys
}

// encodedSizeHint estimates the final encoding size so Encode allocates
// once. Views dominate through their TT + permutation + mask.
func encodedSizeHint(d *dataset.Dataset, tt *dataset.Transposed, views int) int {
	items := 0
	for i := range d.Rows {
		items += len(d.Rows[i].Items)
	}
	words := (len(d.Rows) + 63) / 64
	base := headerSize + trailerSize +
		16*len(d.ClassNames) + 16*len(d.ItemNames) +
		8*len(d.Rows) + 8*items + 8 + 4*d.NumItems +
		8*words*d.NumItems + 4 + 4*d.NumItems
	return base + views*(8+4*len(d.Rows)+4*items+4*d.NumItems+8*words)
}

// cursor walks the encoded bytes, bounds-checking every read so no length
// field can trigger an out-of-range slice or an allocation larger than the
// input itself.
type cursor struct {
	b   []byte
	off int
}

func (c *cursor) fail(what string) error {
	return fmt.Errorf("%w: %s at offset %d", ErrFormat, what, c.off)
}

func (c *cursor) need(n uint64) error {
	if n > uint64(len(c.b)-c.off) {
		return c.fail(fmt.Sprintf("need %d bytes, %d left", n, len(c.b)-c.off))
	}
	return nil
}

func (c *cursor) u32() (uint32, error) {
	if err := c.need(4); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v, nil
}

// u32s decodes count uint32s into a fresh slice. The conversion loops here
// and below run over an exact-length sub-slice so the compiler hoists the
// bounds checks — these three calls move most of the file's bytes.
func (c *cursor) u32s(count uint32) ([]uint32, error) {
	if err := c.need(4 * uint64(count)); err != nil {
		return nil, err
	}
	src := c.b[c.off : c.off+4*int(count)]
	out := make([]uint32, count)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(src[4*i:])
	}
	c.off += 4 * int(count)
	return out, nil
}

// i32s decodes count int32s into a fresh slice.
func (c *cursor) i32s(count uint32) ([]int32, error) {
	if err := c.need(4 * uint64(count)); err != nil {
		return nil, err
	}
	src := c.b[c.off : c.off+4*int(count)]
	out := make([]int32, count)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(src[4*i:]))
	}
	c.off += 4 * int(count)
	return out, nil
}

// u64s decodes count uint64s into a fresh slice.
func (c *cursor) u64s(count uint64) ([]uint64, error) {
	if err := c.need(8 * count); err != nil {
		return nil, err
	}
	src := c.b[c.off : c.off+8*int(count)]
	out := make([]uint64, count)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(src[8*i:])
	}
	c.off += 8 * int(count)
	return out, nil
}

// strs decodes count length-prefixed strings. All of them sub-slice one
// string conversion of the spanned bytes (a single copy of the input, so
// the decoded strings never pin the caller's buffer): decoding thousands
// of item names costs three allocations, not thousands.
func (c *cursor) strs(count uint32) ([]string, error) {
	start := c.off
	// Every string costs ≥4 bytes (its length prefix), so count is bounded
	// by the remaining input before the output slice is sized.
	if err := c.need(4 * uint64(count)); err != nil {
		return nil, err
	}
	type span struct{ off, n int }
	spans := make([]span, count)
	b, off := c.b, c.off
	for i := range spans {
		if len(b)-off < 4 {
			c.off = off
			return nil, c.fail("truncated string length")
		}
		n := int(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		if len(b)-off < n {
			c.off = off
			return nil, c.fail(fmt.Sprintf("need %d bytes, %d left", n, len(b)-off))
		}
		spans[i] = span{off, n}
		off += n
	}
	c.off = off
	blob := string(c.b[start:c.off])
	out := make([]string, count)
	for i, sp := range spans {
		out[i] = blob[sp.off-start : sp.off-start+sp.n]
	}
	return out, nil
}

// offsets decodes an (n+1)-entry offset table and validates it: starts at
// zero, never decreases, and its final value (the flat element count) has
// its data present in the input.
func (c *cursor) offsets(n uint32, elemSize uint64) ([]uint32, error) {
	offs, err := c.u32s(n + 1)
	if err != nil {
		return nil, err
	}
	if offs[0] != 0 {
		return nil, c.fail("offset table does not start at 0")
	}
	for i := 1; i < len(offs); i++ {
		if offs[i] < offs[i-1] {
			return nil, c.fail("offset table decreases")
		}
	}
	if err := c.need(elemSize * uint64(offs[n])); err != nil {
		return nil, err
	}
	return offs, nil
}

// Decode parses one encoded snapshot. It verifies the magic, version and
// whole-file checksum, then rebuilds the snapshot with structural
// validation (dataset invariants, in-range ids, permutation views) so a
// decoded snapshot is as safe to mine from as a freshly compiled one.
// Decode never panics on hostile input and never allocates more than a
// small multiple of len(data).
func Decode(data []byte) (*dataset.Snapshot, error) {
	c := &cursor{b: data}
	if len(data) < headerSize+trailerSize {
		return nil, c.fail("file shorter than header")
	}
	if string(data[:8]) != Magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrFormat, data[:8])
	}
	c.off = 8
	version, _ := c.u32()
	if version != Version {
		return nil, fmt.Errorf("%w: unsupported version %d (this build reads %d)", ErrFormat, version, Version)
	}
	body, tail := data[:len(data)-trailerSize], data[len(data)-trailerSize:]
	if got, want := checksum(body), binary.LittleEndian.Uint64(tail); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (file %016x, computed %016x)", ErrFormat, want, got)
	}
	c.b = body // every later read stays inside the checksummed region

	flags, _ := c.u32()
	numRows, _ := c.u32()
	numItems, _ := c.u32()
	numClasses, _ := c.u32()
	numViews, err := c.u32()
	if err != nil {
		return nil, err
	}
	if flags&^uint32(flagItemNames) != 0 {
		return nil, fmt.Errorf("%w: unknown flags %#x", ErrFormat, flags)
	}
	// Every row costs ≥4 bytes (its class) and every item ≥4 bytes (its
	// offset-table slot), so bound both against the input up front — this
	// also keeps the (n+1)-sized offset tables from overflowing uint32.
	if uint64(numRows)*4 > uint64(len(c.b)) || uint64(numItems)*4 > uint64(len(c.b)) {
		return nil, fmt.Errorf("%w: declared shape %d×%d impossible in %d bytes", ErrFormat, numRows, numItems, len(c.b))
	}

	d := &dataset.Dataset{NumItems: int(numItems)}
	if numClasses > 0 {
		if d.ClassNames, err = c.strs(numClasses); err != nil {
			return nil, err
		}
	}
	if flags&flagItemNames != 0 {
		if d.ItemNames, err = c.strs(numItems); err != nil {
			return nil, err
		}
	}

	classes, err := c.u32s(numRows)
	if err != nil {
		return nil, err
	}
	rowOffs, err := c.offsets(numRows, 4)
	if err != nil {
		return nil, err
	}
	flatItems, err := c.i32s(rowOffs[numRows])
	if err != nil {
		return nil, err
	}
	if numRows > 0 {
		d.Rows = make([]dataset.Row, numRows)
		for i := range d.Rows {
			lo, hi := rowOffs[i], rowOffs[i+1]
			if lo < hi { // empty rows keep nil Items, as the text readers produce
				d.Rows[i].Items = flatItems[lo:hi:hi]
			}
			d.Rows[i].Class = int(classes[i])
		}
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}

	lists, err := decodeLists(c, numItems, numRows)
	if err != nil {
		return nil, err
	}
	// The stored item row sets become the transposed table's row words,
	// checked against its lists: the one copy, backed by the input.
	words := (uint64(numRows) + 63) / 64
	flatWords, err := c.u64s(words * uint64(numItems))
	if err != nil {
		return nil, err
	}
	tt, err := dataset.TransposedFromWords(int(numRows), lists, flatWords)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}

	freqLen, err := c.u32()
	if err != nil {
		return nil, err
	}
	freqOrder, err := c.i32s(freqLen)
	if err != nil {
		return nil, err
	}
	if len(freqOrder) == 0 {
		freqOrder = nil
	}
	seen := bitset.New(int(numItems))
	for _, it := range freqOrder {
		if it < 0 || it >= int32(numItems) {
			return nil, fmt.Errorf("%w: frequency-order item %d outside [0,%d)", ErrFormat, it, numItems)
		}
		if seen.Test(int(it)) {
			return nil, fmt.Errorf("%w: duplicate frequency-order item %d", ErrFormat, it)
		}
		seen.Set(int(it))
	}

	// A view's row words are rebuilt, not stored, so they are the one
	// structure that could outgrow its bytes in the file. Views are a
	// cache (ForConsequent compiles a missing one on first use): a view
	// whose words would take the total past len(data) is validated but
	// not restored.
	wordBudget := uint64(len(data))
	views := make(map[int]*dataset.ConsequentView, min(int(numViews), int(numClasses)))
	for i := uint32(0); i < numViews; i++ {
		consequent, v, err := decodeView(c, d, numRows, numItems, words, &wordBudget)
		if err != nil {
			return nil, err
		}
		if _, dup := views[consequent]; dup {
			return nil, fmt.Errorf("%w: duplicate view for consequent %d", ErrFormat, consequent)
		}
		views[consequent] = v // nil when over the budget
	}
	maps.DeleteFunc(views, func(_ int, v *dataset.ConsequentView) bool { return v == nil })

	if c.off != len(c.b) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrFormat, len(c.b)-c.off)
	}
	return dataset.RestoreSnapshot(d, tt, freqOrder, views), nil
}

// decodeLists reads a transposed table's row lists, checking every row id
// is in range and each item's list is strictly ascending.
func decodeLists(c *cursor, numItems, numRows uint32) ([][]int32, error) {
	offs, err := c.offsets(numItems, 4)
	if err != nil {
		return nil, err
	}
	flat, err := c.i32s(offs[numItems])
	if err != nil {
		return nil, err
	}
	lists := make([][]int32, numItems)
	for it := range lists {
		lo, hi := offs[it], offs[it+1]
		if lo == hi {
			continue // empty lists stay nil, as Transpose leaves them
		}
		list := flat[lo:hi:hi]
		for k, r := range list {
			if r < 0 || r >= int32(numRows) {
				return nil, fmt.Errorf("%w: transposed row id %d outside [0,%d)", ErrFormat, r, numRows)
			}
			if k > 0 && list[k-1] >= r {
				return nil, fmt.Errorf("%w: transposed list for item %d not ascending", ErrFormat, it)
			}
		}
		lists[it] = list
	}
	return lists, nil
}

// decodeView rebuilds one ORD view. The ordered dataset is reconstructed
// by permuting d's rows through the stored permutation (sharing the item
// slices, exactly as OrderForConsequent does), after verifying the
// permutation is a bijection that puts the consequent class first. The
// view's row words come out of *wordBudget; when they do not fit, the view
// is validated all the same and returned nil.
func decodeView(c *cursor, d *dataset.Dataset, numRows, numItems uint32, words uint64, wordBudget *uint64) (int, *dataset.ConsequentView, error) {
	consequent, err := c.u32()
	if err != nil {
		return 0, nil, err
	}
	if consequent >= uint32(len(d.ClassNames)) {
		return 0, nil, fmt.Errorf("%w: view consequent %d outside [0,%d)", ErrFormat, consequent, len(d.ClassNames))
	}
	numPositive, err := c.u32()
	if err != nil {
		return 0, nil, err
	}
	toOrig, err := c.u32s(numRows)
	if err != nil {
		return 0, nil, err
	}
	if numPositive > numRows {
		return 0, nil, fmt.Errorf("%w: view positives %d > rows %d", ErrFormat, numPositive, numRows)
	}
	hit := bitset.New(int(numRows))
	ordered := &dataset.Dataset{
		NumItems:   d.NumItems,
		ItemNames:  d.ItemNames,
		ClassNames: d.ClassNames,
		Rows:       make([]dataset.Row, 0, numRows),
	}
	ord := &dataset.Ordering{ToOriginal: make([]int, 0, numRows), NumPositive: int(numPositive)}
	for i, orig := range toOrig {
		if orig >= numRows {
			return 0, nil, fmt.Errorf("%w: view permutation id %d outside [0,%d)", ErrFormat, orig, numRows)
		}
		if hit.Test(int(orig)) {
			return 0, nil, fmt.Errorf("%w: view permutation repeats row %d", ErrFormat, orig)
		}
		hit.Set(int(orig))
		row := d.Rows[orig]
		if positive := uint32(i) < numPositive; positive != (row.Class == int(consequent)) {
			return 0, nil, fmt.Errorf("%w: view row order violates ORD (row %d)", ErrFormat, i)
		}
		ordered.Rows = append(ordered.Rows, row)
		ord.ToOriginal = append(ord.ToOriginal, int(orig))
	}
	lists, err := decodeLists(c, numItems, numRows)
	if err != nil {
		return 0, nil, err
	}
	maskWords, err := c.u64s(words)
	if err != nil {
		return 0, nil, err
	}
	if err := checkTailBits(maskWords, int(numRows)); err != nil {
		return 0, nil, fmt.Errorf("%w: view %d class mask: %v", ErrFormat, consequent, err)
	}
	// numItems·words·8 cannot overflow: both factors are bounded by the input.
	need := uint64(numItems) * words * 8
	if need > *wordBudget {
		return int(consequent), nil, nil
	}
	*wordBudget -= need
	return int(consequent), &dataset.ConsequentView{
		Ordered: ordered,
		Ord:     ord,
		TT:      dataset.NewTransposed(int(numRows), lists),
		PosMask: bitset.FromWords(int(numRows), maskWords),
	}, nil
}

// checkTailBits rejects set bits beyond capacity n — they would corrupt
// popcounts in every miner touching the set.
func checkTailBits(words []uint64, n int) error {
	if n%64 == 0 || len(words) == 0 {
		return nil
	}
	if words[len(words)-1]&^(uint64(1)<<uint(n%64)-1) != 0 {
		return errors.New("bits set beyond capacity")
	}
	return nil
}

// Write encodes s and writes the full encoding to w.
func Write(w io.Writer, s *dataset.Snapshot) error {
	buf, err := Encode(s)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// Read consumes r to EOF and decodes one snapshot.
func Read(r io.Reader) (*dataset.Snapshot, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return Decode(buf)
}

package dataset

import (
	"fmt"
	"math/bits"

	"repro/internal/bitset"
)

// Transposed is the transposed table TT of Figure 1(b): for each item, the
// ascending list of row ids that contain it. Row-enumeration miners treat
// each item's row list as one "tuple" of TT.
//
// Each item's rows are also kept as a bitset, in one flat word array with
// Stride = ⌈NumRows/64⌉ words per item: Words[it*Stride : (it+1)*Stride]
// holds bit r exactly when r is in Lists[it]. Row-set tests over a node's
// tuples (FARMER's back scan, child membership) run on these words, a
// handful of ANDs per item at microarray row counts.
type Transposed struct {
	NumRows int
	Lists   [][]int32 // Lists[item] = sorted row ids containing item
	Stride  int       // words per item row set
	Words   []uint64  // per-item row sets, Stride words each
}

// NewTransposed wraps per-item row lists of a numRows-row dataset as a
// transposed table, building the per-item row words from them. The lists
// must be ascending row ids in [0, numRows); the table takes ownership.
func NewTransposed(numRows int, lists [][]int32) *Transposed {
	stride := (numRows + 63) / 64
	words := make([]uint64, len(lists)*stride)
	for it, list := range lists {
		w := words[it*stride:]
		for _, r := range list {
			w[r>>6] |= 1 << (uint(r) & 63)
		}
	}
	return &Transposed{NumRows: numRows, Lists: lists, Stride: stride, Words: words}
}

// TransposedFromWords is NewTransposed for row words stored earlier (the
// decode half of internal/store): instead of building the words it checks,
// without allocating, that words holds exactly the rows of lists — every
// listed bit set and no other — and adopts it as the table's words. The
// lists must be ascending row ids in [0, numRows).
func TransposedFromWords(numRows int, lists [][]int32, words []uint64) (*Transposed, error) {
	stride := (numRows + 63) / 64
	if len(words) != len(lists)*stride {
		return nil, fmt.Errorf("dataset: %d row words for %d items of %d rows", len(words), len(lists), numRows)
	}
	for it, list := range lists {
		w := words[it*stride : (it+1)*stride]
		count := 0
		for _, x := range w {
			count += bits.OnesCount64(x)
		}
		if count != len(list) {
			return nil, fmt.Errorf("dataset: item %d row words hold %d rows, its list %d", it, count, len(list))
		}
		// The lists are duplicate-free, so equal counts plus every listed
		// bit set leave no room for a stray bit, tail bits included.
		for _, r := range list {
			if w[r>>6]&(1<<(uint(r)&63)) == 0 {
				return nil, fmt.Errorf("dataset: item %d row words miss row %d", it, r)
			}
		}
	}
	return &Transposed{NumRows: numRows, Lists: lists, Stride: stride, Words: words}, nil
}

// Transpose builds the transposed table of d.
func Transpose(d *Dataset) *Transposed {
	lists := make([][]int32, d.NumItems)
	counts := make([]int, d.NumItems)
	for _, r := range d.Rows {
		for _, it := range r.Items {
			counts[it]++
		}
	}
	for it, c := range counts {
		if c > 0 {
			lists[it] = make([]int32, 0, c)
		}
	}
	for ri, r := range d.Rows {
		for _, it := range r.Items {
			lists[it] = append(lists[it], int32(ri))
		}
	}
	return NewTransposed(len(d.Rows), lists)
}

// ItemWords returns item it's row set as Stride words (read-only).
func (t *Transposed) ItemWords(it Item) []uint64 {
	return t.Words[int(it)*t.Stride : (int(it)+1)*t.Stride]
}

// RowSets returns every item's row set as a bitset over the table's own
// words: no copy, so the sets are read-only and live as long as t.
func (t *Transposed) RowSets() []*bitset.Set {
	return bitset.Carve(t.NumRows, len(t.Lists), t.Words)
}

// ItemsOfRow returns the items whose lists contain row ri. It is the inverse
// view used by tests; miners index Lists directly.
func (t *Transposed) ItemsOfRow(ri int) []Item {
	var out []Item
	for it, list := range t.Lists {
		for _, r := range list {
			if int(r) == ri {
				out = append(out, Item(it))
				break
			}
			if int(r) > ri {
				break
			}
		}
	}
	return out
}

package dataset

import (
	"reflect"
	"testing"
)

func TestPaperExampleShape(t *testing.T) {
	d := PaperExample()
	if d.NumRows() != 5 {
		t.Fatalf("NumRows = %d, want 5", d.NumRows())
	}
	if d.NumClasses() != 2 {
		t.Fatalf("NumClasses = %d, want 2", d.NumClasses())
	}
	if d.ClassCount(0) != 3 || d.ClassCount(1) != 2 {
		t.Fatalf("class counts = %d,%d want 3,2", d.ClassCount(0), d.ClassCount(1))
	}
	if got := StringFromItems(d.Rows[1].Items); got != "adehlpr" {
		t.Fatalf("row 2 items = %q, want adehlpr", got)
	}
}

func TestClassIndex(t *testing.T) {
	d := PaperExample()
	if d.ClassIndex("C") != 0 || d.ClassIndex("notC") != 1 {
		t.Fatal("ClassIndex wrong for known classes")
	}
	if d.ClassIndex("missing") != -1 {
		t.Fatal("ClassIndex should be -1 for unknown class")
	}
}

func TestItemNameFallback(t *testing.T) {
	d := &Dataset{NumItems: 3, ClassNames: []string{"x"}}
	if got := d.ItemName(2); got != "i2" {
		t.Fatalf("ItemName fallback = %q, want i2", got)
	}
}

func TestValidateRejectsBadRows(t *testing.T) {
	cases := []struct {
		name string
		d    *Dataset
	}{
		{"class out of range", &Dataset{NumItems: 2, ClassNames: []string{"a"},
			Rows: []Row{{Items: []Item{0}, Class: 1}}}},
		{"item out of range", &Dataset{NumItems: 2, ClassNames: []string{"a"},
			Rows: []Row{{Items: []Item{5}, Class: 0}}}},
		{"unsorted items", &Dataset{NumItems: 3, ClassNames: []string{"a"},
			Rows: []Row{{Items: []Item{2, 1}, Class: 0}}}},
		{"duplicate items", &Dataset{NumItems: 3, ClassNames: []string{"a"},
			Rows: []Row{{Items: []Item{1, 1}, Class: 0}}}},
		{"item name count mismatch", &Dataset{NumItems: 3, ItemNames: []string{"x"},
			ClassNames: []string{"a"}}},
	}
	for _, c := range cases {
		if err := c.d.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid dataset", c.name)
		}
	}
}

func TestFromItemListsSortsAndDedups(t *testing.T) {
	d, err := FromItemLists([][]Item{{3, 1, 3, 0}}, []int{0}, 4, []string{"c"})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Rows[0].Items; !reflect.DeepEqual(got, []Item{0, 1, 3}) {
		t.Fatalf("items = %v", got)
	}
}

func TestFromItemListsLengthMismatch(t *testing.T) {
	if _, err := FromItemLists([][]Item{{0}}, []int{0, 1}, 1, []string{"c"}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestHasItem(t *testing.T) {
	r := Row{Items: []Item{1, 4, 9}}
	for _, it := range []Item{1, 4, 9} {
		if !r.HasItem(it) {
			t.Errorf("HasItem(%d) = false", it)
		}
	}
	for _, it := range []Item{0, 2, 10} {
		if r.HasItem(it) {
			t.Errorf("HasItem(%d) = true", it)
		}
	}
}

func TestClone(t *testing.T) {
	d := PaperExample()
	c := d.Clone()
	c.Rows[0].Items[0] = 19
	c.Rows[0].Class = 1
	if d.Rows[0].Items[0] == 19 || d.Rows[0].Class == 1 {
		t.Fatal("Clone shares storage with original")
	}
}

// Example 1 of the paper: R({a,e,h}) = {r2,r3,r4}, I({r2,r3}) = {a,e,h}.
func TestSupportOperatorsPaperExample1(t *testing.T) {
	d := PaperExample()
	rs := SupportSet(d, ItemsFromString("aeh"))
	if got := rs.Ints(); !reflect.DeepEqual(got, []int{1, 2, 3}) { // 0-based r2,r3,r4
		t.Fatalf("R(aeh) = %v, want [1 2 3]", got)
	}
	ci := CommonItems(d, []int{1, 2}) // r2, r3
	if got := StringFromItems(ci); got != "aeh" {
		t.Fatalf("I({r2,r3}) = %q, want aeh", got)
	}
}

// Example 2: R(e)=R(h)=R(ae)=...=R(aeh)={r2,r3,r4}; closure of {e} is aeh.
func TestClosurePaperExample2(t *testing.T) {
	d := PaperExample()
	for _, s := range []string{"e", "h", "ae", "ah", "eh", "aeh"} {
		rs := SupportSet(d, ItemsFromString(s))
		if got := rs.Ints(); !reflect.DeepEqual(got, []int{1, 2, 3}) {
			t.Fatalf("R(%s) = %v, want [1 2 3]", s, got)
		}
		if got := StringFromItems(Closure(d, ItemsFromString(s))); got != "aeh" {
			t.Fatalf("closure(%s) = %q, want aeh", s, got)
		}
	}
}

func TestCommonItemsEmptyRowSet(t *testing.T) {
	d := PaperExample()
	if got := len(CommonItems(d, nil)); got != d.NumItems {
		t.Fatalf("I(∅) has %d items, want all %d", got, d.NumItems)
	}
}

// Node "134" of Figure 3 is labeled {a}; node "135" is labeled {}.
func TestCommonItemsFigure3Nodes(t *testing.T) {
	d := PaperExample()
	if got := StringFromItems(CommonItems(d, []int{0, 2, 3})); got != "a" {
		t.Fatalf("I({1,3,4}) = %q, want a", got)
	}
	if got := CommonItems(d, []int{0, 2, 4}); len(got) != 0 {
		t.Fatalf("I({1,3,5}) = %v, want empty", got)
	}
}

func TestSupportCounts(t *testing.T) {
	d := PaperExample()
	pos, neg := SupportCounts(d, ItemsFromString("aeh"), 0)
	if pos != 2 || neg != 1 {
		t.Fatalf("SupportCounts(aeh,C) = %d,%d want 2,1", pos, neg)
	}
	pos, neg = SupportCounts(d, ItemsFromString("a"), 0)
	if pos != 3 || neg != 1 {
		t.Fatalf("SupportCounts(a,C) = %d,%d want 3,1", pos, neg)
	}
}

func TestTransposePaperExample(t *testing.T) {
	d := PaperExample()
	tt := Transpose(d)
	// Figure 1(b): item a in rows 1,2,3,4; item d in rows 2,5; item t in 3,5.
	check := func(item string, want []int32) {
		got := tt.Lists[ItemsFromString(item)[0]]
		if !reflect.DeepEqual(got, want) {
			t.Errorf("tuple %s = %v, want %v", item, got, want)
		}
	}
	check("a", []int32{0, 1, 2, 3})
	check("d", []int32{1, 4})
	check("t", []int32{2, 4})
	check("g", []int32{4})
	if tt.NumRows != 5 {
		t.Fatalf("NumRows = %d", tt.NumRows)
	}
}

// TransposedFromWords adopts stored row words only when they hold exactly
// the lists' rows: a missing row, a stray row, a stray bit past the last
// row and a wrong length are each rejected.
func TestTransposedFromWordsChecksWords(t *testing.T) {
	tt := Transpose(PaperExample()) // 5 rows: one word per item
	clone := func() []uint64 { return append([]uint64(nil), tt.Words...) }
	got, err := TransposedFromWords(tt.NumRows, tt.Lists, clone())
	if err != nil {
		t.Fatalf("matching words rejected: %v", err)
	}
	if !reflect.DeepEqual(got, tt) {
		t.Fatalf("adopted table differs from Transpose's")
	}
	a := int(ItemsFromString("a")[0]) // rows 0-3
	for name, mutate := range map[string]func(w []uint64) []uint64{
		"missing row": func(w []uint64) []uint64 { w[a] &^= 1 << 2; return w },
		"stray row":   func(w []uint64) []uint64 { w[a] |= 1 << 4; return w },
		"tail bit":    func(w []uint64) []uint64 { w[a] |= 1 << 63; return w },
		"swapped row": func(w []uint64) []uint64 { w[a] = w[a]&^(1<<2) | 1<<4; return w },
		"short":       func(w []uint64) []uint64 { return w[:len(w)-1] },
	} {
		if _, err := TransposedFromWords(tt.NumRows, tt.Lists, mutate(clone())); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestTransposeItemsOfRowInverse(t *testing.T) {
	d := PaperExample()
	tt := Transpose(d)
	for ri, r := range d.Rows {
		if got := tt.ItemsOfRow(ri); !reflect.DeepEqual(got, r.Items) {
			t.Fatalf("ItemsOfRow(%d) = %v, want %v", ri, got, r.Items)
		}
	}
}

func TestOrderForConsequent(t *testing.T) {
	d := PaperExample()
	// Reorder with consequent notC: rows 4,5 first.
	od, ord := OrderForConsequent(d, 1)
	if ord.NumPositive != 2 {
		t.Fatalf("NumPositive = %d, want 2", ord.NumPositive)
	}
	if !reflect.DeepEqual(ord.ToOriginal, []int{3, 4, 0, 1, 2}) {
		t.Fatalf("ToOriginal = %v", ord.ToOriginal)
	}
	if od.Rows[0].Class != 1 || od.Rows[1].Class != 1 || od.Rows[2].Class != 0 {
		t.Fatal("rows not ordered positives-first")
	}
	if got := ord.MapRowsToOriginal([]int{0, 2}); !reflect.DeepEqual(got, []int{3, 0}) {
		t.Fatalf("MapRowsToOriginal = %v", got)
	}
}

func TestOrderForConsequentAlreadyOrdered(t *testing.T) {
	d := PaperExample()
	od, ord := OrderForConsequent(d, 0)
	if !reflect.DeepEqual(ord.ToOriginal, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("ToOriginal = %v", ord.ToOriginal)
	}
	if ord.NumPositive != 3 {
		t.Fatalf("NumPositive = %d", ord.NumPositive)
	}
	for i := range d.Rows {
		if !reflect.DeepEqual(od.Rows[i].Items, d.Rows[i].Items) {
			t.Fatal("rows changed despite identity order")
		}
	}
}

func TestReplicate(t *testing.T) {
	d := PaperExample()
	r := Replicate(d, 3)
	if r.NumRows() != 15 {
		t.Fatalf("NumRows = %d, want 15", r.NumRows())
	}
	if !reflect.DeepEqual(r.Rows[5].Items, d.Rows[0].Items) {
		t.Fatal("second block does not repeat first row")
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	// Support scales linearly.
	if got := SupportSet(r, ItemsFromString("aeh")).Count(); got != 9 {
		t.Fatalf("support in replicated = %d, want 9", got)
	}
}

func TestReplicatePanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Replicate(0) did not panic")
		}
	}()
	Replicate(PaperExample(), 0)
}

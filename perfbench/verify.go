package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	farmer "repro"
	"repro/internal/serve"
	"repro/internal/stats"
)

// digest is an order-insensitive fingerprint of a record set: the lane-wise
// sum of each record's SHA-256.
type digest [4]uint64

func (d *digest) add(rec []byte) {
	h := sha256.Sum256(rec)
	for i := range d {
		d[i] += binary.LittleEndian.Uint64(h[8*i:])
	}
}

// answer is the reference a served response is checked against.
type answer struct {
	count  int
	digest digest
	bytes  int // size of the NDJSON body the reference encodes to
}

// budgetCheck carries what a budgeted top-k answer is checked with: it has
// no fixed reference, so its records are recomputed from the dataset.
type budgetCheck struct {
	d          *farmer.Dataset
	consequent int
	k          int
	itemID     map[string]farmer.Item
	// complete is the exact top-k group count, or -1 when the exact
	// search is too slow to run as a reference.
	complete int
}

// splitBody splits an NDJSON response into its records and end frame.
func splitBody(body []byte) ([][]byte, serve.EndFrame, error) {
	var end serve.EndFrame
	lines := bytes.Split(bytes.TrimRight(body, "\n"), []byte{'\n'})
	if len(lines) == 0 || len(lines[len(lines)-1]) == 0 {
		return nil, end, fmt.Errorf("empty response body")
	}
	if err := json.Unmarshal(lines[len(lines)-1], &end); err != nil || !end.End {
		return nil, end, fmt.Errorf("response has no end frame")
	}
	return lines[:len(lines)-1], end, nil
}

// checkExact compares a served NDJSON body with its reference: record
// count, order-insensitive record digest, and a clean end frame.
func checkExact(body []byte, ref answer) error {
	recs, end, err := splitBody(body)
	if err != nil {
		return err
	}
	if end.State != serve.StateDone || end.Partial || end.Emitted != len(recs) {
		return fmt.Errorf("end frame state=%s partial=%v emitted=%d for %d records", end.State, end.Partial, end.Emitted, len(recs))
	}
	if len(recs) != ref.count {
		return fmt.Errorf("%d records, reference has %d", len(recs), ref.count)
	}
	var d digest
	for _, r := range recs {
		d.add(r)
	}
	if d != ref.digest {
		return fmt.Errorf("record digest differs from the reference")
	}
	return nil
}

func newBudgetCheck(d *farmer.Dataset, spec serve.QuerySpec) (budgetCheck, error) {
	cons, err := consequentOf(d, spec)
	if err != nil {
		return budgetCheck{}, err
	}
	ids := make(map[string]farmer.Item, d.NumItems)
	for i := 0; i < d.NumItems; i++ {
		ids[d.ItemName(farmer.Item(i))] = farmer.Item(i)
	}
	return budgetCheck{d: d, consequent: cons, k: max(spec.K, 1), itemID: ids, complete: -1}, nil
}

// checkBudgeted checks a budgeted chi-square top-k answer: k groups (or,
// for an answer the search completed, the exact top-k's count), a
// non-negative certified gap, and every group's supports and score equal
// to a recomputation from the dataset. It returns the gap relative to the
// k-th score.
func checkBudgeted(body []byte, bc budgetCheck) (float64, error) {
	recs, end, err := splitBody(body)
	if err != nil {
		return 0, err
	}
	if end.State != serve.StateDone || end.Emitted != len(recs) {
		return 0, fmt.Errorf("end frame state=%s emitted=%d for %d records", end.State, end.Emitted, len(recs))
	}
	want := bc.k
	if !end.Partial && bc.complete >= 0 {
		want = bc.complete
	}
	if len(recs) != want {
		return 0, fmt.Errorf("%d groups, want %d (k=%d, partial=%v)", len(recs), want, bc.k, end.Partial)
	}
	gap := 0.0
	if end.Partial {
		if end.Gap == nil {
			return 0, fmt.Errorf("partial answer without a certified gap")
		}
		gap = *end.Gap
	}
	if gap < 0 || math.IsNaN(gap) {
		return 0, fmt.Errorf("negative gap %v", gap)
	}
	d := bc.d
	n, m := d.NumRows(), d.ClassCount(bc.consequent)
	kth := math.Inf(1)
	for _, raw := range recs {
		var rec serve.GroupRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return 0, err
		}
		if rec.Score == nil {
			return 0, fmt.Errorf("group without a score")
		}
		items := make([]farmer.Item, len(rec.Antecedent))
		for i, name := range rec.Antecedent {
			it, ok := bc.itemID[name]
			if !ok {
				return 0, fmt.Errorf("unknown item %q", name)
			}
			items[i] = it
		}
		x, y := 0, 0
		for _, r := range farmer.SupportSet(d, items) {
			x++
			if d.Rows[r].Class == bc.consequent {
				y++
			}
		}
		if rec.SupPos != y || rec.SupNeg != x-y {
			return 0, fmt.Errorf("group supports %d/%d, recomputed %d/%d", rec.SupPos, rec.SupNeg, y, x-y)
		}
		if want := stats.Chi2(x, y, n, m); math.Abs(*rec.Score-want) > 1e-9*math.Max(1, want) {
			return 0, fmt.Errorf("score %v, recomputed %v", *rec.Score, want)
		}
		kth = math.Min(kth, *rec.Score)
	}
	return ratio(gap, kth), nil
}

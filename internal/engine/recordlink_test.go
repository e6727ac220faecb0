package engine

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"copycat/internal/provenance"
	"copycat/internal/table"
)

// nestedLoopLink is the record-link join as a plain nested loop over the
// executed inputs: restrict both keys for every pair, clone every pair at
// or above the threshold, and under BestOnly keep the pairs tied at the
// best score so far.
func nestedLoopLink(r *RecordLinkJoin, l, rr *Result) ([]provenance.Annotated, error) {
	pick := func(row table.Tuple, cols []int) (table.Tuple, error) {
		out := make(table.Tuple, len(cols))
		for i, c := range cols {
			if c < 0 || c >= len(row) {
				return nil, fmt.Errorf("engine: record link column %d out of range", c)
			}
			out[i] = row[c]
		}
		return out, nil
	}
	var out []provenance.Annotated
	for _, la := range l.Rows {
		lkey, err := pick(la.Row, r.LeftCols)
		if err != nil {
			return nil, err
		}
		best := -1.0
		var matches []provenance.Annotated
		for _, ra := range rr.Rows {
			rkey, err := pick(ra.Row, r.RightCols)
			if err != nil {
				return nil, err
			}
			s := r.Sim(lkey, rkey)
			if s < r.Threshold {
				continue
			}
			ann := provenance.Annotated{
				Row:  append(la.Row.Clone(), ra.Row...),
				Prov: provenance.Join(la.Prov, ra.Prov),
			}
			switch {
			case !r.BestOnly:
				matches = append(matches, ann)
			case s > best:
				best = s
				matches = append(matches[:0], ann)
			case s == best:
				matches = append(matches, ann)
			}
		}
		out = append(out, matches...)
	}
	return out, nil
}

// linkLevels are the scores the test similarity draws from: repeated
// values give ties at the best score, 0.5 sits exactly on the test
// threshold, and NaN and a score below the initial best (-1) exercise
// the comparisons' edge cases.
var linkLevels = []float64{0.2, 0.5, 0.5, 0.7, 0.9, 0.9, 1, math.NaN(), -1.5}

// hashSim scores a key pair by hashing both keys' texts into linkLevels.
func hashSim(a, b table.Tuple) float64 {
	h := fnv.New64a()
	for _, v := range a {
		h.Write([]byte(v.Text() + "\x1f"))
	}
	h.Write([]byte{0})
	for _, v := range b {
		h.Write([]byte(v.Text() + "\x1f"))
	}
	return linkLevels[h.Sum64()%uint64(len(linkLevels))]
}

func randomRelation(rng *rand.Rand, name string, rows, cols int) *table.Relation {
	names := make([]string, cols)
	for i := range names {
		names[i] = fmt.Sprintf("%s%d", name, i)
	}
	rel := table.NewRelation(name, table.NewSchema(names...))
	for i := 0; i < rows; i++ {
		vals := make([]string, cols)
		for j := range vals {
			vals[j] = fmt.Sprintf("v%d", rng.Intn(6))
		}
		rel.MustAppend(table.FromStrings(vals))
	}
	return rel
}

func sameLinkRows(got, want []provenance.Annotated) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, nested loop gives %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Row.Equal(want[i].Row) {
			return fmt.Errorf("row %d is %v, nested loop gives %v", i, got[i].Row, want[i].Row)
		}
		if g, w := got[i].Prov.String(), want[i].Prov.String(); g != w {
			return fmt.Errorf("row %d provenance is %s, nested loop gives %s", i, g, w)
		}
	}
	return nil
}

// TestRecordLinkJoinMatchesNestedLoop compares rows, provenance and order
// with the nested loop over random inputs, with and without BestOnly, at
// thresholds on, below and above the tied scores, with empty inputs and
// with out-of-range key columns.
func TestRecordLinkJoinMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	colSets := [][]int{{0}, {1}, {0, 2}, {2, 0}, {3}, {-1}}
	errs, linked := 0, 0
	for trial := 0; trial < 400; trial++ {
		left := randomRelation(rng, "L", rng.Intn(9), 3)
		right := randomRelation(rng, "R", rng.Intn(9), 3)
		rl := &RecordLinkJoin{
			Left: NewScan(left), Right: NewScan(right),
			LeftCols:  colSets[rng.Intn(len(colSets))],
			RightCols: colSets[rng.Intn(len(colSets))],
			Sim:       hashSim,
			Threshold: []float64{0.5, -2, 0.9, 1.1}[rng.Intn(4)],
			BestOnly:  rng.Intn(2) == 0,
		}
		l, _ := rl.Left.Execute(Background())
		r, _ := rl.Right.Execute(Background())
		want, wantErr := nestedLoopLink(rl, l, r)
		res, err := rl.Execute(Background())
		if (err != nil) != (wantErr != nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("trial %d (%v/%v): error %v, nested loop gives %v", trial, rl.LeftCols, rl.RightCols, err, wantErr)
		}
		if err != nil {
			errs++
			continue
		}
		if err := sameLinkRows(res.Rows, want); err != nil {
			t.Fatalf("trial %d (θ=%v best=%v): %v", trial, rl.Threshold, rl.BestOnly, err)
		}
		linked += len(res.Rows)
	}
	if errs == 0 || linked == 0 {
		t.Fatalf("%d erroring trials, %d linked rows: the inputs miss a case", errs, linked)
	}
}

// TestRecordLinkJoinTiesAndThreshold pins the tie and threshold rules on
// a fixed score table: under BestOnly every right row tied at the best
// score links, in right order, and a score exactly at Threshold links.
func TestRecordLinkJoinTiesAndThreshold(t *testing.T) {
	left := table.NewRelation("L", table.NewSchema("K"))
	left.MustAppend(table.FromStrings([]string{"a"}))
	left.MustAppend(table.FromStrings([]string{"b"}))
	right := table.NewRelation("R", table.NewSchema("K"))
	for _, k := range []string{"x", "y", "z"} {
		right.MustAppend(table.FromStrings([]string{k}))
	}
	scores := map[string]float64{
		"ax": 0.8, "ay": 0.6, "az": 0.8, // a: tie at the best score
		"bx": 0.5, "by": 0.4, "bz": 0.5, // b: tie exactly at the threshold
	}
	rl := &RecordLinkJoin{
		Left: NewScan(left), Right: NewScan(right), LeftCols: []int{0}, RightCols: []int{0},
		Sim:       func(a, b table.Tuple) float64 { return scores[a[0].Text()+b[0].Text()] },
		Threshold: 0.5, BestOnly: true,
	}
	for _, c := range []struct {
		bestOnly bool
		want     []string
	}{
		{true, []string{"(L:0 * R:0)", "(L:0 * R:2)", "(L:1 * R:0)", "(L:1 * R:2)"}},
		{false, []string{"(L:0 * R:0)", "(L:0 * R:1)", "(L:0 * R:2)", "(L:1 * R:0)", "(L:1 * R:2)"}},
	} {
		rl.BestOnly = c.bestOnly
		res, err := rl.Execute(Background())
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, a := range res.Rows {
			got = append(got, a.Prov.String())
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("BestOnly=%v: links %v, want %v", c.bestOnly, got, c.want)
		}
	}
}

// TestRecordLinkJoinOutputRowsIndependent: each output row owns its
// values, so editing one does not change an input row or another output.
func TestRecordLinkJoinOutputRowsIndependent(t *testing.T) {
	left := table.NewRelation("L", table.NewSchema("K"))
	left.MustAppend(table.FromStrings([]string{"a"}))
	right := table.NewRelation("R", table.NewSchema("K"))
	right.MustAppend(table.FromStrings([]string{"x"}))
	right.MustAppend(table.FromStrings([]string{"y"}))
	rl := &RecordLinkJoin{
		Left: NewScan(left), Right: NewScan(right), LeftCols: []int{0}, RightCols: []int{0},
		Sim: func(a, b table.Tuple) float64 { return 1 },
	}
	res, err := rl.Execute(Background())
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("rows %v, err %v", res, err)
	}
	res.Rows[0].Row[0] = table.S("edited")
	if left.Rows[0][0].Text() != "a" || res.Rows[1].Row[0].Text() != "a" {
		t.Fatal("output rows share storage with the input or with each other")
	}
}

// TestRecordLinkJoinCancellation: the per-left-row cancellation check
// still stops the quadratic scan.
func TestRecordLinkJoinCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	left := randomRelation(rng, "L", 3000, 1)
	right := randomRelation(rng, "R", 4, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	rl := &RecordLinkJoin{
		Left: NewScan(left), Right: NewScan(right), LeftCols: []int{0}, RightCols: []int{0},
		Sim: func(a, b table.Tuple) float64 {
			calls++
			cancel()
			return 1
		},
	}
	_, err := rl.Execute(NewExecCtx(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled link join returned %v, want context.Canceled", err)
	}
	if calls >= len(left.Rows)*len(right.Rows) {
		t.Fatalf("scan ran to completion (%d similarity calls) despite cancellation", calls)
	}
}

package main

// Output checks. Each compares what the program returned with a
// computation written here, apart from the program, or with a property
// the method must have. They run outside the timed window; a check that
// fails fails its operation.

import (
	"fmt"
	"strconv"
	"strings"

	"copycat/internal/engine"
	"copycat/internal/intlearn"
	"copycat/internal/provenance"
	"copycat/internal/session"
	"copycat/internal/table"
	"copycat/internal/webworld"
	"copycat/internal/workspace"
)

// checkImportedShelters: the import holds every shelter of the world
// exactly once, each row equal to a ground-truth (Name, Street, City).
func checkImportedShelters(rows []workspace.Row, truth []webworld.Shelter) error {
	want := map[string]bool{}
	for _, s := range truth {
		want[s.Name+"\x1f"+s.Street+"\x1f"+s.City] = true
	}
	seen := map[string]bool{}
	for i, r := range rows {
		if len(r.Cells) < 3 {
			return fmt.Errorf("imported row %d has %d cells", i, len(r.Cells))
		}
		k := r.Cells[0].Text() + "\x1f" + r.Cells[1].Text() + "\x1f" + r.Cells[2].Text()
		if !want[k] {
			return fmt.Errorf("imported row %d %q is no shelter of the world", i, r.Cells.Texts())
		}
		if seen[k] {
			return fmt.Errorf("imported row %d %q appears twice", i, r.Cells.Texts())
		}
		seen[k] = true
	}
	if len(seen) != len(want) {
		return fmt.Errorf("imported %d shelters, the world has %d", len(seen), len(want))
	}
	return nil
}

// checkZips: after the Zip column is accepted, every row's zip is the
// world's zip for its (Street, City).
func checkZips(t *workspace.Tab, zipCol string, zips map[[2]string]string) error {
	zi := t.Schema.Index(zipCol)
	if zi < 0 {
		return fmt.Errorf("no %q column after accepting it", zipCol)
	}
	rows := t.ConcreteRows()
	if len(rows) != len(zips) {
		return fmt.Errorf("%d rows after accepting the zip column, want %d", len(rows), len(zips))
	}
	for i, r := range rows {
		key := [2]string{r.Cells[1].Text(), r.Cells[2].Text()}
		want, ok := zips[key]
		if !ok {
			return fmt.Errorf("row %d: no shelter at %q", i, key)
		}
		if got := r.Cells[zi].Text(); got != want {
			return fmt.Errorf("row %d (%s, %s): zip %q, want %q", i, key[0], key[1], got, want)
		}
	}
	return nil
}

// recordLinkOf returns the record-link candidate among the suggestions.
func recordLinkOf(comps []intlearn.Completion) (intlearn.Completion, *engine.RecordLinkJoin, bool) {
	for _, cp := range comps {
		if rl, ok := cp.Plan.(*engine.RecordLinkJoin); ok {
			return cp, rl, true
		}
	}
	return intlearn.Completion{}, nil, false
}

// checkRecordLink: the record-link candidate's rows equal a nested-loop
// evaluation of its own inputs under its own similarity and threshold.
func checkRecordLink(comps []intlearn.Completion) error {
	cp, rl, ok := recordLinkOf(comps)
	if !ok {
		return fmt.Errorf("no record-link candidate among %d suggestions", len(comps))
	}
	left, err := rl.Left.Execute(engine.Background())
	if err != nil {
		return err
	}
	right, err := rl.Right.Execute(engine.Background())
	if err != nil {
		return err
	}
	want := nestedLoopLink(left.Rows, right.Rows, rl.LeftCols, rl.RightCols, rl.Sim, rl.Threshold, rl.BestOnly)
	return sameRows(cp.Result.Rows, want)
}

// nestedLoopLink links every left row to the right rows scoring at or
// above the threshold (only the best-scoring ones under bestOnly), in
// left-then-right order.
func nestedLoopLink(left, right []provenance.Annotated, lc, rc []int, sim engine.Similarity, threshold float64, bestOnly bool) [][]string {
	var out [][]string
	pick := func(row table.Tuple, cols []int) table.Tuple {
		t := make(table.Tuple, len(cols))
		for i, c := range cols {
			t[i] = row[c]
		}
		return t
	}
	for _, l := range left {
		lk := pick(l.Row, lc)
		scores := make([]float64, len(right))
		best := -1.0
		for j, r := range right {
			scores[j] = sim(lk, pick(r.Row, rc))
			if scores[j] >= threshold && scores[j] > best {
				best = scores[j]
			}
		}
		for j, r := range right {
			if scores[j] < threshold || (bestOnly && scores[j] != best) {
				continue
			}
			out = append(out, append(l.Row.Texts(), r.Row.Texts()...))
		}
	}
	return out
}

func sameRows(got []provenance.Annotated, want [][]string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d linked rows, nested loop gives %d", len(got), len(want))
	}
	for i := range got {
		g := got[i].Row.Texts()
		if strings.Join(g, "\x1f") != strings.Join(want[i], "\x1f") {
			return fmt.Errorf("linked row %d is %q, nested loop gives %q", i, g, want[i])
		}
	}
	return nil
}

// suggestionKeys renders a suggestion list for comparison: edge, target,
// exact cost and every result row.
func suggestionKeys(comps []intlearn.Completion) []string {
	out := make([]string, len(comps))
	for i, cp := range comps {
		var b strings.Builder
		b.WriteString(cp.Edge.ID)
		b.WriteString("|" + cp.Target + "|")
		b.WriteString(strconv.FormatFloat(cp.Cost, 'g', -1, 64))
		if cp.Result != nil {
			for _, r := range cp.Result.Rows {
				b.WriteString("|" + strings.Join(r.Row.Texts(), "\x1f"))
			}
		}
		out[i] = b.String()
	}
	return out
}

// sameKeys compares two rendered suggestion lists.
func sameKeys(got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d suggestions, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			g, w := got[i], want[i]
			return fmt.Errorf("suggestion %d differs: %.80q vs %.80q", i, g, w)
		}
	}
	return nil
}

// sameSuggestions: two sessions fed the same inputs propose the same
// list.
func sameSuggestions(got, want []intlearn.Completion) error {
	return sameKeys(suggestionKeys(got), suggestionKeys(want))
}

// checkRanked: after feedback preferring chosen over alt, chosen is
// still suggested and costs less than alt (or alt fell out of the list).
func checkRanked(comps []intlearn.Completion, chosen, alt string) error {
	ci, ai := indexOfEdge(comps, chosen), indexOfEdge(comps, alt)
	if ci < 0 {
		return fmt.Errorf("preferred suggestion %s vanished", chosen)
	}
	if ai >= 0 && !(comps[ci].Cost < comps[ai].Cost) {
		return fmt.Errorf("preferred %s costs %g, not below %s at %g", chosen, comps[ci].Cost, alt, comps[ai].Cost)
	}
	return nil
}

// checkFirstNotBelowRefined: the heuristic first answer cannot beat the
// exact optimum it is later refined to.
func checkFirstNotBelowRefined(first, refined []*intlearn.Query) error {
	if len(first) == 0 || len(refined) == 0 {
		return fmt.Errorf("empty answer (first %d, refined %d)", len(first), len(refined))
	}
	if first[0].Cost < refined[0].Cost-1e-9 {
		return fmt.Errorf("first answer costs %g, below the exact optimum %g", first[0].Cost, refined[0].Cost)
	}
	return nil
}

// checkCheaperRoute: the refined top-1 is the cheaper of the chain's two
// routes, given their costs.
func checkCheaperRoute(top *intlearn.Query, fresh, stale []string, freshCost, staleCost float64) error {
	want, name := fresh, "fresh"
	if staleCost < freshCost {
		want, name = stale, "stale"
	}
	if !routeIs(top, want) {
		return fmt.Errorf("refined top-1 %v is not the cheaper %s route (fresh %g, stale %g)",
			top.EdgeIDs(), name, freshCost, staleCost)
	}
	return nil
}

// checkChainRows: the stitched query returns exactly one row per
// shelter of the chain's city, carrying that shelter's status.
func checkChainRows(res *engine.Result, shelters []webworld.Shelter) error {
	ni, si := res.Schema.Index("Name"), res.Schema.Index("Status")
	if ni < 0 || si < 0 {
		return fmt.Errorf("query output lacks Name/Status: %s", res.Schema)
	}
	want := map[string]string{}
	for _, s := range shelters {
		want[s.Name] = s.Status
	}
	if len(res.Rows) != len(want) {
		return fmt.Errorf("%d rows, the city has %d shelters", len(res.Rows), len(want))
	}
	seen := map[string]bool{}
	for _, r := range res.Rows {
		name, status := r.Row[ni].Text(), r.Row[si].Text()
		w, ok := want[name]
		if !ok || seen[name] {
			return fmt.Errorf("unexpected or repeated shelter %q", name)
		}
		if status != w {
			return fmt.Errorf("shelter %q: status %q, want %q", name, status, w)
		}
		seen[name] = true
	}
	return nil
}

// checkHostAccounting: once the clients have stopped, every created
// session is either resident or evicted, the resident estimate is within
// the memory budget, and no session was reloaded without an eviction.
func checkHostAccounting(st session.HostStats, evicted int) []string {
	var out []string
	if st.Resident+evicted != fleetSessions {
		out = append(out, fmt.Sprintf("resident %d + evicted %d != %d sessions created", st.Resident, evicted, fleetSessions))
	}
	if st.ResidentBytes > fleetBudget {
		out = append(out, fmt.Sprintf("resident bytes %d exceed the budget %d", st.ResidentBytes, fleetBudget))
	}
	if st.Reloads > st.Evictions {
		out = append(out, fmt.Sprintf("reloads %d exceed evictions %d", st.Reloads, st.Evictions))
	}
	return out
}

package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"copycat/internal/engine"
	"copycat/internal/intlearn"
	"copycat/internal/provenance"
	"copycat/internal/session"
	"copycat/internal/sourcegraph"
	"copycat/internal/table"
	"copycat/internal/webworld"
	"copycat/internal/workspace"
)

func quietClient() *client {
	return &client{lat: map[string][]time.Duration{}, sum: map[string]float64{}, cnt: map[string]int{}}
}

// analystSession imports the §8 task's sources into a fresh session and
// returns it with its cold suggestion list.
func analystSession(t *testing.T) (*analyst, *workspace.Workspace, []intlearn.Completion) {
	t.Helper()
	a := &analyst{}
	if err := a.setup(1); err != nil {
		t.Fatal(err)
	}
	st, err := a.factory()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.importAll(quietClient(), st.Workspace, webworld.StyleTable); err != nil {
		t.Fatal(err)
	}
	return a, st.Workspace, st.Workspace.RefreshColumnSuggestions()
}

func mustFail(t *testing.T, what string, err error) {
	t.Helper()
	if err == nil {
		t.Errorf("%s: check accepted a wrong result", what)
	}
}

func TestImportedSheltersCheck(t *testing.T) {
	a, ws, _ := analystSession(t)
	rows := ws.SelectTab("Sheet1").ConcreteRows()
	if err := checkImportedShelters(rows, a.world.Shelters); err != nil {
		t.Fatalf("correct import rejected: %v", err)
	}
	clone := func() []workspace.Row {
		out := make([]workspace.Row, len(rows))
		for i, r := range rows {
			out[i] = workspace.Row{Cells: r.Cells.Clone()}
		}
		return out
	}
	swapped := clone()
	swapped[3].Cells[1], swapped[4].Cells[1] = swapped[4].Cells[1], swapped[3].Cells[1]
	mustFail(t, "swapped streets", checkImportedShelters(swapped, a.world.Shelters))
	mustFail(t, "missing row", checkImportedShelters(clone()[1:], a.world.Shelters))
	dup := clone()
	dup[0] = dup[1]
	mustFail(t, "repeated row", checkImportedShelters(dup, a.world.Shelters))
}

func TestZipCheck(t *testing.T) {
	a, ws, comps := analystSession(t)
	zi := -1
	for i, cp := range comps {
		if cp.Target == zipTarget {
			zi = i
		}
	}
	if zi < 0 {
		t.Fatal("no zip suggestion")
	}
	col := comps[zi].NewCols[0].Name
	if err := ws.AcceptColumn(zi); err != nil {
		t.Fatal(err)
	}
	tab := ws.ActiveTab()
	if err := checkZips(tab, col, a.zips); err != nil {
		t.Fatalf("correct zips rejected: %v", err)
	}
	c := tab.Schema.Index(col)
	var i, j int
	for j = 1; j < len(tab.Rows); j++ {
		if tab.Rows[j].Cells[c].Text() != tab.Rows[i].Cells[c].Text() {
			break
		}
	}
	tab.Rows[i].Cells[c], tab.Rows[j].Cells[c] = tab.Rows[j].Cells[c], tab.Rows[i].Cells[c]
	mustFail(t, "swapped zip", checkZips(tab, col, a.zips))
}

func TestRecordLinkCheck(t *testing.T) {
	_, _, comps := analystSession(t)
	if err := checkRecordLink(comps); err != nil {
		t.Fatalf("program's record link rejected: %v", err)
	}
	cp, rl, ok := recordLinkOf(comps)
	if !ok {
		t.Fatal("no record-link candidate")
	}
	orig := cp.Result
	tamper := func(rows []provenance.Annotated) []intlearn.Completion {
		out := append([]intlearn.Completion(nil), comps...)
		for i := range out {
			if out[i].Plan == rl {
				res := *orig
				res.Rows = rows
				out[i].Result = &res
			}
		}
		return out
	}
	mustFail(t, "dropped link", checkRecordLink(tamper(orig.Rows[1:])))
	// A pair the nested loop does not produce: the first left row linked
	// to a right row it did not win.
	right, err := rl.Right.Execute(engine.Background())
	if err != nil {
		t.Fatal(err)
	}
	first := orig.Rows[0].Row
	nl := len(first) - len(right.Schema)
	var wrong table.Tuple
	for _, r := range right.Rows {
		if strings.Join(r.Row.Texts(), "|") != strings.Join(first[nl:].Texts(), "|") {
			wrong = append(first[:nl:nl].Clone(), r.Row...)
			break
		}
	}
	extra := append([]provenance.Annotated{{Row: wrong}}, orig.Rows[1:]...)
	mustFail(t, "linked pair not in the nested loop", checkRecordLink(tamper(extra)))
}

func TestSameSuggestionsCheck(t *testing.T) {
	_, _, comps := analystSession(t)
	if err := sameSuggestions(comps, comps); err != nil {
		t.Fatal(err)
	}
	mustFail(t, "dropped suggestion", sameSuggestions(comps[1:], comps))
	moved := append([]intlearn.Completion(nil), comps...)
	moved[0].Cost += 0.25
	mustFail(t, "changed cost", sameSuggestions(moved, comps))
}

func TestRankedCheck(t *testing.T) {
	e1, e2 := &sourcegraph.Edge{ID: "a"}, &sourcegraph.Edge{ID: "b"}
	good := []intlearn.Completion{{Edge: e1, Cost: 0.5}, {Edge: e2, Cost: 1.0}}
	if err := checkRanked(good, "a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := checkRanked(good[:1], "a", "b"); err != nil {
		t.Fatalf("demoted suggestion dropping out rejected: %v", err)
	}
	mustFail(t, "chosen not below alt", checkRanked(good, "b", "a"))
	mustFail(t, "chosen vanished", checkRanked(good[1:], "a", "b"))
}

func TestQueryChecks(t *testing.T) {
	fresh := []string{"f0-f1", "f1-f2"}
	stale := []string{"f0-s", "s-f2"}
	q := func(ids []string, cost float64) *intlearn.Query {
		out := &intlearn.Query{Cost: cost}
		for _, id := range ids {
			out.Edges = append(out.Edges, &sourcegraph.Edge{ID: id})
		}
		return out
	}
	if err := checkCheaperRoute(q(fresh, 1), fresh, stale, 1, 2); err != nil {
		t.Fatal(err)
	}
	mustFail(t, "decoy route top-1", checkCheaperRoute(q(stale, 2), fresh, stale, 1, 2))
	if err := checkFirstNotBelowRefined([]*intlearn.Query{q(stale, 0.9)}, []*intlearn.Query{q(stale, 0.9)}); err != nil {
		t.Fatal(err)
	}
	mustFail(t, "first answer below the optimum",
		checkFirstNotBelowRefined([]*intlearn.Query{q(fresh, 0.5)}, []*intlearn.Query{q(stale, 0.9)}))
}

func TestChainRowsCheck(t *testing.T) {
	w := webworld.Generate(webworld.ScaledConfig(1))
	shelters := w.SheltersIn(w.Cities[0].Name)
	res := &engine.Result{Schema: table.NewSchema("Name", "Key1", "Status")}
	for _, s := range shelters {
		res.Rows = append(res.Rows, provenance.Annotated{Row: table.FromStrings([]string{s.Name, "k", s.Status})})
	}
	if err := checkChainRows(res, shelters); err != nil {
		t.Fatal(err)
	}
	short := *res
	short.Rows = res.Rows[1:]
	mustFail(t, "missing shelter", checkChainRows(&short, shelters))
	wrong := *res
	wrong.Rows = append([]provenance.Annotated(nil), res.Rows...)
	row := wrong.Rows[0].Row.Clone()
	row[2] = table.S(row[2].Text() + "-stale")
	wrong.Rows[0] = provenance.Annotated{Row: row}
	mustFail(t, "wrong status", checkChainRows(&wrong, shelters))
}

func TestHostAccountingCheck(t *testing.T) {
	ok := session.HostStats{Resident: 10, ResidentBytes: fleetBudget - 1, Evictions: 5, Reloads: 4}
	if p := checkHostAccounting(ok, 38); len(p) != 0 {
		t.Fatal(p)
	}
	lost := ok
	lost.Resident = 9
	if len(checkHostAccounting(lost, 38)) == 0 {
		t.Error("lost session accepted")
	}
	over := ok
	over.ResidentBytes = fleetBudget + 1
	if len(checkHostAccounting(over, 38)) == 0 {
		t.Error("budget overrun accepted")
	}
	phantom := ok
	phantom.Reloads = 6
	if len(checkHostAccounting(phantom, 38)) == 0 {
		t.Error("more reloads than evictions accepted")
	}
}

// TestWorkloadsSmoke runs every workload briefly, untraced and traced,
// and requires every operation to pass its checks and every declared
// metric to be reported.
func TestWorkloadsSmoke(t *testing.T) {
	declared := readDeclared(t)
	workDir = t.TempDir()
	d := 300 * time.Millisecond
	if !testing.Short() {
		d = time.Second
	}
	for name, mk := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(name, mk(), 7, d, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%v",
					name, traced, res.Correct, res.Attempted, res.Failed, res.problems)
			}
			want := declared.endToEnd
			if traced {
				want = declared.perLayer
			}
			for _, m := range want {
				if _, ok := res.Metrics[m]; !ok {
					t.Errorf("%s traced=%v: metric %s missing", name, traced, m)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
		}
	}
}

type declaredMetrics struct{ endToEnd, perLayer []string }

// readDeclared reads the metric names BENCHMARK.json declares.
func readDeclared(t *testing.T) declaredMetrics {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var d declaredMetrics
	for _, m := range b.EndToEnd {
		d.endToEnd = append(d.endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		d.perLayer = append(d.perLayer, m.Name)
	}
	return d
}

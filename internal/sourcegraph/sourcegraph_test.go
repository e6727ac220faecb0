package sourcegraph

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"copycat/internal/catalog"
	"copycat/internal/modellearn"
	"copycat/internal/services"
	"copycat/internal/table"
	"copycat/internal/webworld"
)

// figure4Catalog builds a catalog resembling the running example: the
// Shelters web source, the Contacts spreadsheet, and builtin services.
func figure4Catalog(t *testing.T) (*catalog.Catalog, *webworld.World) {
	t.Helper()
	w := webworld.Generate(webworld.DefaultConfig())
	cat := catalog.New()

	shel := table.NewRelation("Shelters", table.Schema{
		{Name: "Name", Kind: table.KindString, SemType: modellearn.TypeOrgName},
		{Name: "Street", Kind: table.KindString, SemType: modellearn.TypeStreet},
		{Name: "City", Kind: table.KindString, SemType: modellearn.TypeCity},
	})
	for _, s := range w.Shelters {
		shel.MustAppend(table.FromStrings([]string{s.Name, s.Street, s.City}))
	}
	cat.AddRelation(shel, "http://tv.example.com/shelters")

	con := table.NewRelation("Contacts", table.Schema{
		{Name: "Contact", Kind: table.KindString, SemType: modellearn.TypePersonName},
		{Name: "Organization", Kind: table.KindString, SemType: modellearn.TypeOrgName},
		{Name: "Address", Kind: table.KindString, SemType: modellearn.TypeStreet},
		{Name: "City", Kind: table.KindString, SemType: modellearn.TypeCity},
		{Name: "Phone", Kind: table.KindString, SemType: modellearn.TypePhone},
	})
	for _, c := range w.Contacts {
		con.MustAppend(table.FromStrings([]string{c.Person, c.Org, c.Street, c.City, c.Phone}))
	}
	cat.AddRelation(con, "file:///contacts.csv")

	for _, svc := range services.Builtin(w) {
		cat.AddService(svc, "builtin")
	}
	return cat, w
}

func TestEdgeKindString(t *testing.T) {
	for k, want := range map[EdgeKind]string{
		KindJoin: "join", KindDependent: "dependent",
		KindRecordLink: "recordlink", KindForeignKey: "foreignkey",
	} {
		if k.String() != want {
			t.Errorf("kind %d = %q", k, k.String())
		}
	}
	if !strings.Contains(EdgeKind(9).String(), "9") {
		t.Error("unknown kind should embed number")
	}
}

func TestAddEdgeIdempotentAndCosts(t *testing.T) {
	g := New(catalog.New())
	e1 := g.AddEdge(Edge{From: "A", To: "B", Kind: KindJoin, FromCols: []string{"x"}, ToCols: []string{"x"}})
	if e1.Cost != DefaultCost {
		t.Errorf("default cost = %f", e1.Cost)
	}
	e1.Cost = 0.3
	e2 := g.AddEdge(Edge{From: "A", To: "B", Kind: KindJoin, FromCols: []string{"x"}, ToCols: []string{"x"}})
	if e2 != e1 || e2.Cost != 0.3 {
		t.Error("re-adding should return the existing edge with its learned cost")
	}
	if g.Len() != 1 {
		t.Errorf("len = %d", g.Len())
	}
	if !g.SetCost(e1.ID, 0.7) || g.Edge(e1.ID).Cost != 0.7 {
		t.Error("SetCost failed")
	}
	if g.SetCost("missing", 1) {
		t.Error("SetCost on missing edge should be false")
	}
	if g.Edge("missing") != nil {
		t.Error("missing edge should be nil")
	}
	if e1.Label() == "" || !strings.Contains(e1.Label(), "join") {
		t.Error("Label should describe the edge")
	}
}

func TestDiscoverFigure4Associations(t *testing.T) {
	cat, _ := figure4Catalog(t)
	g := New(cat)
	g.Discover(DefaultOptions())
	if g.Catalog() != cat {
		t.Error("Catalog accessor wrong")
	}

	find := func(from, to string, kind EdgeKind) *Edge {
		for _, e := range g.Edges() {
			if e.From == from && e.To == to && e.Kind == kind {
				return e
			}
		}
		return nil
	}
	// Shelters → Zipcode Resolver dependent join on (Street, City).
	dep := find("Shelters", "Zipcode Resolver", KindDependent)
	if dep == nil {
		t.Fatal("no Shelters→ZipResolver dependent edge")
	}
	if len(dep.FromCols) != 2 || dep.FromCols[0] != "Street" || dep.FromCols[1] != "City" {
		t.Errorf("dependent binding = %v", dep.FromCols)
	}
	// Shelters → Geocoder too.
	if find("Shelters", "Geocoder", KindDependent) == nil {
		t.Error("no Shelters→Geocoder edge")
	}
	// Shelters ↔ Contacts (symmetric; orientation follows catalog order):
	// a record-link edge on the org-name column and an equijoin on
	// (Street, City).
	findSym := func(x, y string, kind EdgeKind) *Edge {
		if e := find(x, y, kind); e != nil {
			return e
		}
		return find(y, x, kind)
	}
	rl := findSym("Shelters", "Contacts", KindRecordLink)
	if rl == nil {
		t.Fatal("no Shelters≈Contacts record-link edge")
	}
	cols := map[string]bool{rl.FromCols[0]: true, rl.ToCols[0]: true}
	if !cols["Name"] || !cols["Organization"] {
		t.Errorf("record-link cols = %v=%v", rl.FromCols, rl.ToCols)
	}
	j := findSym("Shelters", "Contacts", KindJoin)
	if j == nil {
		t.Fatal("no Shelters⋈Contacts join edge")
	}
	// Conjunction of all matching attribute pairs (street and city).
	if len(j.FromCols) != 2 {
		t.Errorf("join conjunction = %v", j.FromCols)
	}
	// Contacts → Reverse Directory on Phone.
	if find("Contacts", "Reverse Directory", KindDependent) == nil {
		t.Error("no Contacts→ReverseDirectory edge")
	}
	// Service composition: the Shelter Locator's outputs (Street, City)
	// cover the Zipcode Resolver's and Geocoder's inputs.
	comp := find("Shelter Locator", "Zipcode Resolver", KindDependent)
	if comp == nil {
		t.Error("no Locator→ZipResolver composition edge")
	} else if len(comp.FromCols) != 2 || comp.FromCols[0] != "Street" {
		t.Errorf("composition binding = %v", comp.FromCols)
	}
	if find("Shelter Locator", "Geocoder", KindDependent) == nil {
		t.Error("no Locator→Geocoder composition edge")
	}
	// But never in a direction whose inputs aren't covered: nothing
	// produces a Phone for the Reverse Directory from the Geocoder.
	if find("Geocoder", "Reverse Directory", KindDependent) != nil {
		t.Error("spurious composition edge")
	}
}

func TestDiscoverIdempotentKeepsLearnedCosts(t *testing.T) {
	cat, _ := figure4Catalog(t)
	g := New(cat)
	g.Discover(DefaultOptions())
	n := g.Len()
	var id string
	for _, e := range g.Edges() {
		id = e.ID
		break
	}
	g.SetCost(id, 0.123)
	g.Discover(DefaultOptions())
	if g.Len() != n {
		t.Errorf("re-discovery changed edge count: %d → %d", n, g.Len())
	}
	if g.Edge(id).Cost != 0.123 {
		t.Error("re-discovery reset a learned cost")
	}
}

func TestDiscoverAblationWithoutTypes(t *testing.T) {
	// A1: without the semantic-type constraint, candidate pairs and edges
	// explode (every string column matches every string column).
	cat, _ := figure4Catalog(t)
	with := New(cat)
	with.Discover(DefaultOptions())
	without := New(cat)
	without.Discover(Options{UseSemTypes: false})
	if without.CandidatePairs != with.CandidatePairs {
		t.Errorf("candidate pairs should be counted identically: %d vs %d",
			without.CandidatePairs, with.CandidatePairs)
	}
	pairsWith := countMatchedPairs(with)
	pairsWithout := countMatchedPairs(without)
	if pairsWithout <= pairsWith {
		t.Errorf("type constraint should prune pairs: with=%d without=%d", pairsWith, pairsWithout)
	}
}

func countMatchedPairs(g *Graph) int {
	n := 0
	for _, e := range g.Edges() {
		n += len(e.FromCols)
	}
	return n
}

func TestForeignKeyEdges(t *testing.T) {
	cat := catalog.New()
	a := table.NewRelation("Orders", table.NewSchema("OrderID", "CustID"))
	b := table.NewRelation("Customers", table.NewSchema("CustID", "Name"))
	cat.AddRelation(a, "db")
	cat.AddRelation(b, "db")
	if err := cat.AddKey("Orders", "CustID", "Customers", "CustID"); err != nil {
		t.Fatal(err)
	}
	// Also a dangling key to a missing source — must be skipped.
	if err := cat.AddKey("Orders", "OrderID", "Ghost", "ID"); err != nil {
		t.Fatal(err)
	}
	g := New(cat)
	g.Discover(DefaultOptions())
	found := false
	for _, e := range g.Edges() {
		if e.Kind == KindForeignKey {
			if e.From != "Orders" || e.To != "Customers" {
				t.Errorf("fk edge endpoints wrong: %s", e.Label())
			}
			found = true
		}
	}
	if !found {
		t.Error("no foreign-key edge")
	}
}

func TestEdgesAtAndSuggestable(t *testing.T) {
	cat, _ := figure4Catalog(t)
	g := New(cat)
	g.Discover(DefaultOptions())
	at := g.EdgesAt("Shelters")
	if len(at) < 3 {
		t.Fatalf("Shelters should have ≥3 associations, got %d", len(at))
	}
	// Sorted by cost.
	for i := 1; i < len(at); i++ {
		if at[i-1].Cost > at[i].Cost {
			t.Error("EdgesAt not cost-sorted")
		}
	}
	// Raise one edge's cost above threshold → no longer suggestable.
	g.SetCost(at[0].ID, SuggestThreshold+1)
	for _, e := range g.Suggestable("Shelters") {
		if e.ID == at[0].ID {
			t.Error("over-threshold edge still suggested")
		}
	}
	// Other endpoint helper.
	e := at[1]
	if e.Other("Shelters") == "Shelters" && e.From != e.To {
		t.Error("Other wrong")
	}
}

func TestDiscoverWithSchemaMatcher(t *testing.T) {
	// Two relations whose corresponding columns have different names and
	// no semantic types: only the approximate matcher can associate them.
	w := webworld.Generate(webworld.DefaultConfig())
	cat := catalog.New()
	a := table.NewRelation("SheltersA", table.NewSchema("Name", "Street", "City"))
	for _, s := range w.Shelters {
		a.MustAppend(table.FromStrings([]string{s.Name, s.Street, s.City}))
	}
	b := table.NewRelation("Depots", table.NewSchema("depot_name", "town", "item"))
	for _, s := range w.Supplies {
		b.MustAppend(table.FromStrings([]string{s.Depot, s.City, s.Item}))
	}
	cat.AddRelation(a, "x")
	cat.AddRelation(b, "y")

	plain := New(cat)
	plain.Discover(DefaultOptions())
	if plain.Len() != 0 {
		t.Fatalf("default rules should find nothing here, got %d edges", plain.Len())
	}

	matched := New(cat)
	matched.Discover(MatcherOptions())
	var cityEdge *Edge
	for _, e := range matched.Edges() {
		for i := range e.FromCols {
			if (e.FromCols[i] == "City" && e.ToCols[i] == "town") ||
				(e.FromCols[i] == "town" && e.ToCols[i] == "City") {
				cityEdge = e
			}
		}
	}
	if cityEdge == nil {
		t.Fatalf("matcher found no City↔town edge among %d", matched.Len())
	}
	// Confidence-derived cost: better than near-threshold, but recorded
	// as uncertain relative to a declared FK (which would be 1.0 default
	// — matcher confidence with full value overlap beats that).
	if cityEdge.Cost >= SuggestThreshold {
		t.Errorf("matcher edge should be suggestable: cost %f", cityEdge.Cost)
	}
}

// TestChangedSinceMatchesFullScan drives a graph through a seeded mix of
// edge additions and cost writes (some of them no-ops) and checks, after
// every step, ChangedSince for consumers of every age against a scan of
// per-edge generations recorded independently here. The log is bounded
// by the edge count, so consumers older than its floor take the
// full-scan fallback; the run must reach that case.
func TestChangedSinceMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := New(catalog.New())
	lastGen := map[string]uint64{}
	var ids []string
	olderThanFloor := 0
	for step := 0; step < 600; step++ {
		before := g.Generation()
		var id string
		if len(ids) < 4 || rng.Intn(8) == 0 {
			e := g.AddEdge(Edge{From: fmt.Sprintf("s%d", rng.Intn(12)), To: fmt.Sprintf("t%d", rng.Intn(12)),
				Kind: KindJoin, FromCols: []string{"k"}, ToCols: []string{"k"}})
			id = e.ID
			if _, seen := lastGen[id]; !seen {
				ids = append(ids, id)
			}
		} else {
			id = ids[rng.Intn(len(ids))]
			g.SetCost(id, float64(rng.Intn(4))/2) // repeats leave the cost alone
		}
		if g.Generation() != before {
			lastGen[id] = g.Generation()
		}
		if len(g.changes) > len(g.edges) {
			t.Fatalf("step %d: change log holds %d entries for %d edges", step, len(g.changes), len(g.edges))
		}
		// Every consumer age: 0, around the floor, and the recent past.
		gens := []uint64{0, g.changesFloor, g.changesFloor + 1}
		if g.changesFloor > 0 {
			gens = append(gens, g.changesFloor-1)
		}
		for back := uint64(0); back < 40 && back <= g.Generation(); back++ {
			gens = append(gens, g.Generation()-back)
		}
		for _, gen := range gens {
			var want []string
			for id, eg := range lastGen {
				if eg > gen {
					want = append(want, id)
				}
			}
			sort.Strings(want)
			var got []string
			for _, e := range g.ChangedSince(gen) {
				got = append(got, e.ID)
			}
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Fatalf("step %d: ChangedSince(%d) = %v, want %v", step, gen, got, want)
			}
			if gen < g.changesFloor {
				olderThanFloor++
			}
		}
	}
	if olderThanFloor == 0 {
		t.Fatal("no consumer was older than the change log's floor")
	}
}

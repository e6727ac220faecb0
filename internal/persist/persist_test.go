package persist

import (
	"fmt"
	"strings"
	"testing"

	"copycat/internal/catalog"
	"copycat/internal/modellearn"
	"copycat/internal/sourcegraph"
	"copycat/internal/table"
	"copycat/internal/webworld"
	"copycat/internal/workspace"
)

func buildState(t *testing.T) (*catalog.Catalog, *modellearn.Library, *sourcegraph.Graph) {
	t.Helper()
	w := webworld.Generate(webworld.DefaultConfig())
	cat := catalog.New()
	rel := table.NewRelation("Shelters", table.Schema{
		{Name: "Name", Kind: table.KindString, SemType: modellearn.TypeOrgName},
		{Name: "City", Kind: table.KindString, SemType: modellearn.TypeCity},
		{Name: "Capacity", Kind: table.KindNumber},
		{Name: "Open", Kind: table.KindBool},
		{Name: "Note", Kind: table.KindNull},
	})
	for _, s := range w.Shelters[:5] {
		rel.MustAppend(table.Tuple{
			table.S(s.Name), table.S(s.City), table.N(float64(s.Capacity)),
			table.B(s.Status == "open"), table.Null(),
		})
	}
	cat.AddRelation(rel, "http://tv.example.com/shelters")
	contacts := table.NewRelation("Contacts", table.Schema{
		{Name: "Org", Kind: table.KindString, SemType: modellearn.TypeOrgName},
		{Name: "City", Kind: table.KindString, SemType: modellearn.TypeCity},
	})
	for _, c := range w.Contacts[:3] {
		contacts.MustAppend(table.Tuple{table.S(c.Org), table.S(c.City)})
	}
	cat.AddRelation(contacts, "contacts.xls")
	if err := cat.AddKey("Shelters", "City", "Contacts", "City"); err != nil {
		t.Fatal(err)
	}
	types := modellearn.NewLibrary()
	modellearn.TrainBuiltins(types, w)
	g := sourcegraph.New(cat)
	g.Discover(sourcegraph.DefaultOptions())
	return cat, types, g
}

func TestSaveLoadRoundTrip(t *testing.T) {
	cat, types, g := buildState(t)
	edges := g.Edges()
	if len(edges) < 2 {
		t.Fatalf("buildState discovered %d edges, want >= 2", len(edges))
	}
	// Mark a learned cost, and a cost of 0, which AddEdge reads as unset.
	edgeID, zeroID := edges[0].ID, edges[1].ID
	g.SetCost(edgeID, 0.42)
	g.SetCost(zeroID, 0)

	data, err := Save(Session{}, cat, types, g)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Shelters") {
		t.Error("dump missing relation name")
	}

	cat2 := catalog.New()
	types2 := modellearn.NewLibrary()
	s, err := Load(data, cat2, types2)
	if err != nil {
		t.Fatal(err)
	}
	src := cat2.Get("Shelters")
	if src == nil {
		t.Fatal("relation not restored")
	}
	if src.Rel.Len() != 5 {
		t.Errorf("rows = %d", src.Rel.Len())
	}
	if src.Schema[0].SemType != modellearn.TypeOrgName {
		t.Error("semtype lost")
	}
	if src.Origin != "http://tv.example.com/shelters" {
		t.Error("origin lost")
	}
	if src.Keys["City"] != "Contacts.City" {
		t.Error("foreign key lost")
	}
	// Value kinds survive.
	row := src.Rel.Rows[0]
	if row[2].Kind() != table.KindNumber || row[3].Kind() != table.KindBool || !row[4].IsNull() {
		t.Errorf("kinds lost: %v %v %v", row[2].Kind(), row[3].Kind(), row[4].Kind())
	}
	orig := cat.Get("Shelters").Rel.Rows[0]
	if !row.Equal(orig) {
		t.Errorf("row changed: %v vs %v", row.Texts(), orig.Texts())
	}
	// Types restored and functional.
	if len(types2.Types()) != len(types.Types()) {
		t.Errorf("types = %v", types2.Types())
	}
	w := webworld.Generate(webworld.DefaultConfig())
	scores := types2.Recognize([]string{w.Shelters[0].Zip, w.Shelters[1].Zip})
	if len(scores) == 0 || scores[0].Type != modellearn.TypeZip {
		t.Errorf("restored types misrecognize: %v", scores)
	}
	// Every edge comes back, in Graph.Edges() order, with its cost.
	if len(s.Edges) != len(edges) {
		t.Fatalf("saved %d edges, graph has %d", len(s.Edges), len(edges))
	}
	for i, d := range s.Edges {
		if got := g.AddEdge(d.Edge()); got != edges[i] || d.Cost != edges[i].Cost {
			t.Errorf("edge %d: %+v, want %s @%v", i, d, edges[i].ID, edges[i].Cost)
		}
	}
	if !strings.Contains(string(data), `"cost": 0`) {
		t.Error("a zero cost must be written, not omitted")
	}
}

func TestSaveSkipsServices(t *testing.T) {
	w := webworld.Generate(webworld.DefaultConfig())
	cat, _, g := buildState(t)
	_ = w
	data, err := Save(Session{}, cat, nil, g)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "Zipcode Resolver") {
		t.Error("services should not be serialized")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load([]byte("not json"), catalog.New(), nil); err == nil {
		t.Error("garbage should error")
	}
	// Only the current version loads; the error names the version read.
	for _, v := range []int{1, 2, 4, 99} {
		_, err := Load([]byte(fmt.Sprintf(`{"version": %d}`, v)), catalog.New(), nil)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", v)) {
			t.Errorf("version %d: err = %v, want an error naming the version", v, err)
		}
	}
	// Ragged rows are rejected.
	bad := `{"version":3,"relations":[{"name":"R","columns":[{"name":"A","kind":1}],"rows":[[{"k":1,"v":"x"},{"k":1,"v":"extra"}]]}]}`
	if _, err := Load([]byte(bad), catalog.New(), nil); err == nil {
		t.Error("arity mismatch should error")
	}
}

func TestNilArguments(t *testing.T) {
	data, err := Save(Session{}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Load(data, nil, nil)
	if err != nil || len(s.Edges) != 0 {
		t.Errorf("nil round trip: %v %v", s, err)
	}
}

func TestSaveIsV3(t *testing.T) {
	data, err := Save(Session{}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"version": 3`) {
		t.Fatalf("Save should stamp version 3:\n%s", data)
	}
}

// TestWorkspaceDumpRoundTrip checks the workspace surface: tabs, schemas,
// source nodes, concrete rows, active tab, and mode survive a
// dump/restore into a fresh workspace; suggested rows are dropped.
func TestWorkspaceDumpRoundTrip(t *testing.T) {
	cat := catalog.New()
	types := modellearn.NewLibrary()
	ws := workspace.New(cat, types)
	tab := ws.ActiveTab()
	tab.Schema = table.NewSchema("Name", "City")
	tab.SourceNode = "Shelters"
	tab.Rows = []workspace.Row{
		{Cells: table.Tuple{table.S("a"), table.S("x")}},
		{Cells: table.Tuple{table.S("b"), table.S("y")}, Suggested: true},
	}
	ws.SelectTab("Other").Schema = table.NewSchema("K")
	ws.SelectTab("Sheet1")
	ws.SetMode(workspace.ModeIntegration)

	d := DumpWorkspace(ws)
	if len(d.Tabs) != 2 || d.Active != "Sheet1" {
		t.Fatalf("dump shape: %+v", d)
	}

	ws2 := workspace.New(catalog.New(), modellearn.NewLibrary())
	RestoreWorkspace(ws2, d)
	if ws2.Mode() != workspace.ModeIntegration {
		t.Fatalf("mode = %v", ws2.Mode())
	}
	got := ws2.ActiveTab()
	if got.Name != "Sheet1" || got.SourceNode != "Shelters" {
		t.Fatalf("active tab: %+v", got)
	}
	if len(got.Rows) != 1 || got.Rows[0].Cells[0].Text() != "a" {
		t.Fatalf("rows: suggested rows must be dropped, concrete kept: %+v", got.Rows)
	}
	if len(ws2.Tabs()) != 2 {
		t.Fatalf("tab count = %d", len(ws2.Tabs()))
	}
}

package persist

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"copycat/internal/catalog"
	"copycat/internal/sourcegraph"
	"copycat/internal/table"
)

// randomValue draws a value biased toward the JSON omitempty hazards:
// zero numbers, empty strings, and false bools all encode as an absent
// field in cellDump, and must still round-trip by kind.
func randomValue(rng *rand.Rand) table.Value {
	switch rng.Intn(8) {
	case 0:
		return table.S("")
	case 1:
		return table.N(0)
	case 2:
		return table.B(false)
	case 3:
		return table.Null()
	case 4:
		return table.B(true)
	case 5:
		return table.N(rng.NormFloat64() * 1000)
	default:
		return table.S(fmt.Sprintf("v%d", rng.Intn(1000)))
	}
}

func kindOf(v table.Value) table.Kind { return v.Kind() }

// TestRoundTripProperty generates random relations — heavy on values
// whose JSON encodings are empty — and checks Save→Load preserves every
// cell, kind, semantic type, and key map exactly.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		cat := catalog.New()
		ncols := 1 + rng.Intn(5)
		schema := make(table.Schema, ncols)
		for c := range schema {
			schema[c] = table.Column{
				Name:    fmt.Sprintf("C%d", c),
				Kind:    table.Kind(rng.Intn(4)),
				SemType: []string{"", "PR-City", "PR-Zip"}[rng.Intn(3)],
			}
		}
		rel := table.NewRelation(fmt.Sprintf("R%d", trial), schema)
		nrows := rng.Intn(6)
		for r := 0; r < nrows; r++ {
			row := make(table.Tuple, ncols)
			for c := range row {
				row[c] = randomValue(rng)
			}
			rel.MustAppend(row)
		}
		src := cat.AddRelation(rel, "prop-test")
		if rng.Intn(2) == 0 {
			src.Keys = map[string]string{"C0": "Other.C0", "": "Weird.Empty"}
		}

		data, err := Save(Session{}, cat, nil, nil)
		if err != nil {
			t.Fatalf("trial %d: Save: %v", trial, err)
		}
		cat2 := catalog.New()
		if _, err := Load(data, cat2, nil); err != nil {
			t.Fatalf("trial %d: Load: %v", trial, err)
		}
		got := cat2.Get(rel.Name)
		if got == nil {
			t.Fatalf("trial %d: relation lost", trial)
		}
		if got.Rel.Len() != nrows {
			t.Fatalf("trial %d: rows %d want %d", trial, got.Rel.Len(), nrows)
		}
		for c := range schema {
			if got.Schema[c].Name != schema[c].Name || got.Schema[c].SemType != schema[c].SemType {
				t.Fatalf("trial %d: column %d schema changed: %+v", trial, c, got.Schema[c])
			}
		}
		for r := 0; r < nrows; r++ {
			for c := 0; c < ncols; c++ {
				want, have := rel.Rows[r][c], got.Rel.Rows[r][c]
				if kindOf(want) != kindOf(have) {
					t.Fatalf("trial %d cell (%d,%d): kind %v became %v", trial, r, c, kindOf(want), kindOf(have))
				}
				if !want.Equal(have) {
					t.Fatalf("trial %d cell (%d,%d): %q became %q", trial, r, c, want.Text(), have.Text())
				}
			}
		}
		for k, v := range src.Keys {
			if got.Keys[k] != v {
				t.Fatalf("trial %d: key %q: %q became %q", trial, k, v, got.Keys[k])
			}
		}
	}
}

// TestSavedGraphRestoresWithoutRediscovery gives every edge a random
// cost — 0 and the default among them — adds an edge discovery would
// never find, and checks that the saved edges, added to an empty graph
// over the loaded catalog, rebuild the same edge set with the same cost
// bits.
func TestSavedGraphRestoresWithoutRediscovery(t *testing.T) {
	cat, _, g := buildState(t)
	g.AddEdge(sourcegraph.Edge{From: "Shelters", To: "Contacts", Kind: sourcegraph.KindRecordLink,
		FromCols: []string{"Name"}, ToCols: []string{"Org"}})
	rng := rand.New(rand.NewSource(7))
	for _, e := range g.Edges() {
		g.SetCost(e.ID, []float64{0, sourcegraph.DefaultCost, rng.Float64() * 3}[rng.Intn(3)])
	}

	data, err := Save(Session{}, cat, nil, g)
	if err != nil {
		t.Fatal(err)
	}
	cat2 := catalog.New()
	s, err := Load(data, cat2, nil)
	if err != nil {
		t.Fatal(err)
	}
	g2 := sourcegraph.New(cat2)
	for _, d := range s.Edges {
		g2.SetCost(g2.AddEdge(d.Edge()).ID, d.Cost)
	}
	want, got := g.Edges(), g2.Edges()
	if len(got) != len(want) {
		t.Fatalf("restored %d edges, saved %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Cost) != math.Float64bits(want[i].Cost) {
			t.Errorf("edge %d: %s @%v, want %s @%v", i, got[i].ID, got[i].Cost, want[i].ID, want[i].Cost)
		}
	}
}

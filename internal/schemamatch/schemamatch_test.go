package schemamatch

import (
	"math"
	"testing"
	"testing/quick"

	"copycat/internal/table"
	"copycat/internal/webworld"
)

// two relations over the same world with differently spelled columns.
func twoRelations() (*table.Relation, *table.Relation) {
	w := webworld.Generate(webworld.DefaultConfig())
	a := table.NewRelation("Shelters", table.NewSchema("Name", "Street", "City"))
	for _, s := range w.Shelters {
		a.MustAppend(table.FromStrings([]string{s.Name, s.Street, s.City}))
	}
	b := table.NewRelation("Contacts", table.NewSchema("organization", "street_address", "town", "phone_number"))
	for _, c := range w.Contacts {
		b.MustAppend(table.FromStrings([]string{c.Org, c.Street, c.City, c.Phone}))
	}
	return a, b
}

func TestMatchRelationsFindsCorrespondences(t *testing.T) {
	a, b := twoRelations()
	matches := MatchRelations(a, b, MinConfidence)
	if len(matches) == 0 {
		t.Fatal("no matches")
	}
	// The city columns must match despite the different names ("City" vs
	// "town") thanks to full value overlap.
	var cityMatch, streetMatch *Match
	for i := range matches {
		m := &matches[i]
		if m.LeftCol == "City" && m.RightCol == "town" {
			cityMatch = m
		}
		if m.LeftCol == "Street" && m.RightCol == "street_address" {
			streetMatch = m
		}
	}
	if cityMatch == nil {
		t.Fatalf("City↔town not matched: %+v", matches)
	}
	if cityMatch.Why.Overlap < 0.9 {
		t.Errorf("city overlap = %f", cityMatch.Why.Overlap)
	}
	if streetMatch == nil {
		t.Fatal("Street↔street_address not matched")
	}
	// Street values are perturbed in contacts, so overlap is partial but
	// name + shape carry it.
	if streetMatch.Why.Name < 0.5 {
		t.Errorf("street name sim = %f", streetMatch.Why.Name)
	}
	// No match should claim City ↔ phone_number.
	for _, m := range matches {
		if m.LeftCol == "City" && m.RightCol == "phone_number" {
			t.Errorf("spurious match: %+v", m)
		}
	}
	// Best-first ordering.
	for i := 1; i < len(matches); i++ {
		if matches[i-1].Confidence < matches[i].Confidence {
			t.Error("matches not sorted")
		}
	}
}

func TestMatchEmptyRelations(t *testing.T) {
	a := table.NewRelation("A", table.NewSchema("X"))
	b := table.NewRelation("B", table.NewSchema("X"))
	matches := MatchRelations(a, b, 0.1)
	// Identical names still match on the name signal alone.
	if len(matches) != 1 || matches[0].Why.Name != 1 {
		t.Errorf("empty-instance name match: %+v", matches)
	}
	if matches[0].Why.Overlap != 0 || matches[0].Why.Shape != 0 {
		t.Error("no instances should mean zero overlap/shape")
	}
}

func TestKindMismatchHalvesConfidence(t *testing.T) {
	a := table.NewRelation("A", table.Schema{{Name: "V", Kind: table.KindNumber}})
	b := table.NewRelation("B", table.Schema{{Name: "V", Kind: table.KindString}})
	a.MustAppend(table.Tuple{table.N(1)})
	b.MustAppend(table.Tuple{table.S("1")})
	same := MatchRelations(a, a.Clone(), 0.01)
	diff := MatchRelations(a, b, 0.01)
	if len(same) == 0 || len(diff) == 0 {
		t.Fatal("matches missing")
	}
	if diff[0].Confidence >= same[0].Confidence {
		t.Errorf("kind mismatch should cost confidence: %f vs %f", diff[0].Confidence, same[0].Confidence)
	}
}

func TestSplitIdent(t *testing.T) {
	cases := map[string]string{
		"ZipCode":     "zip code",
		"zip_code":    "zip code",
		"zip-code":    "zip code",
		"Street":      "street",
		"phoneNumber": "phone number",
		"ALLCAPS":     "allcaps",
	}
	for in, want := range cases {
		if got := splitIdent(in); got != want {
			t.Errorf("splitIdent(%q) = %q want %q", in, got, want)
		}
	}
}

func TestNameSim(t *testing.T) {
	if nameSim("ZipCode", "zip_code") != 1 {
		t.Error("identifier styles should match exactly")
	}
	if nameSim("Street", "street_address") < 0.4 {
		t.Errorf("partial name sim = %f", nameSim("Street", "street_address"))
	}
	if nameSim("City", "Phone") > 0.6 {
		t.Errorf("unrelated names = %f", nameSim("City", "Phone"))
	}
}

func TestShapeSim(t *testing.T) {
	a := map[string]float64{"NUM5": 1}
	b := map[string]float64{"NUM5": 0.9, "NUM3": 0.1}
	if s := shapeSim(a, b); math.Abs(s-0.9) > 1e-9 {
		t.Errorf("shape sim = %f", s)
	}
	if shapeSim(nil, a) != 0 {
		t.Error("empty shape sim should be 0")
	}
}

func TestCostForMapping(t *testing.T) {
	if c := CostFor(1.0); c != 0.5 {
		t.Errorf("full confidence cost = %f", c)
	}
	nearThreshold := CostFor(MinConfidence)
	if nearThreshold < 1.8 || nearThreshold > 2.0 {
		t.Errorf("threshold confidence cost = %f (want just under 2.0)", nearThreshold)
	}
	// Monotone decreasing in confidence.
	f := func(x, y float64) bool {
		cx := math.Mod(math.Abs(x), 1)
		cy := math.Mod(math.Abs(y), 1)
		if cx < cy {
			cx, cy = cy, cx
		}
		return CostFor(cx) <= CostFor(cy)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConfidenceBoundsProperty(t *testing.T) {
	a, b := twoRelations()
	for _, m := range MatchRelations(a, b, 0) {
		if m.Confidence < 0 || m.Confidence > 1.0001 {
			t.Errorf("confidence out of range: %+v", m)
		}
		for _, s := range []float64{m.Why.Name, m.Why.Overlap, m.Why.Shape} {
			if s < 0 || s > 1.0001 {
				t.Errorf("signal out of range: %+v", m.Why)
			}
		}
	}
}

// TestShapeSimDeterministicAndClamped: disjoint shape distributions whose
// masses do not sum exactly to 1 in floating point score exactly 0 on
// every call, whatever order the maps iterate in.
func TestShapeSimDeterministicAndClamped(t *testing.T) {
	a := map[string]float64{"Aa": 0.1, "A a": 0.2, "9-9": 0.7, "a.": 1.0 / 3}
	b := map[string]float64{"9": 0.3, "Aa9": 0.3, "a a a": 0.4, "A": 2.0 / 3}
	first := shapeSim(a, b)
	if first < 0 || first > 1 {
		t.Fatalf("shapeSim = %v, want within [0, 1]", first)
	}
	for i := 0; i < 200; i++ {
		if got := shapeSim(a, b); math.Float64bits(got) != math.Float64bits(first) {
			t.Fatalf("shapeSim varies between calls: %v then %v", first, got)
		}
	}
	if s := shapeSim(a, a); s != 1 {
		t.Errorf("shapeSim of a distribution with itself = %v, want 1", s)
	}
}

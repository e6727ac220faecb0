package catalog

import (
	"sync"
	"testing"

	"copycat/internal/engine"
	"copycat/internal/table"
)

type fakeSvc struct{}

func (fakeSvc) Name() string               { return "Geocoder" }
func (fakeSvc) InputSchema() table.Schema  { return table.NewSchema("Street", "City") }
func (fakeSvc) OutputSchema() table.Schema { return table.NewSchema("Lat", "Lon") }
func (fakeSvc) Call(table.Tuple) ([]table.Tuple, error) {
	return []table.Tuple{{table.N(26.2), table.N(-80.1)}}, nil
}

func rel() *table.Relation {
	r := table.NewRelation("Shelters", table.NewSchema("Name", "City"))
	r.MustAppend(table.FromStrings([]string{"North High", "Coconut Creek"}))
	return r
}

func TestAddRelationAndGet(t *testing.T) {
	c := New()
	s := c.AddRelation(rel(), "http://tv/shelters")
	if c.Get("Shelters") != s || c.Get("Nope") != nil {
		t.Error("Get wrong")
	}
	if s.Kind != KindRelation || s.Kind.String() != "relation" {
		t.Error("relation kind wrong")
	}
	if s.Inputs != 0 || len(s.InputSchema()) != 0 {
		t.Error("relation should have no inputs")
	}
	if !s.OutputSchema().Equal(rel().Schema) {
		t.Error("relation output schema is full schema")
	}
	plan, err := s.Scan()
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Execute(engine.Background())
	if err != nil || len(res.Rows) != 1 {
		t.Error("scan failed")
	}
}

func TestAddServiceSchemas(t *testing.T) {
	c := New()
	s := c.AddService(fakeSvc{}, "builtin")
	if s.Kind != KindService || s.Kind.String() != "service" {
		t.Error("service kind wrong")
	}
	if s.Inputs != 2 {
		t.Errorf("inputs = %d", s.Inputs)
	}
	if !s.InputSchema().Equal(table.NewSchema("Street", "City")) {
		t.Errorf("input schema = %s", s.InputSchema())
	}
	if !s.OutputSchema().Equal(table.NewSchema("Lat", "Lon")) {
		t.Errorf("output schema = %s", s.OutputSchema())
	}
	if len(s.Schema) != 4 {
		t.Errorf("full schema = %s", s.Schema)
	}
	if _, err := s.Scan(); err == nil {
		t.Error("service should not be scannable")
	}
}

func TestNamesAllLenRemove(t *testing.T) {
	c := New()
	c.AddRelation(rel(), "x")
	c.AddService(fakeSvc{}, "builtin")
	names := c.Names()
	if len(names) != 2 || names[0] != "Geocoder" || names[1] != "Shelters" {
		t.Errorf("Names = %v", names)
	}
	if len(c.All()) != 2 || c.Len() != 2 {
		t.Error("All/Len wrong")
	}
	if !c.Remove("Geocoder") || c.Remove("Geocoder") {
		t.Error("Remove wrong")
	}
	if c.Len() != 1 {
		t.Error("Len after remove wrong")
	}
}

func TestSetSemType(t *testing.T) {
	c := New()
	c.AddRelation(rel(), "x")
	if err := c.SetSemType("Shelters", "City", "PR-City"); err != nil {
		t.Fatal(err)
	}
	s := c.Get("Shelters")
	if s.Schema[1].SemType != "PR-City" {
		t.Error("semtype not set on catalog schema")
	}
	if s.Rel.Schema[1].SemType != "PR-City" {
		t.Error("semtype not propagated to relation schema")
	}
	if err := c.SetSemType("Nope", "City", "t"); err == nil {
		t.Error("missing source should error")
	}
	if err := c.SetSemType("Shelters", "Nope", "t"); err == nil {
		t.Error("missing column should error")
	}
}

func TestAddKey(t *testing.T) {
	c := New()
	c.AddRelation(rel(), "x")
	if err := c.AddKey("Shelters", "City", "Contacts", "City"); err != nil {
		t.Fatal(err)
	}
	if c.Get("Shelters").Keys["City"] != "Contacts.City" {
		t.Error("key not recorded")
	}
	if err := c.AddKey("Nope", "City", "C", "C"); err == nil {
		t.Error("missing source should error")
	}
	if err := c.AddKey("Shelters", "Nope", "C", "C"); err == nil {
		t.Error("missing column should error")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := table.NewRelation("R", table.NewSchema("A"))
			c.AddRelation(r, "x")
			c.Get("R")
			c.Names()
			c.Len()
		}(i)
	}
	wg.Wait()
	if c.Len() != 1 {
		t.Error("concurrent adds of same name should collapse")
	}
}

package copycat

// Cross-module integration tests: full SCP sessions exercising several
// subsystems together, session persistence, failure injection on
// services, and the mediated-view lifecycle.

import (
	"errors"
	"strings"
	"testing"

	"copycat/internal/provenance"
	"copycat/internal/table"
	"copycat/internal/workspace"
)

// importShelters drives a demo system through the standard import.
func importShelters(t *testing.T, sys *System, style SiteStyle) {
	t.Helper()
	browser := sys.OpenBrowser(sys.ShelterSite(style))
	if style == StyleForm {
		if err := browser.SubmitForm(0, sys.World.Shelters[0].City); err != nil {
			t.Fatal(err)
		}
	}
	s0, s1 := sys.World.Shelters[0], sys.World.Shelters[1]
	sel, err := browser.CopyRows([][]string{
		{s0.Name, s0.Street, s0.City},
		{s1.Name, s1.Street, s1.City},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Workspace.Paste(sel); err != nil {
		t.Fatal(err)
	}
	sys.Workspace.ExtendAcrossSite()
	if err := sys.Workspace.AcceptRows(); err != nil {
		t.Fatal(err)
	}
}

func TestFullSessionEveryStructuredStyle(t *testing.T) {
	for _, style := range []SiteStyle{StyleTable, StyleList, StyleGrouped, StylePaged, StyleForm} {
		t.Run(style.String(), func(t *testing.T) {
			sys := NewDemoSystem(DefaultWorldConfig())
			importShelters(t, sys, style)
			got := len(sys.Workspace.ActiveTab().ConcreteRows())
			if got != len(sys.World.Shelters) {
				t.Fatalf("imported %d rows want %d", got, len(sys.World.Shelters))
			}
			sys.Workspace.SetMode(ModeIntegration)
			comps := sys.Workspace.RefreshColumnSuggestions()
			if len(comps) == 0 {
				t.Fatal("no completions")
			}
		})
	}
}

func TestSessionPersistenceRoundTrip(t *testing.T) {
	sys := NewDemoSystem(DefaultWorldConfig())
	importShelters(t, sys, StyleTable)
	sys.Workspace.SetMode(ModeIntegration)
	comps := sys.Workspace.RefreshColumnSuggestions()
	if len(comps) < 2 {
		t.Fatal("need completions")
	}
	// Learn something: reject the first completion.
	rejected := comps[0].Edge.ID
	if err := sys.Workspace.RejectColumn(0); err != nil {
		t.Fatal(err)
	}
	data, err := sys.SaveSession()
	if err != nil {
		t.Fatal(err)
	}

	// A fresh system with the same services restores the session. Only
	// the framed payload loads: the raw JSON snapshot inside it does not.
	sys2 := NewDemoSystem(DefaultWorldConfig())
	raw, err := sys.Session.State().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys2.LoadSession(raw); err == nil || !strings.Contains(err.Error(), "not a framed snapshot") {
		t.Fatalf("LoadSession(raw JSON) = %v, want a not-framed error", err)
	}
	if err := sys2.LoadSession(data); err != nil {
		t.Fatal(err)
	}
	src := sys2.Catalog.Get("Sheet1")
	if src == nil || src.Rel.Len() != len(sys.World.Shelters) {
		t.Fatal("imported relation not restored")
	}
	// The learned rejection carried over: the edge stays suppressed.
	e := sys2.Workspace.Int.Graph.Edge(rejected)
	if e == nil {
		t.Fatalf("edge %s not restored", rejected)
	}
	if e.Cost <= 2.0 {
		t.Errorf("rejected edge cost = %f, learning lost", e.Cost)
	}
	// And the restored tab-free workspace can still complete columns.
	tab := sys2.Workspace.SelectTab("Restored")
	tab.Schema = src.Schema.Clone()
	for i, row := range src.Rel.Rows {
		tab.Rows = append(tab.Rows, workspace.Row{
			Cells: row,
			Prov:  provenance.Leaf{ID: provenance.BaseID("Sheet1", i), Source: "Sheet1"},
		})
	}
	tab.SourceNode = "Sheet1"
	sys2.Workspace.SetMode(ModeIntegration)
	after := sys2.Workspace.RefreshColumnSuggestions()
	for _, c := range after {
		if c.Edge.ID == rejected {
			t.Error("rejected completion re-proposed after restore")
		}
	}
	if len(after) == 0 {
		t.Error("no completions after restore")
	}
}

// flakyService fails the first N calls, then recovers — injecting the
// "source is down" scenario of §3.2.
type flakyService struct {
	inner Service
	fails int
	calls int
}

func (f *flakyService) Name() string               { return f.inner.Name() }
func (f *flakyService) InputSchema() table.Schema  { return f.inner.InputSchema() }
func (f *flakyService) OutputSchema() table.Schema { return f.inner.OutputSchema() }
func (f *flakyService) Call(in table.Tuple) ([]table.Tuple, error) {
	f.calls++
	if f.calls <= f.fails {
		return nil, errors.New("503 service unavailable")
	}
	return f.inner.Call(in)
}

func TestFailingServiceDegradesGracefully(t *testing.T) {
	sys := NewDemoSystem(DefaultWorldConfig())
	// Replace the zip resolver with a permanently failing one.
	orig := sys.Catalog.Get("Zipcode Resolver")
	sys.RegisterService(&flakyService{inner: orig.Svc, fails: 1 << 30}, "flaky")
	importShelters(t, sys, StyleTable)
	sys.Workspace.SetMode(ModeIntegration)
	comps := sys.Workspace.RefreshColumnSuggestions()
	// The zip completion silently drops out (its plan errors); other
	// completions survive.
	for _, c := range comps {
		if c.Target == "Zipcode Resolver" {
			t.Error("failing service should not produce a completion")
		}
	}
	foundGeo := false
	for _, c := range comps {
		if c.Target == "Geocoder" {
			foundGeo = true
		}
	}
	if !foundGeo {
		t.Error("healthy services should still complete")
	}
}

func TestRecoveringServiceComesBack(t *testing.T) {
	sys := NewDemoSystem(DefaultWorldConfig())
	orig := sys.Catalog.Get("Zipcode Resolver")
	flaky := &flakyService{inner: orig.Svc, fails: 1}
	sys.RegisterService(flaky, "flaky")
	importShelters(t, sys, StyleTable)
	sys.Workspace.SetMode(ModeIntegration)
	// First refresh: the first call fails, so the zip completion is out.
	first := sys.Workspace.RefreshColumnSuggestions()
	hasZip := func(comps []string) bool {
		for _, c := range comps {
			if c == "Zipcode Resolver" {
				return true
			}
		}
		return false
	}
	_ = first
	// Second refresh: the service recovered.
	second := sys.Workspace.RefreshColumnSuggestions()
	var targets []string
	for _, c := range second {
		targets = append(targets, c.Target)
	}
	if !hasZip(targets) {
		t.Errorf("recovered service should be proposed again: %v", targets)
	}
}

func TestProvenanceThreadsThroughWholePipeline(t *testing.T) {
	sys := NewDemoSystem(DefaultWorldConfig())
	importShelters(t, sys, StyleTable)
	sys.Workspace.SetMode(ModeIntegration)
	for _, target := range []string{"Zipcode Resolver", "Geocoder"} {
		comps := sys.Workspace.RefreshColumnSuggestions()
		for i, c := range comps {
			if c.Target == target {
				if err := sys.Workspace.AcceptColumn(i); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
	}
	expl, err := sys.Workspace.ExplainRow(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Sheet1", "Zipcode Resolver", "Geocoder", "joined from"} {
		if !strings.Contains(expl, want) {
			t.Errorf("explanation missing %q:\n%s", want, expl)
		}
	}
}

func TestExportsAfterFullPipeline(t *testing.T) {
	sys := NewDemoSystem(DefaultWorldConfig())
	importShelters(t, sys, StyleTable)
	sys.Workspace.SetMode(ModeIntegration)
	comps := sys.Workspace.RefreshColumnSuggestions()
	for i, c := range comps {
		if c.Target == "Geocoder" {
			if err := sys.Workspace.AcceptColumn(i); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	rel := sys.Workspace.ActiveTab().Relation()
	for name, f := range map[string]func(*Relation) (string, error){
		"geojson": GeoJSON, "kml": KML,
	} {
		out, err := f(rel)
		if err != nil || len(out) < 100 {
			t.Errorf("%s export failed: %v", name, err)
		}
	}
	if len(XML(rel)) < 100 || len(CSV(rel)) < 100 {
		t.Error("xml/csv exports too small")
	}
}

func TestProseStyleEndToEnd(t *testing.T) {
	// The hardest page class run through the public API: several pastes
	// are needed before the generalization is complete.
	sys := NewDemoSystem(DefaultWorldConfig())
	browser := sys.OpenBrowser(sys.ShelterSite(StyleProse))
	w := sys.World
	for i := 0; i < 8; i++ {
		s := w.Shelters[i]
		sel, err := browser.CopyRows([][]string{{s.Name, s.Street, s.City}})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Workspace.Paste(sel); err != nil {
			t.Fatal(err)
		}
	}
	info := sys.Workspace.RowSuggestions()
	if info.Count < len(w.Shelters)-8-3 {
		t.Errorf("prose suggestions = %d (want most of the %d remaining)", info.Count, len(w.Shelters)-8)
	}
	if !strings.Contains(info.Description, "sequential covering") {
		t.Errorf("prose should use the fallback extractor: %s", info.Description)
	}
}

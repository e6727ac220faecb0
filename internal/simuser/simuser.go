// Package simuser provides scripted integrators that drive the workspace
// the way the paper's demo user does, so the evaluation claims can be
// measured: the keystroke-savings comparison (E1, the Karma "~75% of
// keystrokes" claim), the feedback-convergence measurements (E2, "as
// little as one item of feedback for a single query, and feedback on 10
// queries to learn rankings for an entire family"), and the
// examples-vs-page-complexity curve (E3).
package simuser

import (
	"fmt"

	"copycat/internal/catalog"
	"copycat/internal/docmodel"
	"copycat/internal/intlearn"
	"copycat/internal/modellearn"
	"copycat/internal/services"
	"copycat/internal/sourcegraph"
	"copycat/internal/structlearn"
	"copycat/internal/table"
	"copycat/internal/webworld"
	"copycat/internal/workspace"
	"copycat/internal/wrappers"
)

// Env is a ready-to-drive CopyCat installation over a synthetic world.
type Env struct {
	World *webworld.World
	WS    *workspace.Workspace
	Brows *wrappers.Browser
}

// NewEnv builds a workspace with builtin services and trained types, plus
// a browser on the shelter site in the given style.
func NewEnv(w *webworld.World, style webworld.SiteStyle) *Env {
	cat := catalog.New()
	for _, svc := range services.Builtin(w) {
		cat.AddService(svc, "builtin")
	}
	types := modellearn.NewLibrary()
	modellearn.TrainBuiltins(types, w)
	ws := workspace.New(cat, types)
	return &Env{
		World: w,
		WS:    ws,
		Brows: wrappers.NewBrowser(ws.Clip, w.ShelterSite(style)),
	}
}

// ImportShelters drives the standard two-shelter import into an
// arbitrary workspace: paste two shelter rows from the site in the
// given style, extend across the site, accept the generalized rows, and
// switch to integration mode — leaving the workspace one
// RefreshColumnSuggestions call away from column proposals. It is the
// per-session body of the multi-tenant capacity experiments: every
// hosted session runs this once after creation.
func ImportShelters(ws *workspace.Workspace, w *webworld.World, style webworld.SiteStyle) error {
	brows := wrappers.NewBrowser(ws.Clip, w.ShelterSite(style))
	s0, s1 := w.Shelters[0], w.Shelters[1]
	if style == webworld.StyleForm {
		if err := brows.SubmitForm(0, s0.City); err != nil {
			return err
		}
	}
	sel, err := brows.CopyRows([][]string{
		{s0.Name, s0.Street, s0.City},
		{s1.Name, s1.Street, s1.City},
	})
	if err != nil {
		return err
	}
	if err := ws.Paste(sel); err != nil {
		return err
	}
	ws.ExtendAcrossSite()
	if ws.RowSuggestions().Count == 0 {
		return fmt.Errorf("simuser: no row suggestions (style %s)", style)
	}
	if err := ws.AcceptRows(); err != nil {
		return err
	}
	ws.SetMode(workspace.ModeIntegration)
	return nil
}

// TaskResult reports the E1 comparison for one scripted session.
type TaskResult struct {
	SCPKeystrokes    int
	ManualTyping     int     // keystrokes to hand-type the final table
	ManualCopyPaste  int     // keystrokes to copy-paste every cell by hand
	Rows, Cols       int     // final table dimensions
	SavingsVsTyping  float64 // 1 − SCP/ManualTyping
	SavingsVsCopying float64 // 1 − SCP/ManualCopyPaste
}

// RunShelterTask drives the full §8 demo with SCP assistance: paste two
// shelters, accept the generalized rows, accept the Zip column, accept
// the Geocoder columns — then compares the recorded keystrokes against
// the manual baselines for producing the same final table.
func RunShelterTask(w *webworld.World, style webworld.SiteStyle) (*TaskResult, error) {
	e := NewEnv(w, style)
	s0, s1 := w.Shelters[0], w.Shelters[1]
	if style == webworld.StyleForm {
		// Form-gated site: the user first searches for the city whose
		// shelters they are copying.
		if err := e.Brows.SubmitForm(0, s0.City); err != nil {
			return nil, err
		}
	}
	sel, err := e.Brows.CopyRows([][]string{
		{s0.Name, s0.Street, s0.City},
		{s1.Name, s1.Street, s1.City},
	})
	if err != nil {
		return nil, err
	}
	if err := e.WS.Paste(sel); err != nil {
		return nil, err
	}
	e.WS.ExtendAcrossSite() // no-op for single-page styles
	if e.WS.RowSuggestions().Count == 0 {
		return nil, fmt.Errorf("simuser: no row suggestions (style %s)", style)
	}
	if err := e.WS.AcceptRows(); err != nil {
		return nil, err
	}
	e.WS.SetMode(workspace.ModeIntegration)
	if err := acceptCompletionTo(e.WS, "Zipcode Resolver"); err != nil {
		return nil, err
	}
	if err := acceptCompletionTo(e.WS, "Geocoder"); err != nil {
		return nil, err
	}

	tab := e.WS.ActiveTab()
	final := tab.Relation()
	var cells [][]string
	for _, r := range final.Rows {
		cells = append(cells, r.Texts())
	}
	res := &TaskResult{
		SCPKeystrokes:   e.WS.Keys.Keystrokes,
		ManualTyping:    workspace.ManualCost(cells),
		ManualCopyPaste: workspace.ManualCopyPasteCost(cells),
		Rows:            final.Len(),
		Cols:            len(final.Schema),
	}
	if res.ManualTyping > 0 {
		res.SavingsVsTyping = 1 - float64(res.SCPKeystrokes)/float64(res.ManualTyping)
	}
	if res.ManualCopyPaste > 0 {
		res.SavingsVsCopying = 1 - float64(res.SCPKeystrokes)/float64(res.ManualCopyPaste)
	}
	return res, nil
}

func acceptCompletionTo(ws *workspace.Workspace, target string) error {
	comps := ws.RefreshColumnSuggestions()
	for i, c := range comps {
		if c.Target == target {
			return ws.AcceptColumn(i)
		}
	}
	return fmt.Errorf("simuser: no completion to %q among %d proposals", target, len(comps))
}

// ExamplesNeeded measures the E3 curve point for one site style: how many
// example rows must be pasted (worst-case order: same-city examples
// first) before the structure learner's current hypothesis — extended
// across the site — extracts exactly the ground-truth shelter rows. It
// returns (count, true) or (max, false) when max examples do not suffice.
func ExamplesNeeded(w *webworld.World, style webworld.SiteStyle, max int) (int, bool) {
	site := w.ShelterSite(style)
	// Ground truth rows, normalized.
	truth := map[string]bool{}
	for _, s := range w.Shelters {
		truth[s.Name+"\x1f"+s.Street+"\x1f"+s.City] = true
	}
	// Pick the page the user starts on: the root, or the first city's
	// search results for form-gated sites.
	doc := site.RootPage()
	if style == webworld.StyleForm {
		doc = site.Get(site.Forms[0].Action + w.Cities[0].Name)
	}
	var lrn *structlearn.Learner
	for n := 1; n <= max; n++ {
		s := w.Shelters[n-1]
		sel := docmodel.Selection{
			Cells: [][]string{{s.Name, s.Street, s.City}},
			Doc:   doc, Site: site,
		}
		var err error
		if lrn == nil {
			lrn, err = structlearn.NewLearner(sel)
		} else {
			err = lrn.AddExamples(sel)
		}
		if err != nil {
			continue
		}
		lrn.ExtendCurrentAcrossSite()
		h := lrn.Current()
		if h == nil {
			continue
		}
		if rowsMatchTruth(h.Rows, truth) {
			return n, true
		}
	}
	return max, false
}

func rowsMatchTruth(rows [][]string, truth map[string]bool) bool {
	if len(rows) != len(truth) {
		return false
	}
	seen := map[string]bool{}
	for _, r := range rows {
		if len(r) != 3 {
			return false
		}
		k := r[0] + "\x1f" + r[1] + "\x1f" + r[2]
		if !truth[k] {
			return false
		}
		seen[k] = true
	}
	return len(seen) == len(truth)
}

// ---------------------------------------------------------------- E2: convergence

// Family is a synthetic query family in the style of the Q system's
// biology workloads ([34]): n "entity" sources S1..Sn each reach the
// target T through a preferred hub (a curated service A) or a
// dispreferred hub (a stale mirror B). Edges to each hub are per-source;
// the hub→target edges are shared — so feedback about a few sources
// generalizes to the whole family.
type Family struct {
	Learner *intlearn.Learner
	Sources []string
	Target  string
	GoodHub string
	BadHub  string
}

// BuildFamily constructs the family graph with n entity sources.
func BuildFamily(n int) *Family {
	cat := catalog.New()
	mk := func(name string) {
		rel := table.NewRelation(name, table.NewSchema("K"))
		rel.MustAppend(table.Tuple{table.S(name + "-row")})
		cat.AddRelation(rel, "synthetic")
	}
	mk("T")
	mk("HubA")
	mk("HubB")
	var sources []string
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("S%02d", i)
		mk(name)
		sources = append(sources, name)
	}
	// The stale mirror initially looks cheaper than the curated hub: its
	// shared hub→target edge costs 0.8, and its per-source edges spread
	// from very attractive (0.5) toward neutral — so before any feedback
	// every query prefers the wrong route, and each feedback item shifts
	// the shared edges a little, flipping easy family members first.
	g := sourcegraph.New(cat)
	for i, s := range sources {
		g.AddEdge(sourcegraph.Edge{From: s, To: "HubA", Kind: sourcegraph.KindJoin, FromCols: []string{"K"}, ToCols: []string{"K"}})
		badCost := 0.5
		if n > 1 {
			badCost = 0.5 + 0.45*float64(i)/float64(n-1)
		}
		g.AddEdge(sourcegraph.Edge{From: s, To: "HubB", Kind: sourcegraph.KindJoin, FromCols: []string{"K"}, ToCols: []string{"K"}, Cost: badCost})
	}
	g.AddEdge(sourcegraph.Edge{From: "HubA", To: "T", Kind: sourcegraph.KindJoin, FromCols: []string{"K"}, ToCols: []string{"K"}})
	g.AddEdge(sourcegraph.Edge{From: "HubB", To: "T", Kind: sourcegraph.KindJoin, FromCols: []string{"K"}, ToCols: []string{"K"}, Cost: 0.8})
	return &Family{
		Learner: intlearn.New(g),
		Sources: sources,
		Target:  "T",
		GoodHub: "HubA",
		BadHub:  "HubB",
	}
}

// prefersGood reports whether the top query for source s routes through
// the preferred hub.
func (f *Family) prefersGood(s string) (bool, error) {
	qs, err := f.Learner.TopQueriesCtx(nil, []string{s, f.Target}, 1)
	if err != nil || len(qs) == 0 {
		return false, fmt.Errorf("simuser: no query for %s: %v", s, err)
	}
	for _, n := range qs[0].Nodes {
		if n == f.GoodHub {
			return true, nil
		}
	}
	return false, nil
}

// TrainOn gives one feedback item for source s: among the top-2 queries,
// the good-hub route is accepted over the bad-hub route. It returns
// whether an update occurred.
func (f *Family) TrainOn(s string) (bool, error) {
	qs, err := f.Learner.TopQueriesCtx(nil, []string{s, f.Target}, 2)
	if err != nil || len(qs) == 0 {
		return false, fmt.Errorf("simuser: no queries for %s: %v", s, err)
	}
	var good *intlearn.Query
	var others []*intlearn.Query
	for _, q := range qs {
		viaGood := false
		for _, n := range q.Nodes {
			if n == f.GoodHub {
				viaGood = true
			}
		}
		if viaGood && good == nil {
			good = q
		} else {
			others = append(others, q)
		}
	}
	if good == nil {
		return false, fmt.Errorf("simuser: good route not among top queries for %s", s)
	}
	return f.Learner.AcceptQuery(good, others) > 0, nil
}

// FamilyAccuracy is the fraction of the given sources whose top query
// routes through the preferred hub.
func (f *Family) FamilyAccuracy(sources []string) (float64, error) {
	if len(sources) == 0 {
		return 0, nil
	}
	ok := 0
	for _, s := range sources {
		good, err := f.prefersGood(s)
		if err != nil {
			return 0, err
		}
		if good {
			ok++
		}
	}
	return float64(ok) / float64(len(sources)), nil
}

// ConvergenceResult reports the E2 measurements.
type ConvergenceResult struct {
	SingleQueryFeedback int     // feedback items until one query pair is fixed
	TrainedOn           int     // queries trained for the family measurement
	FamilyAccuracy      float64 // accuracy on held-out family members
}

// MeasureConvergence runs the E2 protocol: (1) fix a single query's
// ranking, counting feedback items; (2) train on trainN family members
// and measure accuracy on the rest.
func MeasureConvergence(familySize, trainN int) (*ConvergenceResult, error) {
	f := BuildFamily(familySize)
	res := &ConvergenceResult{TrainedOn: trainN}
	// (1) single-query convergence.
	s := f.Sources[0]
	for rounds := 1; rounds <= 10; rounds++ {
		if _, err := f.TrainOn(s); err != nil {
			return nil, err
		}
		good, err := f.prefersGood(s)
		if err != nil {
			return nil, err
		}
		if good {
			res.SingleQueryFeedback = rounds
			break
		}
	}
	if res.SingleQueryFeedback == 0 {
		return nil, fmt.Errorf("simuser: single query did not converge in 10 rounds")
	}
	// (2) family generalization on a fresh family.
	f = BuildFamily(familySize)
	if trainN > len(f.Sources) {
		trainN = len(f.Sources)
	}
	for i := 0; i < trainN; i++ {
		if _, err := f.TrainOn(f.Sources[i]); err != nil {
			return nil, err
		}
	}
	acc, err := f.FamilyAccuracy(f.Sources[trainN:])
	if err != nil {
		return nil, err
	}
	res.FamilyAccuracy = acc
	return res, nil
}

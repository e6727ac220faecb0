package main

import (
	"fmt"
	"math/rand"
	"time"

	"copycat"
	"copycat/internal/docmodel"
	"copycat/internal/engine"
	"copycat/internal/intlearn"
	"copycat/internal/session"
	"copycat/internal/webworld"
	"copycat/internal/workspace"
	"copycat/internal/wrappers"
)

// analystRounds is the number of ranking-feedback rounds per operation,
// each followed by a warm refresh.
const analystRounds = 5

// analystTwinEvery is how often (in operations) the warm suggestion
// lists are compared against a twin session without a plan cache; the
// twin repeats the whole import, so checking every operation would
// double the run's wall time. It is coprime with len(analystStyles), so
// the checked operations rotate through every site style.
const analystTwinEvery = 7

// zipTarget is the column the §8 user accepts.
const zipTarget = "Zipcode Resolver"

var analystStyles = []webworld.SiteStyle{
	webworld.StyleTable, webworld.StyleList, webworld.StyleGrouped, webworld.StylePaged, webworld.StyleForm,
}

// analyst is the §8 task end to end on the 1x demo world: a fresh session
// per operation from one shared demo factory.
type analyst struct {
	world    *webworld.World
	factory  session.Factory
	sites    map[webworld.SiteStyle]*docmodel.Site
	contacts *docmodel.Document
	style0   int
	zips     map[[2]string]string // (street, city) → zip
	orgOf    map[string]string    // shelter name → its contact's organization
}

func (a *analyst) clients() int { return 1 }

func (a *analyst) setup(seed int64) error {
	cfg := copycat.DefaultWorldConfig()
	a.factory = copycat.DemoFactory(cfg)
	a.world = webworld.Generate(cfg)
	a.sites = map[webworld.SiteStyle]*docmodel.Site{}
	for _, st := range analystStyles {
		a.sites[st] = a.world.ShelterSite(st)
	}
	a.contacts = a.world.ContactsSpreadsheet()
	a.style0 = int(uint64(seed) % uint64(len(analystStyles)))
	a.zips = map[[2]string]string{}
	a.orgOf = map[string]string{}
	for _, s := range a.world.Shelters {
		a.zips[[2]string{s.Street, s.City}] = s.Zip
	}
	for _, ct := range a.world.Contacts {
		a.orgOf[a.world.Shelters[ct.ShelterID].Name] = ct.Org
	}
	// One operation, checks included, before timing: the first session
	// pays one-time costs (lazy initialization, first page faults) that
	// later sessions do not.
	warm := &client{rng: rand.New(rand.NewSource(seed)),
		lat: map[string][]time.Duration{}, sum: map[string]float64{}, cnt: map[string]int{}}
	if err := a.op(warm); err != nil {
		return fmt.Errorf("warm-up operation: %w", err)
	}
	return nil
}

// importAll runs the import half of the task on ws: two shelters from
// the site in the given style, generalized across it, then the contacts
// sheet, ending in integration mode on the shelter tab. The examples are
// the §8 demo's — the first two shelters and the first two contact rows —
// whatever the seed: the model learner mistypes some other example pairs
// (see CHANGES.md), which would fail operations on some seeds only.
func (a *analyst) importAll(c *client, ws *workspace.Workspace, style webworld.SiteStyle) error {
	s0, s1 := a.world.Shelters[0], a.world.Shelters[1]
	sp := c.begin("wrappers", "copy")
	br := wrappers.NewBrowser(ws.Clip, a.sites[style])
	if style == webworld.StyleForm {
		if err := br.SubmitForm(0, s0.City); err != nil {
			return err
		}
	}
	sel, err := br.CopyRows([][]string{
		{s0.Name, s0.Street, s0.City},
		{s1.Name, s1.Street, s1.City},
	})
	copyD := sp.end()
	if err != nil {
		return err
	}
	sp = c.begin("workspace", "paste")
	err = ws.Paste(sel)
	c.observe("paste", copyD+sp.end())
	if err != nil {
		return err
	}
	if c.traced() {
		c.add("structlearn.hypotheses", float64(ws.RowSuggestions().Alternatives))
	}
	sp = c.begin("structlearn", "extend")
	ws.ExtendAcrossSite()
	sp.end()
	sp = c.begin("workspace", "accept_rows")
	err = ws.AcceptRows()
	sp.end()
	if err != nil {
		return fmt.Errorf("%s site: accept rows: %w", style, err)
	}

	ws.SelectTab("Contacts")
	ws.SetMode(workspace.ModeImport)
	sp = c.begin("wrappers", "copy")
	sheet := wrappers.NewSpreadsheet(ws.Clip, a.contacts)
	sel, err = sheet.CopyRange(1, 0, 2, len(a.contacts.Grid()[0])-1)
	copyD = sp.end()
	if err != nil {
		return err
	}
	sp = c.begin("workspace", "paste")
	err = ws.Paste(sel)
	c.observe("paste", copyD+sp.end())
	if err != nil {
		return err
	}
	sp = c.begin("workspace", "accept_rows")
	err = ws.AcceptRows()
	sp.end()
	if err != nil {
		return fmt.Errorf("contacts: accept rows: %w", err)
	}
	ws.SelectTab("Sheet1")
	ws.SetMode(workspace.ModeIntegration)
	return nil
}

// op is one analyst session: import, cold refresh, ranking feedback with
// warm refreshes, accept the Zip column, then an integration paste whose
// top query is accepted.
func (a *analyst) op(c *client) error {
	style := analystStyles[(a.style0+c.ops)%len(analystStyles)]
	pasted := a.world.Shelters[c.rng.Intn(len(a.world.Shelters))]
	twinCheck := c.ops%analystTwinEvery == 0

	sp := c.begin("session", "factory")
	st, err := a.factory()
	sp.end()
	if err != nil {
		return err
	}
	ws := st.Workspace
	if c.traced() {
		c.tr.follow(ws, c.lane)
		defer c.tr.forget(ws)
	}
	stats0 := ws.ExecStats.Snapshot()
	if err := a.importAll(c, ws, style); err != nil {
		return err
	}
	var bad error
	c.untimed(func() { bad = checkImportedShelters(ws.SelectTab("Sheet1").ConcreteRows(), a.world.Shelters) })
	if bad != nil {
		return fmt.Errorf("%s site: %w", style, bad)
	}

	var twin *workspace.Workspace
	if twinCheck {
		c.untimed(func() {
			tst, err := a.factory()
			if err != nil {
				bad = err
				return
			}
			twin = tst.Workspace
			twin.PlanCache = nil
			// The twin's samples and spans go to a throwaway client.
			quiet := &client{lat: map[string][]time.Duration{}, sum: map[string]float64{}, cnt: map[string]int{}}
			bad = a.importAll(quiet, twin, style)
		})
		if bad != nil {
			return fmt.Errorf("twin: %w", bad)
		}
	}

	var twinComps []intlearn.Completion
	sp = c.begin("workspace", "refresh")
	comps := ws.RefreshColumnSuggestions()
	c.observe("refresh_cold", sp.end())
	c.untimed(func() {
		bad = checkRecordLink(comps)
		if bad == nil && twin != nil {
			twinComps = twin.RefreshColumnSuggestions()
			bad = sameSuggestions(comps, twinComps)
		}
		if bad == nil && c.traced() {
			bad = replayCompletions(c, comps)
		}
	})
	if bad != nil {
		return bad
	}

	for r := 0; r < analystRounds; r++ {
		chosen, alt, ok := pickFeedback(c, comps, r == analystRounds-1)
		if !ok {
			return fmt.Errorf("round %d: no feedback pair among %d suggestions", r, len(comps))
		}
		sp = c.begin("mira", "update")
		ws.Int.AcceptCompletion(chosen, []intlearn.Completion{alt})
		c.observe("feedback", sp.end())
		sp = c.begin("workspace", "refresh")
		comps = ws.RefreshColumnSuggestions()
		c.observe("refresh", sp.end())
		c.untimed(func() {
			bad = checkRanked(comps, chosen.Edge.ID, alt.Edge.ID)
			if bad == nil && twin != nil {
				ci, ai := indexOfEdge(twinComps, chosen.Edge.ID), indexOfEdge(twinComps, alt.Edge.ID)
				if ci < 0 || ai < 0 {
					bad = fmt.Errorf("twin lacks the feedback pair %s / %s", chosen.Edge.ID, alt.Edge.ID)
					return
				}
				twin.Int.AcceptCompletion(twinComps[ci], []intlearn.Completion{twinComps[ai]})
				twinComps = twin.RefreshColumnSuggestions()
				bad = sameSuggestions(comps, twinComps)
			}
		})
		if bad != nil {
			return fmt.Errorf("round %d: %w", r, bad)
		}
	}

	zi := -1
	for i, cp := range comps {
		if cp.Target == zipTarget {
			zi = i
		}
	}
	if zi < 0 {
		return fmt.Errorf("no %s completion after feedback", zipTarget)
	}
	zipCol := comps[zi].NewCols[0].Name
	sp = c.begin("workspace", "accept_column")
	err = ws.AcceptColumn(zi)
	sp.end()
	if err != nil {
		return err
	}
	c.untimed(func() { bad = checkZips(ws.ActiveTab(), zipCol, a.zips) })
	if bad != nil {
		return bad
	}

	// Integration paste: a shelter name next to its contact's
	// organization; CopyCat finds the sources and proposes queries.
	ws.SelectTab("Integration")
	sel := docmodel.Selection{Cells: [][]string{{pasted.Name, a.orgOf[pasted.Name]}}}
	sp = c.begin("workspace", "paste")
	err = ws.Paste(sel)
	c.observe("query", sp.end())
	if err != nil {
		return err
	}
	if c.traced() {
		c.untimed(func() {
			sp := c.replaySpan("workspace", "find_sources")
			terms := ws.FindSourcesOfValues(sel.Flat())
			sp.end()
			bad = replaySteiner(c, ws.Int, terms)
		})
		if bad != nil {
			return bad
		}
	}
	if len(ws.PendingQueries()) == 0 {
		return fmt.Errorf("integration paste of %q: no query suggestions", pasted.Name)
	}
	sp = c.begin("workspace", "accept_query")
	err = ws.AcceptQuery(0)
	sp.end()
	if err != nil {
		return err
	}
	if c.traced() {
		c.untimed(func() { a.layerCounts(c, ws, stats0) })
	}
	return nil
}

// layerCounts adds the per-operation counters of the traced run.
func (a *analyst) layerCounts(c *client, ws *workspace.Workspace, s0 engine.StatsSnapshot) {
	s := ws.ExecStats.Snapshot()
	c.add("intlearn.candidates_run", float64(s.CandidatesRun-s0.CandidatesRun))
	c.add("intlearn.plans_reused", float64(s.PlansReused-s0.PlansReused))
	c.add("intlearn.plans_invalidated", float64(s.PlansInvalidated-s0.PlansInvalidated))
	reg := ws.Metrics
	c.add("intlearn.tier_exact", float64(reg.Counter("solver.tier."+intlearn.TierExact).Load()))
	c.add("intlearn.tier_tiered", float64(reg.Counter("solver.tier."+intlearn.TierHybrid).Load()))
	c.add("intlearn.tier_heuristic", float64(reg.Counter("solver.tier."+intlearn.TierHeuristic).Load()))
	h, m, e := ws.PlanCache.Stats()
	c.add("plancache.hits", float64(h))
	c.add("plancache.lookups", float64(h+m))
	c.add("plancache.evictions", float64(e))
	c.add("mira.weights", float64(len(ws.Int.Mira.Snapshot())))
	c.add("sourcegraph.edges", float64(ws.Int.Graph.Len()))
	c.add("obs.decisions", float64(decisionsRecorded(ws)))
}

// pickFeedback is the user's ranking feedback for one round. In the
// first rounds the user prefers the runner-up service completion over
// the top one; repeated, this swaps the top two back and forth, so no
// weight leaves a bounded band and the Zip completion stays suggested.
// In the last round the user ranks a seeded-random service completion
// above the record-linked contacts. A warm refresh re-runs the candidates
// whose edge weights moved, so exactly one refresh in analystRounds
// re-runs the record link, the costliest candidate, in every operation.
func pickFeedback(c *client, comps []intlearn.Completion, last bool) (chosen, alt intlearn.Completion, ok bool) {
	var services []intlearn.Completion
	link := -1
	for i, cp := range comps {
		if _, isLink := cp.Plan.(*engine.RecordLinkJoin); isLink {
			link = i
		} else {
			services = append(services, cp)
		}
	}
	if last {
		if link < 0 || len(services) == 0 {
			return chosen, alt, false
		}
		return services[c.rng.Intn(len(services))], comps[link], true
	}
	if len(services) < 2 {
		return chosen, alt, false
	}
	return services[1], services[0], true
}

func indexOfEdge(comps []intlearn.Completion, id string) int {
	for i, cp := range comps {
		if cp.Edge.ID == id {
			return i
		}
	}
	return -1
}

func (a *analyst) finish(r *result, traced bool) {}

func (a *analyst) close() {}

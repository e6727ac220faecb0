package copycat

// Equivalence of the feedback path with the algorithm it replaced. A
// subject learner syncs only the weights MIRA wrote, patches its cached
// Steiner graph from the source graph's change log, and prices refined
// queries from a flat weight copy. A twin learner receives the same
// seeded feedback through the oracle below: every call re-syncs the
// whole weight map onto the graph, and every query search compiles the
// Steiner graph from all edges and prices trees from a copy of the
// weight map. After every step the two must agree bit for bit.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"copycat/internal/catalog"
	"copycat/internal/engine"
	"copycat/internal/intlearn"
	"copycat/internal/mira"
	"copycat/internal/plancache"
	"copycat/internal/session"
	"copycat/internal/sourcegraph"
	"copycat/internal/steiner"
	"copycat/internal/table"
	"copycat/internal/webworld"
)

// ---------------------------------------------------------------- oracle

// oracleSync writes every learned weight onto the graph.
func oracleSync(l *intlearn.Learner) {
	for id, w := range l.Mira.Snapshot() {
		l.Graph.SetCost(id, w)
	}
}

func oracleAcceptQuery(l *intlearn.Learner, q *intlearn.Query, alts []*intlearn.Query) {
	for _, alt := range alts {
		l.Mira.Update(mira.Constraint{Preferred: q.EdgeIDs(), Other: alt.EdgeIDs()}, nil)
	}
	oracleSync(l)
}

func oracleRejectQuery(l *intlearn.Learner, q *intlearn.Query) {
	l.Mira.Update(mira.Constraint{Other: q.EdgeIDs(),
		Margin: sourcegraph.SuggestThreshold + mira.DefaultMargin}, nil)
	oracleSync(l)
}

func oracleAcceptCompletion(l *intlearn.Learner, chosen intlearn.Completion, alts []intlearn.Completion) {
	for _, alt := range alts {
		if alt.Edge.ID != chosen.Edge.ID {
			l.Mira.Update(mira.Constraint{Preferred: []string{chosen.Edge.ID}, Other: []string{alt.Edge.ID}}, nil)
		}
	}
	if l.Mira.Weight(chosen.Edge.ID) > sourcegraph.SuggestThreshold {
		l.Mira.Update(mira.Constraint{Preferred: []string{chosen.Edge.ID},
			Margin: -(sourcegraph.SuggestThreshold - mira.DefaultMargin)}, nil)
	}
	oracleSync(l)
}

func oracleRejectCompletion(l *intlearn.Learner, c intlearn.Completion) {
	l.Mira.Update(mira.Constraint{Other: []string{c.Edge.ID},
		Margin: sourcegraph.SuggestThreshold + mira.DefaultMargin}, nil)
	oracleSync(l)
}

func oraclePromote(l *intlearn.Learner, c intlearn.Completion) {
	l.Mira.Update(mira.Constraint{Preferred: []string{c.Edge.ID},
		Margin: -(sourcegraph.DefaultCost - mira.DefaultMargin/2)}, nil)
	oracleSync(l)
}

// oracleTopQueries is the ranking a user sees once any background
// refinement has landed: the exact top-k over a Steiner graph compiled
// from every edge's current weight, each tree priced from a copy of the
// weight map in its edge order.
func oracleTopQueries(l *intlearn.Learner, terminals []string, k int) ([]*intlearn.Query, error) {
	names := l.Graph.Catalog().Names()
	idx := make(map[string]int, len(names))
	for i, n := range names {
		idx[n] = i
	}
	g := steiner.NewGraph(len(names))
	var edges []*sourcegraph.Edge
	for _, e := range l.Graph.Edges() {
		u, okU := idx[e.From]
		v, okV := idx[e.To]
		if okU && okV {
			g.AddEdge(u, v, max(l.Mira.Weight(e.ID), 0))
			edges = append(edges, e)
		}
	}
	var terms []int
	for _, t := range terminals {
		terms = append(terms, idx[t])
	}
	trees, err := steiner.TopKCtx(context.Background(), g, terms, k, steiner.CtxSolver(steiner.ExactCtx), nil)
	if err != nil {
		return nil, err
	}
	weights := l.Mira.Snapshot()
	var out []*intlearn.Query
	for _, tr := range trees {
		q := &intlearn.Query{}
		nodes := map[string]bool{}
		for _, id := range tr.Edges {
			q.Edges = append(q.Edges, edges[id])
		}
		for _, v := range tr.Nodes(g) {
			nodes[names[v]] = true
		}
		for _, t := range terminals {
			nodes[t] = true
		}
		for n := range nodes {
			q.Nodes = append(q.Nodes, n)
		}
		sort.Strings(q.Nodes)
		for _, id := range q.EdgeIDs() {
			if w, ok := weights[id]; ok {
				q.Cost += w
			} else {
				q.Cost += sourcegraph.DefaultCost
			}
		}
		out = append(out, q)
	}
	return out, nil
}

// ---------------------------------------------------------------- comparisons

// sameLearners compares every edge's graph cost, every MIRA weight and
// the graph generation, bit for bit.
func sameLearners(t *testing.T, step string, sub, ref *intlearn.Learner) {
	t.Helper()
	se, re := sub.Graph.Edges(), ref.Graph.Edges()
	if len(se) != len(re) {
		t.Fatalf("%s: %d edges, oracle %d", step, len(se), len(re))
	}
	for i := range se {
		if se[i].ID != re[i].ID || math.Float64bits(se[i].Cost) != math.Float64bits(re[i].Cost) {
			t.Fatalf("%s: edge %s cost %v, oracle %s cost %v", step, se[i].ID, se[i].Cost, re[i].ID, re[i].Cost)
		}
	}
	sw, rw := sub.Mira.Snapshot(), ref.Mira.Snapshot()
	if len(sw) != len(rw) {
		t.Fatalf("%s: %d learned weights, oracle %d", step, len(sw), len(rw))
	}
	for id, w := range rw {
		if got, ok := sw[id]; !ok || math.Float64bits(got) != math.Float64bits(w) {
			t.Fatalf("%s: weight %s = %v, oracle %v", step, id, got, w)
		}
	}
	if sg, rg := sub.Graph.Generation(), ref.Graph.Generation(); sg != rg {
		t.Fatalf("%s: graph generation %d, oracle %d", step, sg, rg)
	}
}

func sameQueries(t *testing.T, step string, got, want []*intlearn.Query) {
	t.Helper()
	render := func(qs []*intlearn.Query) string {
		var b strings.Builder
		for _, q := range qs {
			fmt.Fprintf(&b, "[%s @%x] ", strings.Join(q.EdgeIDs(), " "), math.Float64bits(q.Cost))
		}
		return b.String()
	}
	if g, w := render(got), render(want); g != w {
		t.Fatalf("%s: queries\n  %s\noracle\n  %s", step, g, w)
	}
}

func sameCompletions(t *testing.T, step string, got, want []intlearn.Completion) {
	t.Helper()
	render := func(cs []intlearn.Completion) string {
		var b strings.Builder
		for _, c := range cs {
			fmt.Fprintf(&b, "[%s→%s @%x rows=%d] ", c.Edge.ID, c.Target, math.Float64bits(c.Cost), len(c.Result.Rows))
		}
		return b.String()
	}
	if g, w := render(got), render(want); g != w {
		t.Fatalf("%s: completions\n  %s\noracle\n  %s", step, g, w)
	}
}

// refinedQueries polls, joins the background refinement and re-polls,
// returning the ranking the plan cache then serves.
func refinedQueries(t *testing.T, l *intlearn.Learner, ec *engine.ExecCtx, terms []string) []*intlearn.Query {
	t.Helper()
	if _, err := l.TopQueriesCtx(ec, terms, 3); err != nil {
		t.Fatal(err)
	}
	l.WaitRefines()
	qs, err := l.TopQueriesCtx(ec, terms, 3)
	if err != nil {
		t.Fatal(err)
	}
	return qs
}

func withoutQuery(qs []*intlearn.Query, i int) []*intlearn.Query {
	return append(append([]*intlearn.Query(nil), qs[:i]...), qs[i+1:]...)
}

// ---------------------------------------------------------------- stitch graph

// stitchLearner loads a scaled world's stitching chains as fragment
// sources with the route edges the scale scenario lays out (fresh hops
// 0.6, stale shortcut halves 0.45). The edges of chain skip, if any,
// are left out; addChainEdges adds them later.
func stitchLearner(w *webworld.World, skip int) *intlearn.Learner {
	cat := catalog.New()
	g := sourcegraph.New(cat)
	for i, ch := range w.Chains {
		for _, rel := range append(append([]webworld.ChainRel(nil), ch.Rels...), ch.Decoy) {
			r := table.NewRelation(rel.Name, table.NewSchema(rel.Cols...))
			for _, row := range rel.Rows {
				r.MustAppend(table.FromStrings(row))
			}
			cat.AddRelation(r, "fragment")
		}
		if i != skip {
			addChainEdges(g, ch)
		}
	}
	return intlearn.New(g)
}

// addChainEdges adds one chain's fresh route and stale shortcut,
// returning their edges in that order.
func addChainEdges(g *sourcegraph.Graph, ch webworld.StitchChain) (fresh, stale []*sourcegraph.Edge) {
	for i := 0; i+1 < len(ch.Rels); i++ {
		key := ch.Rels[i].Cols[len(ch.Rels[i].Cols)-1]
		fresh = append(fresh, g.AddEdge(sourcegraph.Edge{From: ch.Rels[i].Name, To: ch.Rels[i+1].Name,
			Kind: sourcegraph.KindJoin, FromCols: []string{key}, ToCols: []string{key}, Cost: 0.6}))
	}
	first, last := ch.Rels[0].Name, ch.Rels[len(ch.Rels)-1].Name
	for _, e := range []sourcegraph.Edge{
		{From: first, To: ch.Decoy.Name, Kind: sourcegraph.KindJoin,
			FromCols: []string{ch.Decoy.Cols[0]}, ToCols: []string{ch.Decoy.Cols[0]}, Cost: 0.45},
		{From: ch.Decoy.Name, To: last, Kind: sourcegraph.KindJoin,
			FromCols: []string{ch.Decoy.Cols[1]}, ToCols: []string{ch.Decoy.Cols[1]}, Cost: 0.45},
	} {
		stale = append(stale, g.AddEdge(e))
	}
	return fresh, stale
}

// reloadStitch rebuilds a learner through a lossy reload: a fresh
// graph, the saved non-default costs re-applied to the edges it has, and
// every saved cost seeded as a MIRA weight, including those of edges the
// new graph lacks. Those weights reach the graph only through the
// structural full sync once the edges are added back.
func reloadStitch(w *webworld.World, old *intlearn.Learner, skip int) *intlearn.Learner {
	floor := old.Mira.MinFloor
	costs := map[string]float64{}
	for _, e := range old.Graph.Edges() {
		if e.Cost != sourcegraph.DefaultCost {
			costs[e.ID] = e.Cost
		}
	}
	l := stitchLearner(w, skip)
	l.Mira.MinFloor = floor
	for id, c := range costs {
		l.Graph.SetCost(id, c)
		l.Mira.SetWeight(id, c)
	}
	return l
}

func stitchCompletions(t *testing.T, l *intlearn.Learner, node string) []intlearn.Completion {
	t.Helper()
	base, err := l.Graph.Catalog().Get(node).Scan()
	if err != nil {
		t.Fatal(err)
	}
	return l.ColumnCompletionsCtx(nil, base, []string{node})
}

// TestFeedbackMatchesFullSyncStitch drives the twin pair over the 10x
// world's stitching chains (tiered search with background refinement),
// through a reload that drops one trained chain's edges and a later
// structural change that adds them back at their initial costs.
func TestFeedbackMatchesFullSyncStitch(t *testing.T) {
	w := webworld.Generate(webworld.ScaledConfig(10))
	const dropped = 0 // the chain whose edges the reload leaves out
	// The weight floor is raised above the default so that feedback
	// steps clamp: a clamped step still writes weights, and those writes
	// must reach the graph.
	const floor = 0.3
	sub, ref := stitchLearner(w, -1), stitchLearner(w, -1)
	sub.Mira.MinFloor, ref.Mira.MinFloor = floor, floor
	ec := engine.NewExecCtx(context.Background(), engine.WithPlanCache(plancache.New(64)))
	rng := rand.New(rand.NewSource(1))
	missing := false
	for step := 0; step < 80; step++ {
		name := fmt.Sprintf("step %d", step)
		switch step {
		case 30: // reload without the dropped chain's edges
			sub, ref = reloadStitch(w, sub, dropped), reloadStitch(w, ref, dropped)
			ec = engine.NewExecCtx(context.Background(), engine.WithPlanCache(plancache.New(64)))
			missing = true
			sameLearners(t, name+" reload", sub, ref)
		case 50: // the edges come back, at their initial costs
			addChainEdges(sub.Graph, w.Chains[dropped])
			addChainEdges(ref.Graph, w.Chains[dropped])
			missing = false
			sameLearners(t, name+" re-add", sub, ref)
		}
		ci := rng.Intn(len(w.Chains))
		train := step == 29 // reject the top query of the chain the reload drops
		if train {
			ci = dropped
		}
		if missing && ci == dropped {
			ci++
		}
		ch := w.Chains[ci]
		first, last := ch.Rels[0].Name, ch.Rels[len(ch.Rels)-1].Name
		terms := []string{first, last}
		if rng.Intn(3) == 0 {
			terms = []string{first, ch.Rels[2].Name}
		}
		subQs := refinedQueries(t, sub, ec, terms)
		refQs, err := oracleTopQueries(ref, terms, 3)
		if err != nil {
			t.Fatal(err)
		}
		sameQueries(t, name, subQs, refQs)
		subCs, refCs := stitchCompletions(t, sub, first), stitchCompletions(t, ref, first)
		sameCompletions(t, name, subCs, refCs)

		op := rng.Intn(5)
		if train {
			op = 1
		}
		switch {
		case op < 2 && len(subQs) > 0:
			i := rng.Intn(len(subQs))
			if train {
				i = 0
			}
			if op == 0 {
				sub.AcceptQuery(subQs[i], withoutQuery(subQs, i))
				oracleAcceptQuery(ref, refQs[i], withoutQuery(refQs, i))
			} else {
				sub.RejectQuery(subQs[i])
				oracleRejectQuery(ref, refQs[i])
			}
		case op >= 2 && len(subCs) > 0:
			i := rng.Intn(len(subCs))
			switch op {
			case 2:
				sub.AcceptCompletion(subCs[i], subCs)
				oracleAcceptCompletion(ref, refCs[i], refCs)
			case 3:
				sub.RejectCompletion(subCs[i])
				oracleRejectCompletion(ref, refCs[i])
			default:
				sub.PromoteCompletion(subCs[i])
				oraclePromote(ref, refCs[i])
			}
		}
		sameLearners(t, name, sub, ref)
	}
	clamped := 0
	for _, w := range sub.Mira.Snapshot() {
		if w == floor {
			clamped++
		}
	}
	if clamped == 0 {
		t.Fatal("no feedback step clamped a weight at the floor")
	}
}

// ---------------------------------------------------------------- demo session

// seedDemo drives a demo system to integration mode: two pasted
// shelters generalized to the table, the contacts sheet imported.
func seedDemo(t *testing.T, sys *System) {
	t.Helper()
	importShelters(t, sys, StyleTable)
	pasteContacts(t, sys, "Contacts", 1, 3)
	sys.Workspace.SelectTab("Sheet1")
	sys.Workspace.SetMode(ModeIntegration)
}

// pasteContacts imports contact-sheet rows [from, to) into a tab.
func pasteContacts(t *testing.T, sys *System, tab string, from, to int) {
	t.Helper()
	doc := sys.World.ContactsSpreadsheet()
	ws := sys.Workspace
	ws.SelectTab(tab)
	if err := ws.Paste(Selection{Cells: doc.Grid()[from:to], Doc: doc}); err != nil {
		t.Fatal(err)
	}
	if err := ws.AcceptRows(); err != nil {
		t.Fatal(err)
	}
}

// reloadDemo evicts and reloads a session: its snapshot restored into a
// fresh demo state.
func reloadDemo(t *testing.T, sys *System) *System {
	t.Helper()
	data, err := sys.Session.State().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	st := newDemoState(sys.World, DefaultWorldConfig())
	if err := st.Restore(data); err != nil {
		t.Fatal(err)
	}
	return systemFor(session.NewStandalone("local", st), sys.World)
}

// TestFeedbackMatchesFullSyncDemo drives the twin pair over the demo
// session (exact search, live column completions, tuple promotion
// through the workspace), through an evict/reload and a paste that
// adds source-graph edges.
func TestFeedbackMatchesFullSyncDemo(t *testing.T) {
	subSys, refSys := NewDemoSystem(DefaultWorldConfig()), NewDemoSystem(DefaultWorldConfig())
	seedDemo(t, subSys)
	seedDemo(t, refSys)
	terms := []string{"Sheet1", "Contacts"}
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 40; step++ {
		name := fmt.Sprintf("step %d", step)
		switch step {
		case 15:
			subSys, refSys = reloadDemo(t, subSys), reloadDemo(t, refSys)
			sameLearners(t, name+" reload", subSys.Workspace.Int, refSys.Workspace.Int)
		case 25:
			before := subSys.Workspace.Int.Graph.Len()
			for _, sys := range []*System{subSys, refSys} {
				sys.Workspace.SetMode(ModeImport)
				pasteContacts(t, sys, "More contacts", 1, 3)
				sys.Workspace.SelectTab("Sheet1")
				sys.Workspace.SetMode(ModeIntegration)
			}
			if subSys.Workspace.Int.Graph.Len() == before {
				t.Fatal("the paste added no source-graph edges")
			}
			sameLearners(t, name+" paste", subSys.Workspace.Int, refSys.Workspace.Int)
		}
		sub, ref := subSys.Workspace.Int, refSys.Workspace.Int
		ec := engine.NewExecCtx(context.Background(), engine.WithPlanCache(subSys.Workspace.PlanCache))
		subQs := refinedQueries(t, sub, ec, terms)
		refQs, err := oracleTopQueries(ref, terms, 3)
		if err != nil {
			t.Fatal(err)
		}
		sameQueries(t, name, subQs, refQs)
		subCs, refCs := subSys.Workspace.RefreshColumnSuggestions(), refSys.Workspace.RefreshColumnSuggestions()
		sameCompletions(t, name, subCs, refCs)

		op := rng.Intn(5)
		switch {
		case op < 2 && len(subQs) > 0:
			i := rng.Intn(len(subQs))
			if op == 0 {
				sub.AcceptQuery(subQs[i], withoutQuery(subQs, i))
				oracleAcceptQuery(ref, refQs[i], withoutQuery(refQs, i))
			} else {
				sub.RejectQuery(subQs[i])
				oracleRejectQuery(ref, refQs[i])
			}
		case op >= 2 && len(subCs) > 0:
			i := rng.Intn(len(subCs))
			switch op {
			case 2:
				sub.AcceptCompletion(subCs[i], subCs)
				oracleAcceptCompletion(ref, refCs[i], refCs)
			case 3:
				sub.RejectCompletion(subCs[i])
				oracleRejectCompletion(ref, refCs[i])
			default:
				if len(subCs[i].Result.Rows) == 0 {
					break
				}
				if err := subSys.Workspace.PromoteSuggestedTuple(i, 0); err != nil {
					t.Fatal(err)
				}
				oraclePromote(ref, refCs[i])
			}
		}
		sameLearners(t, name, sub, ref)
	}
}

// resetRoutes puts a chain's fresh and stale route edges back to their
// initial costs, in both the learner and the graph, as the stitch
// benchmark does between operations.
func resetRoutes(l *intlearn.Learner, fresh, stale *intlearn.Query) {
	for _, r := range []struct {
		q    *intlearn.Query
		cost float64
	}{{fresh, 0.6}, {stale, 0.45}} {
		for _, e := range r.q.Edges {
			l.Mira.SetWeight(e.ID, r.cost)
			l.Graph.SetCost(e.ID, r.cost)
		}
	}
}

// stitchFeedback builds a scaled world's stitch learner and one chain's
// feedback item: its fresh route to accept over its stale shortcut.
func stitchFeedback(scale int) (l *intlearn.Learner, fresh, stale *intlearn.Query, terms []string) {
	w := webworld.Generate(webworld.ScaledConfig(scale))
	l = stitchLearner(w, -1)
	ch := w.Chains[0]
	f, s := addChainEdges(l.Graph, ch) // the existing edges
	return l, &intlearn.Query{Edges: f}, &intlearn.Query{Edges: s},
		[]string{ch.Rels[0].Name, ch.Rels[len(ch.Rels)-1].Name}
}

// TestFeedbackAllocsFlatInWorldSize: accepting a query allocates the
// same on the 10x and the 100x world — feedback costs what it moves,
// not what was ever learned.
func TestFeedbackAllocsFlatInWorldSize(t *testing.T) {
	allocs := func(scale int) float64 {
		l, fresh, stale, _ := stitchFeedback(scale)
		alts := []*intlearn.Query{stale}
		return testing.AllocsPerRun(50, func() {
			resetRoutes(l, fresh, stale)
			if l.AcceptQuery(fresh, alts) != 1 {
				t.Fatal("the feedback item moved no weights")
			}
		})
	}
	if a10, a100 := allocs(10), allocs(100); a10 != a100 {
		t.Fatalf("AcceptQuery allocates %v on the 10x world, %v on the 100x world", a10, a100)
	}
}

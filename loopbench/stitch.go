package main

import (
	"context"
	"fmt"

	"copycat/internal/catalog"
	"copycat/internal/engine"
	"copycat/internal/intlearn"
	"copycat/internal/obs"
	"copycat/internal/plancache"
	"copycat/internal/sourcegraph"
	"copycat/internal/table"
	"copycat/internal/webworld"
)

// stitchScale is the world size: 100x the demo world, 600 stitching
// chains loaded as 4200 fragment sources.
const stitchScale = 100

// stitchK is the suggestion depth the user sees.
const stitchK = 3

// stitchRounds bounds the feedback rounds an operation may take to make
// the fresh route top-1.
const stitchRounds = 4

// Route edge costs as the scale scenario builds them: each fresh hop
// 0.6, each half of the stale shortcut 0.45, so before feedback the
// stale route (0.9) outranks the fresh one (3.0).
const (
	freshHopCost = 0.6
	staleHopCost = 0.45
)

// chainRoutes names a chain's two routes by source-graph edge ids, as
// the world generator lays them out.
type chainRoutes struct {
	city        string
	first, last string
	decoy       string
	fresh       []string // f0→f1 … f4→f5
	stale       []string // f0→stale, stale→f5
}

// stitch is the stitch-100x workload: one user queries SmartInt-style
// fragmented sources on the 100x world, gives feedback until the fresh
// route wins, and runs the accepted query.
type stitch struct {
	world  *webworld.World
	lrn    *intlearn.Learner
	cache  *plancache.Cache
	chains []chainRoutes
	base   map[string]float64 // initial weight of every route edge
	reg    *obs.Registry      // tier counters; set while traced
	rep    *steinerReplay
}

func (s *stitch) clients() int { return 1 }

func (s *stitch) setup(seed int64) error {
	s.world = webworld.Generate(webworld.ScaledConfig(stitchScale))
	cat := catalog.New()
	g := sourcegraph.New(cat)
	s.base = map[string]float64{}
	for _, ch := range s.world.Chains {
		for _, rel := range ch.Rels {
			addRelation(cat, rel, "fragment")
		}
		addRelation(cat, ch.Decoy, "stale-mirror")
		cr := chainRoutes{city: ch.City, first: ch.Rels[0].Name, last: ch.Rels[len(ch.Rels)-1].Name, decoy: ch.Decoy.Name}
		for i := 0; i+1 < len(ch.Rels); i++ {
			key := ch.Rels[i].Cols[len(ch.Rels[i].Cols)-1]
			e := g.AddEdge(sourcegraph.Edge{From: ch.Rels[i].Name, To: ch.Rels[i+1].Name,
				Kind: sourcegraph.KindJoin, FromCols: []string{key}, ToCols: []string{key}, Cost: freshHopCost})
			cr.fresh = append(cr.fresh, e.ID)
			s.base[e.ID] = freshHopCost
		}
		for _, e := range []sourcegraph.Edge{
			{From: cr.first, To: cr.decoy, Kind: sourcegraph.KindJoin,
				FromCols: []string{ch.Decoy.Cols[0]}, ToCols: []string{ch.Decoy.Cols[0]}, Cost: staleHopCost},
			{From: cr.decoy, To: cr.last, Kind: sourcegraph.KindJoin,
				FromCols: []string{ch.Decoy.Cols[1]}, ToCols: []string{ch.Decoy.Cols[1]}, Cost: staleHopCost},
		} {
			added := g.AddEdge(e)
			cr.stale = append(cr.stale, added.ID)
			s.base[added.ID] = staleHopCost
		}
		s.chains = append(s.chains, cr)
	}
	s.lrn = intlearn.New(g)
	s.cache = plancache.New(256)
	// The first search builds the compact graph index; a serving process
	// pays that once, so it belongs to set-up.
	warm := engine.NewExecCtx(context.Background(), engine.WithPlanCache(plancache.New(8)))
	if _, err := s.lrn.TopQueriesCtx(warm, []string{s.chains[0].first, s.chains[0].last}, stitchK); err != nil {
		return err
	}
	s.lrn.WaitRefines()
	return nil
}

func addRelation(cat *catalog.Catalog, rel webworld.ChainRel, origin string) {
	r := table.NewRelation(rel.Name, table.NewSchema(rel.Cols...))
	for _, row := range rel.Rows {
		r.MustAppend(table.FromStrings(row))
	}
	cat.AddRelation(r, origin)
}

func (s *stitch) ec() *engine.ExecCtx {
	opts := []engine.ExecOption{engine.WithPlanCache(s.cache)}
	if s.reg != nil {
		opts = append(opts, engine.WithMetrics(s.reg))
	}
	return engine.NewExecCtx(context.Background(), opts...)
}

// op is one user's task on a seeded-random chain: first answer, refined
// answer, feedback until the fresh route is top-1, then compile and run
// the accepted query. Afterwards the chain's weights return to their
// initial values, so every operation starts from the same untrained
// ranking.
func (s *stitch) op(c *client) error {
	ch := s.chains[c.rng.Intn(len(s.chains))]
	terms := []string{ch.first, ch.last}
	if c.traced() && s.reg == nil {
		s.reg = obs.NewRegistry()
		s.rep = newSteinerReplay(s.lrn)
	}
	tiers := s.tierCounts()
	hits0, miss0, ev0 := s.cache.Stats()
	defer c.untimed(func() { s.restore(ch) })

	sp := c.begin("intlearn", "topqueries")
	first, err := s.lrn.TopQueriesCtx(s.ec(), terms, stitchK)
	c.observe("query", sp.end())
	if err != nil {
		return err
	}
	refined, err := s.refined(c, terms)
	if err != nil {
		return err
	}
	var bad error
	c.untimed(func() {
		bad = checkFirstNotBelowRefined(first, refined)
		if bad == nil {
			bad = s.checkCheaperRoute(ch, refined)
		}
	})
	if bad != nil {
		return bad
	}
	rounds := 0
	for !routeIs(refined[0], ch.fresh) {
		if rounds == stitchRounds {
			return fmt.Errorf("chain %s: fresh route not top-1 after %d feedback rounds", ch.city, rounds)
		}
		rounds++
		sp := c.begin("mira", "update")
		if i := indexOfRoute(refined, ch.fresh); i >= 0 {
			s.lrn.AcceptQuery(refined[i], without(refined, i))
		} else {
			s.lrn.RejectQuery(refined[0])
		}
		c.observe("feedback", sp.end())
		sp = c.begin("intlearn", "topqueries")
		_, err := s.lrn.TopQueriesCtx(s.ec(), terms, stitchK)
		c.observe("refresh", sp.end())
		if err != nil {
			return err
		}
		if refined, err = s.refined(c, terms); err != nil {
			return err
		}
		c.untimed(func() { bad = s.checkCheaperRoute(ch, refined) })
		if bad != nil {
			return bad
		}
	}
	sp = c.begin("intlearn", "compile")
	plan, err := s.lrn.CompileQuery(refined[0])
	sp.end()
	if err != nil {
		return err
	}
	sp = c.begin("engine", "execute")
	res, err := plan.Execute(s.ec())
	sp.end()
	if err != nil {
		return err
	}
	c.untimed(func() {
		bad = checkChainRows(res, s.world.SheltersIn(ch.city))
		if bad == nil && c.traced() {
			st := engine.NewStats()
			if bad = s.rep.solve(c, terms); bad == nil {
				_, bad = replayPlan(c, plan, engine.NewExecCtx(context.Background(), engine.WithStats(st)))
			}
			addEngineCounts(c, st.Snapshot())
			t := s.tierCounts()
			c.add("intlearn.tier_exact", t[0]-tiers[0])
			c.add("intlearn.tier_tiered", t[1]-tiers[1])
			c.add("intlearn.tier_heuristic", t[2]-tiers[2])
			h, m, e := s.cache.Stats()
			c.add("plancache.hits", float64(h-hits0))
			c.add("plancache.lookups", float64(h-hits0+m-miss0))
			c.add("plancache.evictions", float64(e-ev0))
			c.add("mira.weights", float64(len(s.lrn.Mira.Snapshot())))
		}
	})
	return bad
}

// refined joins the background exact refinement and re-polls, which the
// plan cache answers with the refined ranking.
func (s *stitch) refined(c *client, terms []string) ([]*intlearn.Query, error) {
	sp := c.begin("intlearn", "refine_wait")
	s.lrn.WaitRefines()
	c.observe("refine_wait", sp.end())
	qs, err := s.lrn.TopQueriesCtx(s.ec(), terms, stitchK)
	if err == nil && len(qs) == 0 {
		err = fmt.Errorf("no queries for %v", terms)
	}
	return qs, err
}

func (s *stitch) tierCounts() [3]float64 {
	if s.reg == nil {
		return [3]float64{}
	}
	return [3]float64{
		float64(s.reg.Counter("solver.tier." + intlearn.TierExact).Load()),
		float64(s.reg.Counter("solver.tier." + intlearn.TierHybrid).Load()),
		float64(s.reg.Counter("solver.tier." + intlearn.TierHeuristic).Load()),
	}
}

// restore puts a chain's route edges back to their initial weights.
func (s *stitch) restore(ch chainRoutes) {
	for _, ids := range [][]string{ch.fresh, ch.stale} {
		for _, id := range ids {
			s.lrn.Mira.SetWeight(id, s.base[id])
			s.lrn.Graph.SetCost(id, s.base[id])
		}
	}
}

// checkCheaperRoute: the refined top-1 is the cheaper of the chain's two
// routes, each route's cost summed here from the learned edge weights.
func (s *stitch) checkCheaperRoute(ch chainRoutes, refined []*intlearn.Query) error {
	fresh, stale := 0.0, 0.0
	for _, id := range ch.fresh {
		fresh += s.lrn.Mira.Weight(id)
	}
	for _, id := range ch.stale {
		stale += s.lrn.Mira.Weight(id)
	}
	return checkCheaperRoute(refined[0], ch.fresh, ch.stale, fresh, stale)
}

func (s *stitch) finish(r *result, traced bool) {}

func (s *stitch) close() {
	if s.lrn != nil {
		s.lrn.WaitRefines()
	}
}

// routeIs reports whether q is exactly the route made of the edge ids.
func routeIs(q *intlearn.Query, route []string) bool {
	ids := q.EdgeIDs()
	if len(ids) != len(route) {
		return false
	}
	want := map[string]bool{}
	for _, id := range route {
		want[id] = true
	}
	for _, id := range ids {
		if !want[id] {
			return false
		}
	}
	return true
}

func indexOfRoute(qs []*intlearn.Query, route []string) int {
	for i, q := range qs {
		if routeIs(q, route) {
			return i
		}
	}
	return -1
}

func without(qs []*intlearn.Query, i int) []*intlearn.Query {
	out := make([]*intlearn.Query, 0, len(qs)-1)
	out = append(out, qs[:i]...)
	return append(out, qs[i+1:]...)
}

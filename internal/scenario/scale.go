package scenario

import (
	"context"
	"fmt"

	"copycat/internal/catalog"
	"copycat/internal/engine"
	"copycat/internal/intlearn"
	"copycat/internal/plancache"
	"copycat/internal/sourcegraph"
	"copycat/internal/webworld"
)

// scaleChainCities is how many cities' stitching chains the scale
// scenario loads: 8 chains × 7 fragments = 56 sources, past the
// learner's exact-solver threshold, so query search runs on the tiered
// (SPCSH now, exact refine in background) path.
const scaleChainCities = 8

// scaleStitch is the 10x-world scenario: a scaled webworld's stitching
// chains loaded as narrow fragment sources, queried end to end. The
// graph is large enough that TopQueriesCtx answers from the SPCSH heuristic
// and refines exactly in the background; Ranked joins the refinement
// (WaitRefines) and re-polls, so the scored ranking is the one a user
// polling the workspace would eventually see. The decoy shortcut of the
// queried chain is the ground-truth trap, exactly as in the 1x
// SmartInt scenarios.
//
// The scenario owns its plan cache in both warm and cold corpus modes:
// the tiered path needs a cache to publish the background refinement
// into, and using the same private cache either way keeps the
// warm/cold metric cross-check meaningful (the harness still proves the
// *workspace* cache invisible on the other scenarios).
func scaleStitch(cfg Config) Scenario {
	wcfg := webworld.ScaledConfig(10)
	wcfg.Seed = cfg.Seed
	w := webworld.Generate(wcfg)

	cat := catalog.New()
	chains := w.Chains
	if len(chains) > scaleChainCities {
		chains = chains[:scaleChainCities]
	}
	g := sourcegraph.New(cat)
	for _, ch := range chains {
		for _, rel := range ch.Rels {
			addRel(cat, rel.Name, "fragment", rel.Cols, rel.Rows)
		}
		addRel(cat, ch.Decoy.Name, "stale-mirror", ch.Decoy.Cols, ch.Decoy.Rows)
		for i := 0; i+1 < len(ch.Rels); i++ {
			key := ch.Rels[i].Cols[len(ch.Rels[i].Cols)-1]
			g.AddEdge(sourcegraph.Edge{From: ch.Rels[i].Name, To: ch.Rels[i+1].Name,
				Kind: sourcegraph.KindJoin, FromCols: []string{key}, ToCols: []string{key}, Cost: 0.6})
		}
		first, last := ch.Rels[0], ch.Rels[len(ch.Rels)-1]
		g.AddEdge(sourcegraph.Edge{From: first.Name, To: ch.Decoy.Name,
			Kind: sourcegraph.KindJoin, FromCols: []string{ch.Decoy.Cols[0]}, ToCols: []string{ch.Decoy.Cols[0]}, Cost: 0.45})
		g.AddEdge(sourcegraph.Edge{From: ch.Decoy.Name, To: last.Name,
			Kind: sourcegraph.KindJoin, FromCols: []string{ch.Decoy.Cols[1]}, ToCols: []string{ch.Decoy.Cols[1]}, Cost: 0.45})
	}

	target := chains[0]
	lrn := intlearn.New(g)
	cache := plancache.New(64)
	ec := engine.NewExecCtx(context.Background(), engine.WithPlanCache(cache))
	t := &graphTask{
		lrn:       lrn,
		terminals: []string{target.Rels[0].Name, target.Rels[len(target.Rels)-1].Name},
		correct:   func(q *intlearn.Query) bool { return !queryVia(q, target.Decoy.Name) },
	}
	return Scenario{
		Name: "scale-stitch-10x",
		Kind: KindScale,
		Desc: fmt.Sprintf("10x world, %d stitching chains (%d sources): tiered solve of chain %s; decoy = stale shortcut",
			len(chains), len(cat.All()), target.City),
		Relevant: 1,
		Ranked: func(k int) ([]Candidate, error) {
			// First poll answers from the heuristic tier and spawns the
			// exact refinement; join it and re-poll so the graded ranking
			// is the refined one the cache now serves.
			if _, err := lrn.TopQueriesCtx(ec, t.terminals, k); err != nil {
				return nil, err
			}
			lrn.WaitRefines()
			qs, err := lrn.TopQueriesCtx(ec, t.terminals, k)
			if err != nil {
				return nil, err
			}
			t.last = qs
			out := make([]Candidate, len(qs))
			for i, q := range qs {
				out[i] = Candidate{Name: queryName(q), Cost: q.Cost, Correct: t.correct(q)}
			}
			return out, nil
		},
		Feedback: t.feedback,
	}
}

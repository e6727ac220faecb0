package intlearn

import (
	"context"
	"strings"
	"testing"

	"copycat/internal/engine"
	"copycat/internal/obs"
	"copycat/internal/plancache"
)

// TestSolverTierSelection pins the tier policy: exact while both node and
// terminal counts are small, tiered (SPCSH now + background exact) when a
// plan cache can publish the refinement and the problem is still worth an
// exact pass, heuristic otherwise.
func TestSolverTierSelection(t *testing.T) {
	l, _ := setup(t)
	l.MaxExactNodes = 100
	l.TierTerminals = 8
	l.RefineMaxNodes = 5000
	l.RefineMaxTerminals = 10

	cases := []struct {
		name      string
		n, t      int
		canRefine bool
		want      string
	}{
		{"small problem", 50, 3, true, TierExact},
		{"small problem without cache", 50, 3, false, TierExact},
		{"big graph with cache", 1000, 3, true, TierHybrid},
		{"big graph without cache", 1000, 3, false, TierHeuristic},
		{"many terminals, small graph", 50, 9, true, TierHybrid},
		{"beyond refine bounds", 50000, 3, true, TierHeuristic},
		{"too many terminals to refine", 1000, 11, true, TierHeuristic},
	}
	for _, c := range cases {
		if got := l.solverTier(c.n, c.t, c.canRefine); got != c.want {
			t.Errorf("%s: solverTier(%d, %d, %v) = %s want %s", c.name, c.n, c.t, c.canRefine, got, c.want)
		}
	}
}

// TestHybridTierRefinesIntoPlanCache forces the hybrid tier on the demo
// world and checks the full flow: the inline answer comes from SPCSH, the
// background exact refinement lands in the plan cache under the same memo
// key, and a re-poll surfaces the refined (exact) ranking.
func TestHybridTierRefinesIntoPlanCache(t *testing.T) {
	l, _ := setup(t)
	// The demo graph is tiny; force it past the exact threshold.
	l.MaxExactNodes = 1

	cache := plancache.New(64)
	reg := obs.NewRegistry()
	dec := obs.NewDecisionLog(0, nil)
	ec := engine.NewExecCtx(context.Background(),
		engine.WithPlanCache(cache), engine.WithMetrics(reg), engine.WithDecisions(dec))

	terminals := []string{"Shelters", "Contacts"}
	qs, err := l.TopQueriesCtx(ec, terminals, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) == 0 {
		t.Fatal("no queries from the hybrid tier")
	}
	if got := reg.Counter("solver.tier." + TierHybrid).Load(); got != 1 {
		t.Errorf("solver.tier.tiered = %d want 1", got)
	}
	tierLogged := false
	for _, d := range dec.Decisions() {
		if d.Stage == "solver.tier" && d.Reason == TierHybrid {
			tierLogged = true
		}
	}
	if !tierLogged {
		t.Error("tier decision not recorded in the decision log")
	}

	// Join the background exact pass, then re-poll: the refined ranking is
	// served from the cache and must agree with a fresh exact solve.
	l.WaitRefines()
	if got := reg.Counter("solver.refine.completed").Load(); got != 1 {
		t.Fatalf("solver.refine.completed = %d want 1 (failed=%d)",
			got, reg.Counter("solver.refine.failed").Load())
	}
	refined, err := l.TopQueriesCtx(ec, terminals, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(refined) == 0 {
		t.Fatal("no refined queries after WaitRefines")
	}

	exact, _ := setup(t) // defaults: exact tier on the demo graph
	want, err := exact.TopQueriesCtx(nil, terminals, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(refined) != len(want) {
		t.Fatalf("refined ranking has %d queries, exact has %d", len(refined), len(want))
	}
	for i := range refined {
		got, wantN := strings.Join(refined[i].Nodes, "+"), strings.Join(want[i].Nodes, "+")
		if got != wantN {
			t.Errorf("refined[%d] = %s, exact = %s", i, got, wantN)
		}
		if refined[i].Cost != want[i].Cost {
			t.Errorf("refined[%d] cost = %f, exact = %f", i, refined[i].Cost, want[i].Cost)
		}
	}
}

// TestHybridRefineDedupesInFlight checks that repeated hybrid queries for
// the same memo key spawn at most one background refinement.
func TestHybridRefineDedupesInFlight(t *testing.T) {
	l, _ := setup(t)
	l.MaxExactNodes = 1

	cache := plancache.New(64)
	reg := obs.NewRegistry()
	ec := engine.NewExecCtx(context.Background(),
		engine.WithPlanCache(cache), engine.WithMetrics(reg))

	terminals := []string{"Shelters", "Contacts"}
	for i := 0; i < 3; i++ {
		if _, err := l.TopQueriesCtx(ec, terminals, 3); err != nil {
			t.Fatal(err)
		}
	}
	l.WaitRefines()
	completed := reg.Counter("solver.refine.completed").Load()
	failed := reg.Counter("solver.refine.failed").Load()
	if completed+failed != 1 {
		t.Errorf("refines run = %d (completed=%d failed=%d), want exactly 1",
			completed+failed, completed, failed)
	}
}

// TestHeuristicTierWithoutCache pins the cacheless large-graph path: no
// plan cache means no place to publish a refinement, so the learner uses
// the pruning heuristic and spawns nothing.
func TestHeuristicTierWithoutCache(t *testing.T) {
	l, _ := setup(t)
	l.MaxExactNodes = 1

	reg := obs.NewRegistry()
	ec := engine.NewExecCtx(context.Background(), engine.WithMetrics(reg))
	qs, err := l.TopQueriesCtx(ec, []string{"Shelters", "Contacts"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) == 0 {
		t.Fatal("no queries from the heuristic tier")
	}
	if got := reg.Counter("solver.tier." + TierHeuristic).Load(); got != 1 {
		t.Errorf("solver.tier.heuristic = %d want 1", got)
	}
	l.WaitRefines()
	if got := reg.Counter("solver.refine.completed").Load() + reg.Counter("solver.refine.failed").Load(); got != 0 {
		t.Errorf("cacheless query spawned %d refines", got)
	}
}

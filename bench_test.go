package copycat

// Benchmarks regenerating the paper's evaluation, one per experiment in
// DESIGN.md's index (run `go test -bench=. -benchmem`, or the scpbench
// command for the human-readable tables). Custom metrics carry the
// quantities the paper reports: keystroke savings, feedback counts,
// examples-to-convergence, and approximation ratios.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"copycat/internal/engine"
	"copycat/internal/intlearn"
	"copycat/internal/linkage"
	"copycat/internal/modellearn"
	"copycat/internal/plancache"
	"copycat/internal/simuser"
	"copycat/internal/sourcegraph"
	"copycat/internal/steiner"
	"copycat/internal/structlearn"
	"copycat/internal/table"
	"copycat/internal/webworld"
)

func benchWorld() *webworld.World { return webworld.Generate(webworld.DefaultConfig()) }

// BenchmarkImportMode is F1: generalizing a two-row paste into the page's
// full extraction (expert analysis + hypothesis search).
func BenchmarkImportMode(b *testing.B) {
	w := benchWorld()
	doc := w.ShelterSite(webworld.StyleTable).RootPage()
	s0, s1 := w.Shelters[0], w.Shelters[1]
	examples := [][]string{
		{s0.Name, s0.Street, s0.City},
		{s1.Name, s1.Street, s1.City},
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cands := structlearn.Analyze(doc)
		hyps := structlearn.Hypotheses(cands, examples)
		if len(hyps) == 0 || len(hyps[0].Rows) != len(w.Shelters) {
			b.Fatal("generalization failed")
		}
	}
}

// BenchmarkColumnCompletion is F2: proposing and executing the Zip column
// auto-completion over the imported shelter table.
func BenchmarkColumnCompletion(b *testing.B) {
	sys := NewDemoSystem(DefaultWorldConfig())
	browser := sys.OpenBrowser(sys.ShelterSite(StyleTable))
	s0, s1 := sys.World.Shelters[0], sys.World.Shelters[1]
	sel, err := browser.CopyRows([][]string{
		{s0.Name, s0.Street, s0.City}, {s1.Name, s1.Street, s1.City},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Workspace.Paste(sel); err != nil {
		b.Fatal(err)
	}
	if err := sys.Workspace.AcceptRows(); err != nil {
		b.Fatal(err)
	}
	sys.Workspace.SetMode(ModeIntegration)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		comps := sys.Workspace.RefreshColumnSuggestions()
		if len(comps) == 0 {
			b.Fatal("no completions")
		}
	}
}

// BenchmarkColumnCompletionTraced is the same loop with the span tracer
// enabled — compare against BenchmarkColumnCompletion to see what
// tracing costs on the suggestion hot path (the disabled path itself is
// covered by BenchmarkDisabledSpan in internal/obs).
func BenchmarkColumnCompletionTraced(b *testing.B) {
	sys := NewDemoSystem(DefaultWorldConfig())
	browser := sys.OpenBrowser(sys.ShelterSite(StyleTable))
	s0, s1 := sys.World.Shelters[0], sys.World.Shelters[1]
	sel, err := browser.CopyRows([][]string{
		{s0.Name, s0.Street, s0.City}, {s1.Name, s1.Street, s1.City},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Workspace.Paste(sel); err != nil {
		b.Fatal(err)
	}
	if err := sys.Workspace.AcceptRows(); err != nil {
		b.Fatal(err)
	}
	sys.Workspace.SetMode(ModeIntegration)
	sys.EnableTracing()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		comps := sys.Workspace.RefreshColumnSuggestions()
		if len(comps) == 0 {
			b.Fatal("no completions")
		}
	}
	tr := sys.Workspace.Trace() // bounded: ended spans = retained + overwritten
	b.ReportMetric(float64(int64(tr.Len())+tr.Overwritten())/float64(b.N), "spans/op")
}

// BenchmarkKeystrokeSavings is E1: the full demo session; the savings
// fraction vs manual copy-and-paste is reported as a metric (the paper's
// ~75% claim).
func BenchmarkKeystrokeSavings(b *testing.B) {
	w := benchWorld()
	b.ReportAllocs()
	var savings float64
	for i := 0; i < b.N; i++ {
		res, err := simuser.RunShelterTask(w, webworld.StyleTable)
		if err != nil {
			b.Fatal(err)
		}
		savings = res.SavingsVsCopying
	}
	b.ReportMetric(savings*100, "%savings")
}

// BenchmarkMIRAConvergence is E2: feedback rounds until a single query's
// ranking is fixed plus family training; metrics carry the counts.
func BenchmarkMIRAConvergence(b *testing.B) {
	b.ReportAllocs()
	var res *simuser.ConvergenceResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = simuser.MeasureConvergence(20, 10)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.SingleQueryFeedback), "feedback/query")
	b.ReportMetric(res.FamilyAccuracy*100, "%family-acc")
}

// BenchmarkWrapperInduction is E3: examples-to-convergence per page
// class, with per-style sub-benchmarks.
func BenchmarkWrapperInduction(b *testing.B) {
	w := benchWorld()
	for _, style := range webworld.AllStyles() {
		b.Run(style.String(), func(b *testing.B) {
			b.ReportAllocs()
			var needed int
			for i := 0; i < b.N; i++ {
				n, ok := simuser.ExamplesNeeded(w, style, 15)
				if !ok {
					b.Fatalf("style %s never converged", style)
				}
				needed = n
			}
			b.ReportMetric(float64(needed), "examples")
		})
	}
}

// BenchmarkTypeRecognition is E4: recognizing a pasted column against the
// builtin type library.
func BenchmarkTypeRecognition(b *testing.B) {
	w := benchWorld()
	lib := modellearn.NewLibrary()
	modellearn.TrainBuiltins(lib, w)
	col := []string{
		w.Shelters[0].Street, w.Shelters[1].Street, w.Shelters[2].Street,
		w.Shelters[3].Street, w.Shelters[4].Street,
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		scores := lib.Recognize(col)
		if len(scores) == 0 || scores[0].Type != modellearn.TypeStreet {
			b.Fatal("misrecognized")
		}
	}
}

// BenchmarkSteinerTopK is F4: top-3 queries on the running example's
// small source graph (exact solver).
func BenchmarkSteinerTopK(b *testing.B) {
	g := steiner.NewGraph(8)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 8; i++ {
		g.AddEdge(i, (i+1)%8, 1+float64(rng.Intn(3)))
	}
	for i := 0; i < 8; i++ {
		g.AddEdge(rng.Intn(8), rng.Intn(8), 1+float64(rng.Intn(5)))
	}
	terms := []int{0, 3, 6}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if trees := steiner.TopK(g, terms, 3, steiner.Exact); len(trees) == 0 {
			b.Fatal("no trees")
		}
	}
}

// BenchmarkSteinerScaleup is E5: exact vs SPCSH across graph sizes.
func BenchmarkSteinerScaleup(b *testing.B) {
	for _, n := range []int{16, 64, 200} {
		rng := rand.New(rand.NewSource(int64(n)))
		g := steiner.NewGraph(n)
		for i := 0; i < n; i++ {
			g.AddEdge(i, (i+1)%n, 1+float64(rng.Intn(5)))
		}
		for i := 0; i < 2*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v, 1+float64(rng.Intn(9)))
			}
		}
		terms := rng.Perm(n)[:4]
		b.Run(fmt.Sprintf("exact/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := steiner.Exact(g, terms, nil); !ok {
					b.Fatal("infeasible")
				}
			}
		})
		b.Run(fmt.Sprintf("spcsh/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var ratio float64
			ex, _ := steiner.Exact(g, terms, nil)
			for i := 0; i < b.N; i++ {
				ap, ok := steiner.SPCSH(g, terms, nil)
				if !ok {
					b.Fatal("infeasible")
				}
				ratio = ap.Cost / ex.Cost
			}
			b.ReportMetric(ratio, "cost-ratio")
		})
	}
}

// BenchmarkDemoTask is E6: the complete §8 demo session per site style.
func BenchmarkDemoTask(b *testing.B) {
	w := benchWorld()
	for _, style := range []webworld.SiteStyle{webworld.StyleTable, webworld.StylePaged, webworld.StyleForm} {
		b.Run(style.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := simuser.RunShelterTask(w, style); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAssociationDiscovery is A1: candidate-pair workload with and
// without the semantic-type constraint.
func BenchmarkAssociationDiscovery(b *testing.B) {
	w := benchWorld()
	env := simuser.NewEnv(w, webworld.StyleTable)
	rel := w.ShelterRelation()
	rel.Schema[0].SemType = modellearn.TypeOrgName
	rel.Schema[1].SemType = modellearn.TypeStreet
	rel.Schema[2].SemType = modellearn.TypeCity
	rel.Schema[4].SemType = modellearn.TypeZip
	env.WS.Cat.AddRelation(rel, "bench")
	env.WS.Cat.AddRelation(w.ContactRelation(), "bench")
	for name, opts := range map[string]sourcegraph.Options{
		"with-types":    sourcegraph.DefaultOptions(),
		"without-types": {UseSemTypes: false},
	} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var pairs int
			for i := 0; i < b.N; i++ {
				g := sourcegraph.New(env.WS.Cat)
				g.Discover(opts)
				pairs = 0
				for _, e := range g.Edges() {
					pairs += len(e.FromCols)
				}
			}
			b.ReportMetric(float64(pairs), "matched-pairs")
		})
	}
}

// BenchmarkQueryEngine measures the provenance-annotating executor on the
// demo-scale join + dependent-join pipeline.
func BenchmarkQueryEngine(b *testing.B) {
	w := benchWorld()
	shel := table.NewRelation("Shelters", table.NewSchema("Name", "Street", "City"))
	for _, s := range w.Shelters {
		shel.MustAppend(table.FromStrings([]string{s.Name, s.Street, s.City}))
	}
	con := table.NewRelation("Contacts", table.NewSchema("Org", "City", "Phone"))
	for _, c := range w.Contacts {
		con.MustAppend(table.FromStrings([]string{c.Org, c.City, c.Phone}))
	}
	join, err := engine.NewHashJoinByName(engine.NewScan(shel), engine.NewScan(con), [][2]string{{"City", "City"}})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := join.Execute(engine.Background())
		if err != nil || len(res.Rows) == 0 {
			b.Fatal("join failed")
		}
	}
}

// BenchmarkRecordLinking measures the learned-linker similarity join used
// to attach the contacts spreadsheet.
func BenchmarkRecordLinking(b *testing.B) {
	w := benchWorld()
	linker := linkage.NewLinker()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hits := 0
		for _, c := range w.Contacts {
			if linker.Score(c.Org, w.Shelters[c.ShelterID].Name) >= 0.55 {
				hits++
			}
		}
		if hits == 0 {
			b.Fatal("no links")
		}
	}
}

// BenchmarkFeedback100x is one stitch-100x feedback item: accept a
// chain's fresh route over its stale shortcut, then re-poll the query
// search, which patches the cached Steiner graph and spawns the
// background exact refinement (joined before the next item). The
// chain's weights are put back first, so every iteration moves the
// same 7 of the 100x world's 4200 route weights.
func BenchmarkFeedback100x(b *testing.B) {
	l, fresh, stale, terms := stitchFeedback(100)
	alts := []*intlearn.Query{stale}
	ec := engine.NewExecCtx(context.Background(), engine.WithPlanCache(plancache.New(64)))
	if _, err := l.TopQueriesCtx(ec, terms, 3); err != nil {
		b.Fatal(err)
	}
	l.WaitRefines()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resetRoutes(l, fresh, stale)
		l.AcceptQuery(fresh, alts)
		if _, err := l.TopQueriesCtx(ec, terms, 3); err != nil {
			b.Fatal(err)
		}
		l.WaitRefines()
	}
}

// Biology: learning to rank an entire query family from a little
// feedback — the workload the paper cites from the Q system ([34]:
// learning "converges very quickly in real domains such as biology (as
// little as one item of feedback for a single query, and feedback on 10
// queries to learn rankings for an entire family of queries)").
//
// The synthetic domain: gene sources G00..G19 each link to a publications
// target either through a curated annotation database (the route
// biologists want) or through a stale mirror that initially looks
// cheaper. Accepting the curated route for a few genes re-weights the
// shared edges, flipping the ranking for every gene.
//
//	go run ./examples/biology
package main

import (
	"fmt"
	"log"

	"copycat/internal/catalog"
	"copycat/internal/intlearn"
	"copycat/internal/sourcegraph"
	"copycat/internal/table"
)

const genes = 20

func main() {
	learner, sources := buildBiologyGraph()

	fmt.Println("before any feedback, the stale mirror wins every query:")
	printAccuracy(learner, sources)

	// One feedback item fixes one query (the headline claim).
	accepted, err := acceptCurated(learner, sources[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfeedback 1: accepted the curated route for %s (%d ranking constraints)\n",
		sources[0], accepted)
	if top := topRoute(learner, sources[0]); top != "CuratedDB" {
		log.Fatalf("single query did not converge: %s", top)
	}
	fmt.Printf("  %s now routes via CuratedDB ✓\n", sources[0])

	// Feedback on a handful of genes generalizes to the whole family,
	// because the hub→publications edges are shared features.
	fmt.Println("\ntraining on more genes:")
	for i := 1; i < 10; i++ {
		if _, err := acceptCurated(learner, sources[i]); err != nil {
			log.Fatal(err)
		}
		if i == 1 || i == 4 || i == 9 {
			fmt.Printf("after %2d feedback items: ", i+1)
			printAccuracy(learner, sources[10:])
		}
	}
	fmt.Println("\nheld-out genes (never trained) now rank the curated route first —")
	fmt.Println("the family was learned from feedback on a fraction of its members.")
}

// buildBiologyGraph wires the gene→hub→publications source graph.
func buildBiologyGraph() (*intlearn.Learner, []string) {
	cat := catalog.New()
	mk := func(name string, cols ...string) {
		rel := table.NewRelation(name, table.NewSchema(cols...))
		rel.MustAppend(table.FromStrings(make([]string, len(cols))))
		cat.AddRelation(rel, "biology")
	}
	mk("Publications", "PMID", "GeneID")
	mk("CuratedDB", "GeneID", "Annotation")
	mk("MirrorDB", "GeneID", "Annotation")
	var sources []string
	for i := 0; i < genes; i++ {
		name := fmt.Sprintf("G%02d", i)
		mk(name, "GeneID", "Sequence")
		sources = append(sources, name)
	}
	g := sourcegraph.New(cat)
	for i, s := range sources {
		g.AddEdge(sourcegraph.Edge{From: s, To: "CuratedDB", Kind: sourcegraph.KindJoin,
			FromCols: []string{"GeneID"}, ToCols: []string{"GeneID"}})
		// The mirror looks cheap — its links were bulk-imported with
		// optimistic confidence scores.
		g.AddEdge(sourcegraph.Edge{From: s, To: "MirrorDB", Kind: sourcegraph.KindJoin,
			FromCols: []string{"GeneID"}, ToCols: []string{"GeneID"},
			Cost: 0.5 + 0.45*float64(i)/float64(genes-1)})
	}
	g.AddEdge(sourcegraph.Edge{From: "CuratedDB", To: "Publications", Kind: sourcegraph.KindJoin,
		FromCols: []string{"GeneID"}, ToCols: []string{"GeneID"}})
	g.AddEdge(sourcegraph.Edge{From: "MirrorDB", To: "Publications", Kind: sourcegraph.KindJoin,
		FromCols: []string{"GeneID"}, ToCols: []string{"GeneID"}, Cost: 0.8})
	return intlearn.New(g), sources
}

// topRoute reports which hub the top query for a gene routes through.
func topRoute(l *intlearn.Learner, gene string) string {
	qs, err := l.TopQueriesCtx(nil, []string{gene, "Publications"}, 1)
	if err != nil || len(qs) == 0 {
		return "?"
	}
	for _, n := range qs[0].Nodes {
		if n == "CuratedDB" || n == "MirrorDB" {
			return n
		}
	}
	return "?"
}

// acceptCurated gives one feedback item: the curated route is accepted
// over the alternatives among the top queries for the gene.
func acceptCurated(l *intlearn.Learner, gene string) (int, error) {
	qs, err := l.TopQueriesCtx(nil, []string{gene, "Publications"}, 2)
	if err != nil {
		return 0, err
	}
	var curated *intlearn.Query
	var others []*intlearn.Query
	for _, q := range qs {
		via := false
		for _, n := range q.Nodes {
			if n == "CuratedDB" {
				via = true
			}
		}
		if via && curated == nil {
			curated = q
		} else {
			others = append(others, q)
		}
	}
	if curated == nil {
		return 0, fmt.Errorf("curated route not among top queries for %s", gene)
	}
	return l.AcceptQuery(curated, others), nil
}

func printAccuracy(l *intlearn.Learner, sources []string) {
	good := 0
	for _, s := range sources {
		if topRoute(l, s) == "CuratedDB" {
			good++
		}
	}
	fmt.Printf("curated route ranked first for %d/%d genes (%.0f%%)\n",
		good, len(sources), 100*float64(good)/float64(len(sources)))
}

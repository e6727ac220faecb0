package engine_test

import (
	"testing"

	"copycat/internal/engine"
	"copycat/internal/linkage"
	"copycat/internal/table"
	"copycat/internal/webworld"
)

// BenchmarkRecordLinkJoin is the demo's record-link join: every shelter
// Name of the seed-42 world scored against every contact Organization by
// the default linker, best match above the suggestion threshold (0.55).
func BenchmarkRecordLinkJoin(b *testing.B) {
	w := webworld.Generate(webworld.DefaultConfig())
	shel := table.NewRelation("Shelters", table.NewSchema("Name", "Street", "City"))
	for _, s := range w.Shelters {
		shel.MustAppend(table.FromStrings([]string{s.Name, s.Street, s.City}))
	}
	con := table.NewRelation("Contacts", table.NewSchema("Org", "Person", "Phone"))
	for _, c := range w.Contacts {
		con.MustAppend(table.FromStrings([]string{c.Org, c.Person, c.Phone}))
	}
	rl := &engine.RecordLinkJoin{
		Left: engine.NewScan(shel), Right: engine.NewScan(con),
		LeftCols: []int{0}, RightCols: []int{0},
		Sim: linkage.NewLinker().TupleSimilarity(), Threshold: 0.55, BestOnly: true,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := rl.Execute(engine.Background())
		if err != nil || len(res.Rows) == 0 {
			b.Fatalf("link join: %d rows, %v", len(res.Rows), err)
		}
	}
}

// Relief report: the county wants a per-city readiness report — shelter
// counts, total supply quantities, and a display label — built from two
// web sources with no common key except the city name. Exercises the
// §5 extension features on top of the SCP core: aggregation
// (Workspace.Summarize), transform-by-example
// (DiscoverTransform/ApplyTransform), and session persistence.
//
//	go run ./examples/reliefreport
package main

import (
	"fmt"
	"log"
	"strings"

	"copycat"
)

func main() {
	sys := copycat.NewDemoSystem(copycat.DefaultWorldConfig())
	ws := sys.Workspace
	w := sys.World

	// --- Import the shelters table from the TV site ---------------------
	browser := sys.OpenBrowser(sys.ShelterSite(copycat.StyleTable))
	s0, s1 := w.Shelters[0], w.Shelters[1]
	sel, err := browser.CopyRows([][]string{
		{s0.Name, s0.Street, s0.City},
		{s1.Name, s1.Street, s1.City},
	})
	if err != nil {
		log.Fatal(err)
	}
	must(ws.Paste(sel))
	must(ws.AcceptRows())
	fmt.Printf("imported %d shelters\n", len(ws.ActiveTab().ConcreteRows()))

	// --- Aggregate: shelters per city -----------------------------------
	shelterCounts, err := ws.Summarize([]string{"City"}, "count")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shelter counts: %d cities\n", len(shelterCounts.Rows))

	// --- Import the county supplies page into its own tab ---------------
	supplies := sys.OpenBrowser(w.SuppliesPage())
	d0, d1 := w.Supplies[0], w.Supplies[1]
	ssel, err := supplies.CopyRows([][]string{
		{d0.Depot, d0.City, d0.Item, fmt.Sprint(d0.Quantity)},
		{d1.Depot, d1.City, d1.Item, fmt.Sprint(d1.Quantity)},
	})
	if err != nil {
		log.Fatal(err)
	}
	ws.SelectTab("Supplies")
	ws.SetMode(copycat.ModeImport)
	must(ws.Paste(ssel))
	must(ws.AcceptRows())
	fmt.Printf("imported %d supply records\n", len(ws.ActiveTab().ConcreteRows()))

	// --- Aggregate: total supply quantity per city ----------------------
	qtyCol := ""
	for _, c := range ws.ActiveTab().Schema {
		if strings.Contains(strings.ToLower(c.Name), "qty") || strings.Contains(strings.ToLower(c.Name), "quantity") {
			qtyCol = c.Name
		}
	}
	if qtyCol == "" {
		qtyCol = ws.ActiveTab().Schema[3].Name
	}
	supplyTotals, err := ws.Summarize([]string{"City"}, "sum("+qtyCol+")", "count")
	if err != nil {
		log.Fatal(err)
	}

	// --- Transform by example: a report label ---------------------------
	// The user types the desired label for the first row; CopyCat finds
	// the function and fills the rest.
	first := supplyTotals.Rows[0].Cells
	example := strings.ToUpper(first[0].Str())
	cands := ws.DiscoverTransform(map[int]string{0: example})
	if len(cands) == 0 {
		log.Fatal("no transform found")
	}
	fmt.Printf("discovered transform: %s\n", cands[0].Desc)
	must(ws.ApplyTransform(cands[0], "LABEL"))

	// --- The report ------------------------------------------------------
	fmt.Println("\nPer-city relief readiness report:")
	fmt.Print(ws.Render())

	// Provenance survives aggregation: each summary row explains itself
	// in terms of the supply records behind it.
	expl, err := ws.ExplainRow(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwhy the first report row:")
	fmt.Print(expl)

	// --- Save the session so the report sources can be refreshed --------
	data, err := sys.SaveSession()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsession snapshot: %d bytes, gzip-framed (relations + types + source graph with learned costs)\n", len(data))
	fmt.Printf("total effort: %s\n", ws.Keys)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

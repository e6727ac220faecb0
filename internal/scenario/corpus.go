package scenario

import (
	"fmt"

	"copycat/internal/catalog"
	"copycat/internal/intlearn"
	"copycat/internal/simuser"
	"copycat/internal/sourcegraph"
	"copycat/internal/table"
	"copycat/internal/webworld"
)

// Config seeds the corpus. The same config always yields the same
// scenarios (and, via Score, the same metrics — the determinism
// property the accuracy gate depends on).
type Config struct {
	Seed int64
	// Cold disables the plan cache in workspace-backed scenarios, so
	// the harness can cross-check that warm and cold refreshes are
	// output-equivalent at the accuracy level too.
	Cold bool
}

// Corpus builds the full scenario set: three shelter-demo variants,
// two WebRelate-style join scenarios, two SmartInt-style stitching
// scenarios, one query-family scenario, and one 10x-world scale
// scenario exercising the tiered solver path.
func Corpus(cfg Config) ([]Scenario, error) {
	var out []Scenario
	for _, sh := range []struct {
		name  string
		style webworld.SiteStyle
	}{
		{"shelter-table", webworld.StyleTable},
		{"shelter-grouped", webworld.StyleGrouped},
		{"shelter-paged", webworld.StylePaged},
	} {
		s, err := shelterScenario(sh.name, sh.style, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	w := genWorld(cfg.Seed)
	out = append(out,
		webrelateOrgs(w),
		webrelateStreets(w),
		smartintZip(w),
		smartintPhone(w),
		familyScenario(),
		scaleStitch(cfg),
	)
	return out, nil
}

func genWorld(seed int64) *webworld.World {
	wcfg := webworld.DefaultConfig()
	wcfg.Seed = seed
	return webworld.Generate(wcfg)
}

// shelterScenario replays the §8 demo import at one site style and
// then asks for column completions: the correct suggestion is the
// Zipcode Resolver (the column the demo user accepts first), and
// feedback rejects the top wrong completion until it wins.
func shelterScenario(name string, style webworld.SiteStyle, cfg Config) (Scenario, error) {
	w := genWorld(cfg.Seed)
	env := simuser.NewEnv(w, style)
	ws := env.WS
	if cfg.Cold {
		ws.PlanCache = nil
	}
	if err := simuser.ImportShelters(ws, w, style); err != nil {
		return Scenario{}, fmt.Errorf("scenario %s: %w", name, err)
	}
	const correct = "Zipcode Resolver"
	return Scenario{
		Name:     name,
		Kind:     KindShelter,
		Desc:     fmt.Sprintf("§8 shelter import (%v site), correct completion = %s", style, correct),
		Relevant: 1,
		Ranked: func(k int) ([]Candidate, error) {
			comps := ws.RefreshColumnSuggestions()
			if len(comps) > k {
				comps = comps[:k]
			}
			out := make([]Candidate, len(comps))
			for i, c := range comps {
				out[i] = Candidate{
					Name:    c.Edge.ID + "→" + c.Target,
					Cost:    c.Cost,
					Correct: c.Target == correct,
				}
			}
			return out, nil
		},
		Feedback: func(ranked []Candidate) error {
			for i, c := range ranked {
				if !c.Correct {
					return ws.RejectColumn(i)
				}
			}
			return nil
		},
	}, nil
}

// graphTask adapts an intlearn.Learner over an explicit source graph
// to the Scenario shape: Ranked polls TopQueriesCtx, Feedback accepts the
// correct query when it is visible (the strongest signal the UI
// offers) and otherwise rejects the top wrong one.
type graphTask struct {
	lrn       *intlearn.Learner
	terminals []string
	correct   func(q *intlearn.Query) bool
	last      []*intlearn.Query
}

func (t *graphTask) ranked(k int) ([]Candidate, error) {
	qs, err := t.lrn.TopQueriesCtx(nil, t.terminals, k)
	if err != nil {
		return nil, err
	}
	t.last = qs
	out := make([]Candidate, len(qs))
	for i, q := range qs {
		out[i] = Candidate{Name: queryName(q), Cost: q.Cost, Correct: t.correct(q)}
	}
	return out, nil
}

func (t *graphTask) feedback(ranked []Candidate) error {
	for i, c := range ranked {
		if c.Correct {
			var others []*intlearn.Query
			for j, q := range t.last {
				if j != i {
					others = append(others, q)
				}
			}
			t.lrn.AcceptQuery(t.last[i], others)
			return nil
		}
	}
	if len(t.last) == 0 {
		return fmt.Errorf("no queries to give feedback on")
	}
	t.lrn.RejectQuery(t.last[0])
	return nil
}

func (t *graphTask) scenario(name, kind, desc string) Scenario {
	return Scenario{
		Name: name, Kind: kind, Desc: desc, Relevant: 1,
		Ranked:   t.ranked,
		Feedback: t.feedback,
	}
}

func queryName(q *intlearn.Query) string {
	name := ""
	for i, n := range q.Nodes {
		if i > 0 {
			name += "+"
		}
		name += n
	}
	return name
}

func queryVia(q *intlearn.Query, node string) bool {
	for _, n := range q.Nodes {
		if n == node {
			return true
		}
	}
	return false
}

func addRel(cat *catalog.Catalog, name, origin string, cols []string, rows [][]string) {
	rel := table.NewRelation(name, table.NewSchema(cols...))
	for _, r := range rows {
		rel.MustAppend(table.FromStrings(r))
	}
	cat.AddRelation(rel, origin)
}

// webrelateOrgs is a WebRelate-style scenario: the contact
// spreadsheet's Org column holds string-transformed (abbreviated,
// typo'd) shelter names, so the correct join is the direct
// record-linkage edge — expensive because the match is fuzzy. A stale
// directory offers a cheaper two-hop route whose pairings are wrong,
// so before feedback the system prefers the decoy.
func webrelateOrgs(w *webworld.World) Scenario {
	cat := catalog.New()
	contacts := w.ContactRelation()
	contacts.Name = "Contacts"
	cat.AddRelation(contacts, "spreadsheet")
	shelters := w.ShelterRelation()
	shelters.Name = "Shelters"
	cat.AddRelation(shelters, "web")
	var dir [][]string
	for i, c := range w.Contacts {
		if i >= len(w.Shelters) {
			break
		}
		// Stale pairings: each org mapped to the *next* shelter's name.
		dir = append(dir, []string{c.Org, w.Shelters[(i+1)%len(w.Shelters)].Name})
	}
	addRel(cat, "StaleDirectory", "stale-mirror", []string{"Org", "Name"}, dir)

	g := sourcegraph.New(cat)
	g.AddEdge(sourcegraph.Edge{From: "Contacts", To: "Shelters", Kind: sourcegraph.KindRecordLink,
		FromCols: []string{"Org"}, ToCols: []string{"Name"}, Cost: 0.95})
	g.AddEdge(sourcegraph.Edge{From: "Contacts", To: "StaleDirectory", Kind: sourcegraph.KindJoin,
		FromCols: []string{"Org"}, ToCols: []string{"Org"}, Cost: 0.4})
	g.AddEdge(sourcegraph.Edge{From: "StaleDirectory", To: "Shelters", Kind: sourcegraph.KindJoin,
		FromCols: []string{"Name"}, ToCols: []string{"Name"}, Cost: 0.4})
	t := &graphTask{
		lrn:       intlearn.New(g),
		terminals: []string{"Contacts", "Shelters"},
		correct:   func(q *intlearn.Query) bool { return !queryVia(q, "StaleDirectory") },
	}
	return t.scenario("webrelate-orgs", KindWebRelate,
		"contacts↔shelters via transformed Org names; decoy = stale directory route")
}

// webrelateStreets joins on noisy street strings instead: the direct
// Contacts.Street↔Shelters.Street linkage edge competes with a cheap
// two-hop route through an outdated street→zip atlas.
func webrelateStreets(w *webworld.World) Scenario {
	cat := catalog.New()
	contacts := w.ContactRelation()
	contacts.Name = "Contacts"
	cat.AddRelation(contacts, "spreadsheet")
	shelters := w.ShelterRelation()
	shelters.Name = "Shelters"
	cat.AddRelation(shelters, "web")
	var atlas [][]string
	for i, s := range w.Shelters {
		// Outdated zips: every entry shifted to a neighboring shelter's zip.
		atlas = append(atlas, []string{s.Street, w.Shelters[(i+1)%len(w.Shelters)].Zip})
	}
	addRel(cat, "OldAtlas", "stale-mirror", []string{"Street", "Zip"}, atlas)

	g := sourcegraph.New(cat)
	g.AddEdge(sourcegraph.Edge{From: "Contacts", To: "Shelters", Kind: sourcegraph.KindRecordLink,
		FromCols: []string{"Street"}, ToCols: []string{"Street"}, Cost: 0.9})
	g.AddEdge(sourcegraph.Edge{From: "Contacts", To: "OldAtlas", Kind: sourcegraph.KindJoin,
		FromCols: []string{"Street"}, ToCols: []string{"Street"}, Cost: 0.35})
	g.AddEdge(sourcegraph.Edge{From: "OldAtlas", To: "Shelters", Kind: sourcegraph.KindJoin,
		FromCols: []string{"Zip"}, ToCols: []string{"Zip"}, Cost: 0.35})
	t := &graphTask{
		lrn:       intlearn.New(g),
		terminals: []string{"Contacts", "Shelters"},
		correct:   func(q *intlearn.Query) bool { return !queryVia(q, "OldAtlas") },
	}
	return t.scenario("webrelate-streets", KindWebRelate,
		"contacts↔shelters via noisy Street strings; decoy = outdated street→zip atlas")
}

// smartintZip is a SmartInt-style scenario: the wide shelter relation
// is fragmented into narrow sources — names per city, a name→zip
// bridge, and status per zip — and the query must stitch them back
// together. A stale copy of the bridge looks cheaper, so the initial
// top query routes through outdated data.
func smartintZip(w *webworld.World) Scenario {
	cat := catalog.New()
	var names, bridge, stale, status [][]string
	for i, s := range w.Shelters {
		names = append(names, []string{s.City, s.Name})
		bridge = append(bridge, []string{s.Name, s.Zip})
		// The stale bridge kept zips from before the storm rezoning.
		stale = append(stale, []string{s.Name, w.Shelters[(i+1)%len(w.Shelters)].Zip})
		status = append(status, []string{s.Zip, s.Status})
	}
	addRel(cat, "ShelterNames", "fragment", []string{"City", "Name"}, names)
	addRel(cat, "ZipBridge", "fragment", []string{"Name", "Zip"}, bridge)
	addRel(cat, "ZipBridgeStale", "stale-mirror", []string{"Name", "Zip"}, stale)
	addRel(cat, "ShelterStatus", "fragment", []string{"Zip", "Status"}, status)

	g := sourcegraph.New(cat)
	g.AddEdge(sourcegraph.Edge{From: "ShelterNames", To: "ZipBridge", Kind: sourcegraph.KindJoin,
		FromCols: []string{"Name"}, ToCols: []string{"Name"}, Cost: 0.6})
	g.AddEdge(sourcegraph.Edge{From: "ZipBridge", To: "ShelterStatus", Kind: sourcegraph.KindJoin,
		FromCols: []string{"Zip"}, ToCols: []string{"Zip"}, Cost: 0.6})
	g.AddEdge(sourcegraph.Edge{From: "ShelterNames", To: "ZipBridgeStale", Kind: sourcegraph.KindJoin,
		FromCols: []string{"Name"}, ToCols: []string{"Name"}, Cost: 0.45})
	g.AddEdge(sourcegraph.Edge{From: "ZipBridgeStale", To: "ShelterStatus", Kind: sourcegraph.KindJoin,
		FromCols: []string{"Zip"}, ToCols: []string{"Zip"}, Cost: 0.45})
	t := &graphTask{
		lrn:       intlearn.New(g),
		terminals: []string{"ShelterNames", "ShelterStatus"},
		correct:   func(q *intlearn.Query) bool { return queryVia(q, "ZipBridge") },
	}
	return t.scenario("smartint-zip", KindSmartInt,
		"stitch fragmented shelter sources city→name→zip→status; decoy = stale zip bridge")
}

// smartintPhone fragments the same relation along a different chain —
// directory, phone book, status-by-phone — with the stale phone book
// as the cheaper decoy bridge.
func smartintPhone(w *webworld.World) Scenario {
	cat := catalog.New()
	var dir, book, stale, status [][]string
	for i, s := range w.Shelters {
		dir = append(dir, []string{s.Name, s.City})
		book = append(book, []string{s.Name, s.Phone})
		stale = append(stale, []string{s.Name, w.Shelters[(i+1)%len(w.Shelters)].Phone})
		status = append(status, []string{s.Phone, s.Status})
	}
	addRel(cat, "ShelterDirectory", "fragment", []string{"Name", "City"}, dir)
	addRel(cat, "PhoneBook", "fragment", []string{"Name", "Phone"}, book)
	addRel(cat, "PhoneBookStale", "stale-mirror", []string{"Name", "Phone"}, stale)
	addRel(cat, "StatusByPhone", "fragment", []string{"Phone", "Status"}, status)

	g := sourcegraph.New(cat)
	g.AddEdge(sourcegraph.Edge{From: "ShelterDirectory", To: "PhoneBook", Kind: sourcegraph.KindJoin,
		FromCols: []string{"Name"}, ToCols: []string{"Name"}, Cost: 0.55})
	g.AddEdge(sourcegraph.Edge{From: "PhoneBook", To: "StatusByPhone", Kind: sourcegraph.KindJoin,
		FromCols: []string{"Phone"}, ToCols: []string{"Phone"}, Cost: 0.55})
	g.AddEdge(sourcegraph.Edge{From: "ShelterDirectory", To: "PhoneBookStale", Kind: sourcegraph.KindJoin,
		FromCols: []string{"Name"}, ToCols: []string{"Name"}, Cost: 0.4})
	g.AddEdge(sourcegraph.Edge{From: "PhoneBookStale", To: "StatusByPhone", Kind: sourcegraph.KindJoin,
		FromCols: []string{"Phone"}, ToCols: []string{"Phone"}, Cost: 0.4})
	t := &graphTask{
		lrn:       intlearn.New(g),
		terminals: []string{"ShelterDirectory", "StatusByPhone"},
		correct:   func(q *intlearn.Query) bool { return queryVia(q, "PhoneBook") },
	}
	return t.scenario("smartint-phone", KindSmartInt,
		"stitch fragmented shelter sources name→phone→status; decoy = stale phone book")
}

// familyScenario reuses the E2 query family (simuser.BuildFamily): the
// first family member's top query should route through the curated hub
// rather than the stale mirror, which initially looks cheaper.
func familyScenario() Scenario {
	f := simuser.BuildFamily(6)
	t := &graphTask{
		lrn:       f.Learner,
		terminals: []string{f.Sources[0], f.Target},
		correct:   func(q *intlearn.Query) bool { return queryVia(q, f.GoodHub) },
	}
	return t.scenario("family-hub", KindFamily,
		"E2 query family: prefer the curated hub over the stale mirror for S00→T")
}

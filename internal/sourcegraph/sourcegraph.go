// Package sourcegraph implements the integration learner's source graph
// (§4, Figure 4): nodes are data sources and services, edges are potential
// associations — joins on shared attributes, dependent joins feeding a
// service's input bindings, record-linking operations, and known foreign
// keys. Edges carry costs (lower = more relevant); the MIRA learner
// adjusts them from feedback, and queries are scored by summing their
// edges' costs.
package sourcegraph

import (
	"fmt"
	"sort"
	"strings"

	"copycat/internal/catalog"
	"copycat/internal/schemamatch"
	"copycat/internal/table"
)

// EdgeKind classifies an association.
type EdgeKind uint8

const (
	// KindJoin is an equijoin on the matched attribute pairs.
	KindJoin EdgeKind = iota
	// KindDependent feeds the matched attributes to a service's inputs.
	KindDependent
	// KindRecordLink is an approximate join via a record-linking function.
	KindRecordLink
	// KindForeignKey is a join over a declared key link.
	KindForeignKey
)

// String names the kind.
func (k EdgeKind) String() string {
	switch k {
	case KindJoin:
		return "join"
	case KindDependent:
		return "dependent"
	case KindRecordLink:
		return "recordlink"
	case KindForeignKey:
		return "foreignkey"
	}
	return fmt.Sprintf("edgekind(%d)", uint8(k))
}

// DefaultCost is the cost assigned to newly discovered associations. It
// sits below SuggestThreshold, so fresh edges are suggested by default
// (§4.1: "We set the edge weights to a default value that exceeds the
// threshold necessary for the edge to be suggested").
const DefaultCost = 1.0

// SuggestThreshold is the maximum cost at which an association is still
// proposed as an auto-completion.
const SuggestThreshold = 2.0

// Edge is one potential association between two nodes.
type Edge struct {
	ID       string // canonical identifier; the MIRA feature name
	From, To string // node (source/service) names
	Kind     EdgeKind
	// FromCols/ToCols are the matched attribute pairs; queries join on
	// the conjunction of all of them (§4.1).
	FromCols, ToCols []string
	Cost             float64

	gen uint64 // graph generation at which the edge last changed
}

// Label renders a compact human-readable description.
func (e *Edge) Label() string {
	return fmt.Sprintf("%s —%s→ %s on (%s)=(%s) @%.2f",
		e.From, e.Kind, e.To,
		strings.Join(e.FromCols, ","), strings.Join(e.ToCols, ","), e.Cost)
}

// Graph is the source graph.
type Graph struct {
	cat   *catalog.Catalog
	edges map[string]*Edge
	// byNode indexes edge IDs by endpoint (both directions).
	byNode map[string][]string
	// CandidatePairs counts attribute pairs considered during discovery —
	// the ablation metric for the semantic-type constraint (A1).
	CandidatePairs int

	// gen counts every observable change to the graph — an edge added or
	// an edge cost actually moved — so downstream consumers (the plan
	// cache, the Steiner memo) can invalidate selectively instead of
	// recomputing per refresh. structGen counts only structural changes
	// (edge additions): when it is unchanged, a cached Steiner graph can
	// be patched in place rather than rebuilt. Each edge records the
	// generation at which it last changed, forming the per-edge dirty set
	// feedback propagates to the suggestion pipeline.
	gen       uint64
	structGen uint64

	// changes logs the edge behind every generation bump: changes[i]
	// changed at generation changesFloor+i+1. It lets ChangedSince answer
	// in O(changed) instead of scanning every edge. It is allocated on the
	// first change and holds at most as many entries as the graph has
	// edges; when full, its older half is dropped and changesFloor moves
	// up, so a consumer older than the floor falls back to a full scan.
	changes      []*Edge
	changesFloor uint64

	// adjCache memoizes EdgesAt's sorted incidence lists; it is valid
	// while the graph generation matches adjGen-1 (cost order can move
	// on any generation bump). allCache memoizes Edges' sorted edge
	// list; it survives cost updates and dies only on structural change.
	// Both return shared slices — callers iterate, never mutate.
	adjCache map[string][]*Edge
	adjGen   uint64
	allCache []*Edge
	allGen   uint64
}

// New creates an empty graph over a catalog.
func New(cat *catalog.Catalog) *Graph {
	return &Graph{cat: cat, edges: map[string]*Edge{}, byNode: map[string][]string{}}
}

// Catalog returns the underlying catalog.
func (g *Graph) Catalog() *catalog.Catalog { return g.cat }

// Generation reports the graph's change counter: it advances once per
// edge addition and per effective cost update. Equal generations mean no
// observable difference between two points in time.
func (g *Graph) Generation() uint64 { return g.gen }

// StructGeneration reports the structural change counter (edge
// additions only). While it holds still, the node/edge sets are frozen
// and only weights may have moved.
func (g *Graph) StructGeneration() uint64 { return g.structGen }

// EdgeGeneration reports the generation at which the given edge last
// changed (was added, or had its cost moved); 0 for unknown edges.
func (g *Graph) EdgeGeneration(id string) uint64 {
	if e, ok := g.edges[id]; ok {
		return e.gen
	}
	return 0
}

// ChangedSince returns the edges whose generation is later than gen —
// the dirty set a consumer holding a snapshot at gen must re-examine.
// Results come back sorted by ID for determinism. A consumer within the
// change log's reach costs O(changes since gen); an older one costs a
// scan of every edge.
func (g *Graph) ChangedSince(gen uint64) []*Edge {
	if gen >= g.gen {
		return nil
	}
	var out []*Edge
	if gen >= g.changesFloor {
		// An edge changed several times appears once per change; keep
		// only the entry of its latest one.
		for i, e := range g.changes[gen-g.changesFloor:] {
			if e.gen == gen+uint64(i)+1 {
				out = append(out, e)
			}
		}
	} else {
		for _, e := range g.edges {
			if e.gen > gen {
				out = append(out, e)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// bump advances the generation for a change to e and logs it.
func (g *Graph) bump(e *Edge) {
	g.gen++
	e.gen = g.gen
	if n := len(g.changes); n > 0 && n >= len(g.edges) {
		keep := n / 2
		copy(g.changes, g.changes[n-keep:])
		clear(g.changes[keep:])
		g.changes = g.changes[:keep]
		g.changesFloor += uint64(n - keep)
	}
	g.changes = append(g.changes, e)
}

// AddEdge inserts an association if not already present; it returns the
// canonical edge (existing or new).
func (g *Graph) AddEdge(e Edge) *Edge {
	if e.ID == "" {
		e.ID = edgeID(e)
	}
	if ex, ok := g.edges[e.ID]; ok {
		return ex
	}
	if e.Cost == 0 {
		e.Cost = DefaultCost
	}
	stored := e
	g.edges[e.ID] = &stored
	g.byNode[e.From] = append(g.byNode[e.From], e.ID)
	if e.To != e.From {
		g.byNode[e.To] = append(g.byNode[e.To], e.ID)
	}
	g.structGen++
	g.bump(&stored)
	return &stored
}

func edgeID(e Edge) string {
	return fmt.Sprintf("%s|%s|%s|%s=%s", e.From, e.Kind, e.To,
		strings.Join(e.FromCols, ","), strings.Join(e.ToCols, ","))
}

// Edge returns the edge with the given ID, or nil.
func (g *Graph) Edge(id string) *Edge { return g.edges[id] }

// Edges returns all edges sorted by ID (deterministic). The slice is
// cached until the edge set changes structurally; callers must treat it
// as read-only.
func (g *Graph) Edges() []*Edge {
	if g.allCache != nil && g.allGen == g.structGen+1 {
		return g.allCache
	}
	ids := make([]string, 0, len(g.edges))
	for id := range g.edges {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]*Edge, len(ids))
	for i, id := range ids {
		out[i] = g.edges[id]
	}
	g.allCache, g.allGen = out, g.structGen+1
	return out
}

// EdgesAt returns the edges incident to a node, sorted by cost then ID.
// Lists are cached per node and invalidated by any generation bump
// (cost updates can reorder them); callers must treat the slice as
// read-only. On large worlds this turns the per-refresh re-sort of
// every node's incidence list into a hash lookup.
func (g *Graph) EdgesAt(node string) []*Edge {
	if g.adjGen != g.gen+1 {
		if g.adjCache == nil {
			g.adjCache = map[string][]*Edge{}
		} else {
			clear(g.adjCache)
		}
		g.adjGen = g.gen + 1
	} else if out, ok := g.adjCache[node]; ok {
		return out
	}
	ids := g.byNode[node]
	out := make([]*Edge, 0, len(ids))
	for _, id := range ids {
		out = append(out, g.edges[id])
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Cost != out[j].Cost {
			return out[i].Cost < out[j].Cost
		}
		return out[i].ID < out[j].ID
	})
	g.adjCache[node] = out
	return out
}

// SetCost updates an edge's cost (the MIRA learner's write path). The
// generation counters advance only when the cost actually moves, so
// re-writing a weight the edge already carries dirties nothing.
func (g *Graph) SetCost(id string, cost float64) bool {
	e, ok := g.edges[id]
	if !ok {
		return false
	}
	if e.Cost != cost {
		e.Cost = cost
		g.bump(e)
	}
	return true
}

// Len reports the number of edges.
func (g *Graph) Len() int { return len(g.edges) }

// Options controls association discovery.
type Options struct {
	// UseSemTypes matches attributes by learned semantic type (falling
	// back to name equality when a side is untyped). When false,
	// attributes match on kind compatibility alone — the A1 ablation
	// baseline, which floods the graph with candidates.
	UseSemTypes bool
	// RecordLinkTypes lists semantic types whose cross-source matches
	// become record-link (approximate join) edges instead of equijoins —
	// e.g. organization names that may be spelled differently.
	RecordLinkTypes []string
	// UseMatcher additionally runs the approximate schema matcher (§4.1
	// future work, [29]) over relation pairs; each match above its
	// confidence threshold becomes a join edge whose initial cost is
	// derived from the matcher's confidence.
	UseMatcher bool
}

// DefaultOptions matches the prototype's behaviour (§4.1: name/type
// matches and foreign keys only).
func DefaultOptions() Options {
	return Options{UseSemTypes: true, RecordLinkTypes: []string{"PR-OrgName", "PR-PersonName"}}
}

// MatcherOptions enables the approximate schema matcher on top of the
// default rules.
func MatcherOptions() Options {
	o := DefaultOptions()
	o.UseMatcher = true
	return o
}

// Discover scans the catalog and adds association edges: joins between
// materialized sources on matching attributes (conjunction of all
// matches), dependent joins from any source that can cover a service's
// input bindings, record-link edges for fuzzy types, and declared foreign
// keys. It is idempotent — existing edges keep their (possibly learned)
// costs.
func (g *Graph) Discover(opts Options) {
	srcs := g.cat.All()
	linkTypes := map[string]bool{}
	for _, t := range opts.RecordLinkTypes {
		linkTypes[t] = true
	}
	for i, a := range srcs {
		for _, b := range srcs[i+1:] {
			if a.Kind == catalog.KindService && b.Kind == catalog.KindService {
				// Service composition (§3.2: known sources composed "in
				// novel ways"): one service's outputs may cover another's
				// input bindings, in either direction.
				g.discoverComposition(a, b, opts)
				g.discoverComposition(b, a, opts)
				continue
			}
			g.discoverPair(a, b, opts, linkTypes)
		}
	}
	// Foreign keys declared in the catalog.
	for _, s := range srcs {
		for col, target := range s.Keys {
			parts := strings.SplitN(target, ".", 2)
			if len(parts) != 2 || g.cat.Get(parts[0]) == nil {
				continue
			}
			g.AddEdge(Edge{
				From: s.Name, To: parts[0], Kind: KindForeignKey,
				FromCols: []string{col}, ToCols: []string{parts[1]},
			})
		}
	}
}

func (g *Graph) discoverPair(a, b *catalog.Source, opts Options, linkTypes map[string]bool) {
	// Service pairs were excluded; orient dependent edges source→service.
	if b.Kind == catalog.KindService {
		g.discoverDependent(a, b, opts)
		if a.Kind == catalog.KindService {
			return
		}
	} else if a.Kind == catalog.KindService {
		g.discoverDependent(b, a, opts)
		return
	}
	if a.Kind != catalog.KindRelation || b.Kind != catalog.KindRelation {
		return
	}
	var joinFrom, joinTo, linkFrom, linkTo []string
	for _, ca := range a.Schema {
		for _, cb := range b.Schema {
			g.CandidatePairs++
			match, fuzzy := attrsMatch(ca, cb, opts, linkTypes)
			if !match {
				continue
			}
			if fuzzy {
				linkFrom = append(linkFrom, ca.Name)
				linkTo = append(linkTo, cb.Name)
			} else {
				joinFrom = append(joinFrom, ca.Name)
				joinTo = append(joinTo, cb.Name)
			}
		}
	}
	if len(joinFrom) > 0 {
		g.AddEdge(Edge{From: a.Name, To: b.Name, Kind: KindJoin, FromCols: joinFrom, ToCols: joinTo})
	}
	if len(linkFrom) > 0 {
		g.AddEdge(Edge{From: a.Name, To: b.Name, Kind: KindRecordLink, FromCols: linkFrom, ToCols: linkTo})
	}
	if opts.UseMatcher && a.Rel != nil && b.Rel != nil {
		covered := map[string]bool{}
		for i := range joinFrom {
			covered[joinFrom[i]+"\x1f"+joinTo[i]] = true
		}
		for i := range linkFrom {
			covered[linkFrom[i]+"\x1f"+linkTo[i]] = true
		}
		for _, m := range schemamatch.MatchRelations(a.Rel, b.Rel, schemamatch.MinConfidence) {
			if covered[m.LeftCol+"\x1f"+m.RightCol] {
				continue
			}
			g.AddEdge(Edge{
				From: a.Name, To: b.Name, Kind: KindJoin,
				FromCols: []string{m.LeftCol}, ToCols: []string{m.RightCol},
				Cost: schemamatch.CostFor(m.Confidence),
			})
		}
	}
}

// attrsMatch decides whether two attributes associate; fuzzy selects a
// record-link edge over an equijoin.
func attrsMatch(a, b table.Column, opts Options, linkTypes map[string]bool) (match, fuzzy bool) {
	if opts.UseSemTypes {
		if a.SemType != "" && b.SemType != "" {
			if a.SemType != b.SemType {
				return false, false
			}
			return true, linkTypes[a.SemType]
		}
		// Untyped fallback: exact name + kind equality.
		return a.Name == b.Name && a.Kind == b.Kind, false
	}
	// Ablation baseline: kind compatibility only.
	return a.Kind == b.Kind, false
}

// discoverComposition adds a dependent edge a→b when service a's outputs
// cover service b's input bindings (matched by semantic type, falling
// back to name).
func (g *Graph) discoverComposition(a, b *catalog.Source, opts Options) {
	in := b.InputSchema()
	if len(in) == 0 {
		return
	}
	outs := a.OutputSchema()
	var fromCols, toCols []string
	used := map[string]bool{}
	for _, need := range in {
		found := ""
		for _, have := range outs {
			if used[have.Name] {
				continue
			}
			ok := false
			if opts.UseSemTypes && need.SemType != "" && have.SemType != "" {
				ok = need.SemType == have.SemType
			} else if opts.UseSemTypes {
				ok = need.Name == have.Name
			} else {
				ok = need.Kind == have.Kind
			}
			if ok {
				found = have.Name
				break
			}
		}
		if found == "" {
			return
		}
		used[found] = true
		fromCols = append(fromCols, found)
		toCols = append(toCols, need.Name)
	}
	g.AddEdge(Edge{From: a.Name, To: b.Name, Kind: KindDependent, FromCols: fromCols, ToCols: toCols})
}

// discoverDependent adds an edge src→svc when src's attributes can cover
// every input binding of svc.
func (g *Graph) discoverDependent(src, svc *catalog.Source, opts Options) {
	if src.Kind == catalog.KindService {
		// Service-to-service composition: the first service's outputs
		// feed the second's inputs.
		return
	}
	in := svc.InputSchema()
	if len(in) == 0 {
		return
	}
	var fromCols, toCols []string
	used := map[string]bool{}
	for _, need := range in {
		found := ""
		for _, have := range src.Schema {
			if used[have.Name] {
				continue
			}
			ok := false
			if opts.UseSemTypes && need.SemType != "" && have.SemType != "" {
				ok = need.SemType == have.SemType
			} else if opts.UseSemTypes {
				ok = need.Name == have.Name
			} else {
				ok = need.Kind == have.Kind
			}
			if ok {
				found = have.Name
				break
			}
		}
		if found == "" {
			return // an input binding cannot be covered
		}
		used[found] = true
		fromCols = append(fromCols, found)
		toCols = append(toCols, need.Name)
	}
	g.AddEdge(Edge{From: src.Name, To: svc.Name, Kind: KindDependent, FromCols: fromCols, ToCols: toCols})
}

// Suggestable returns the edges at a node whose cost is within the
// suggestion threshold, best first.
func (g *Graph) Suggestable(node string) []*Edge {
	var out []*Edge
	for _, e := range g.EdgesAt(node) {
		if e.Cost <= SuggestThreshold {
			out = append(out, e)
		}
	}
	return out
}

// Other returns the opposite endpoint of an edge relative to node.
func (e *Edge) Other(node string) string {
	if e.From == node {
		return e.To
	}
	return e.From
}

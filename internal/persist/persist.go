// Package persist serializes a CopyCat session to JSON and restores it:
// materialized catalog relations (with learned semantic types and foreign
// keys), the semantic-type library, the source graph with every edge's
// learned cost, the workspace surface, and the plan-cache and quality
// counters. This implements the paper's "persistently saved as an
// integrated, mediated view of the data" (§1): an integration built
// interactively can be reloaded and queried later.
//
// Services are functions and are not serialized; applications re-register
// them on load. The saved graph is restored as it was, not re-discovered:
// an edge discovered over a schema that later widened survives the reload
// with its learned cost.
package persist

import (
	"encoding/json"
	"fmt"

	"copycat/internal/catalog"
	"copycat/internal/modellearn"
	"copycat/internal/obs"
	"copycat/internal/sourcegraph"
	"copycat/internal/table"
	"copycat/internal/workspace"
)

// cellDump serializes one value with its kind.
type cellDump struct {
	K uint8   `json:"k"`
	V string  `json:"v,omitempty"`
	N float64 `json:"n,omitempty"`
	B bool    `json:"b,omitempty"`
}

// columnDump serializes a schema column.
type columnDump struct {
	Name    string `json:"name"`
	Kind    uint8  `json:"kind"`
	SemType string `json:"semtype,omitempty"`
}

// relationDump serializes one materialized source.
type relationDump struct {
	Name    string            `json:"name"`
	Origin  string            `json:"origin"`
	Columns []columnDump      `json:"columns"`
	Rows    [][]cellDump      `json:"rows"`
	Keys    map[string]string `json:"keys,omitempty"`
}

// EdgeDump serializes one source-graph edge. The edge ID is not stored:
// Graph.AddEdge derives it from these fields. Cost is always written,
// because AddEdge reads a zero cost as "unset".
type EdgeDump struct {
	From     string   `json:"from"`
	To       string   `json:"to"`
	Kind     uint8    `json:"kind"`
	FromCols []string `json:"from_cols"`
	ToCols   []string `json:"to_cols"`
	Cost     float64  `json:"cost"`
}

// Edge returns the graph edge the dump describes.
func (d EdgeDump) Edge() sourcegraph.Edge {
	return sourcegraph.Edge{From: d.From, To: d.To, Kind: sourcegraph.EdgeKind(d.Kind),
		FromCols: d.FromCols, ToCols: d.ToCols, Cost: d.Cost}
}

// TabDump serializes one workspace tab: its committed source node,
// schema, and concrete (non-suggested) rows. Suggested rows are pending
// proposals and are recomputed by the next suggestion refresh;
// provenance expressions are not serialized, so restored rows explain
// as bare pastes until re-derived.
type TabDump struct {
	Name       string       `json:"name"`
	SourceNode string       `json:"source_node,omitempty"`
	Columns    []columnDump `json:"columns"`
	Rows       [][]cellDump `json:"rows"`
}

// WorkspaceDump serializes the workspace surface — mode, tab set, and
// active tab — so an evicted session resumes exactly where it was.
type WorkspaceDump struct {
	Mode   uint8     `json:"mode"`
	Active string    `json:"active"`
	Tabs   []TabDump `json:"tabs"`
}

// CacheCounters carries the plan cache's lifetime hit/miss/eviction
// counters across an evict/reload cycle. The cache contents themselves
// are recomputed (a reloaded session's first refresh runs cold), but
// the counters stay continuous so hit-rate metrics don't lie after a
// reload.
type CacheCounters struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// Session is the serialized form of a CopyCat session.
type Session struct {
	Version   int                    `json:"version"`
	Relations []relationDump         `json:"relations"`
	Types     []modellearn.ModelDump `json:"types"`
	// Edges is the source graph in Graph.Edges() order.
	Edges     []EdgeDump    `json:"edges"`
	Workspace WorkspaceDump `json:"workspace"`
	// PlanCache is absent when the session runs without a plan cache.
	PlanCache *CacheCounters `json:"plancache,omitempty"`
	// Quality carries the session's suggestion-quality counters
	// (acceptance rate, rank-of-accepted, rounds-to-accept) across an
	// evict/reload cycle, like PlanCache does for cache counters.
	Quality obs.QualityStats `json:"quality"`
}

// CurrentVersion is the session format version, and the only one Load
// accepts.
const CurrentVersion = 3

// Save serializes a session snapshot. s carries the workspace surface
// and the plan-cache and quality counters; Save stamps the version and
// fills in the catalog's materialized relations, the type library, and
// every edge of g with its cost. cat, types and g may each be nil.
func Save(s Session, cat *catalog.Catalog, types *modellearn.Library, g *sourcegraph.Graph) ([]byte, error) {
	s.Version = CurrentVersion
	if cat != nil {
		for _, src := range cat.All() {
			if src.Kind != catalog.KindRelation || src.Rel == nil {
				continue
			}
			rd := relationDump{Name: src.Name, Origin: src.Origin, Keys: src.Keys, Columns: dumpColumns(src.Rel.Schema)}
			for _, row := range src.Rel.Rows {
				rd.Rows = append(rd.Rows, dumpRow(row))
			}
			s.Relations = append(s.Relations, rd)
		}
	}
	if types != nil {
		s.Types = types.Export()
	}
	if g != nil {
		for _, e := range g.Edges() {
			s.Edges = append(s.Edges, EdgeDump{From: e.From, To: e.To, Kind: uint8(e.Kind),
				FromCols: e.FromCols, ToCols: e.ToCols, Cost: e.Cost})
		}
	}
	return json.MarshalIndent(s, "", " ")
}

// Load parses a snapshot of the current version, merges its relations
// into cat and its types into the library (either may be nil to skip),
// and returns the decoded session for the caller to restore the graph,
// workspace and counters from.
func Load(data []byte, cat *catalog.Catalog, types *modellearn.Library) (*Session, error) {
	var s Session
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	if s.Version != CurrentVersion {
		return nil, fmt.Errorf("persist: unsupported session version %d (want %d)", s.Version, CurrentVersion)
	}
	if cat != nil {
		for _, rd := range s.Relations {
			rel := table.NewRelation(rd.Name, loadColumns(rd.Columns))
			for _, cells := range rd.Rows {
				if err := rel.Append(loadRow(cells)); err != nil {
					return nil, fmt.Errorf("persist: relation %s: %w", rd.Name, err)
				}
			}
			src := cat.AddRelation(rel, rd.Origin)
			src.Keys = rd.Keys
		}
	}
	if types != nil {
		types.Import(s.Types)
	}
	return &s, nil
}

func dumpColumns(schema table.Schema) []columnDump {
	out := make([]columnDump, len(schema))
	for i, c := range schema {
		out[i] = columnDump{Name: c.Name, Kind: uint8(c.Kind), SemType: c.SemType}
	}
	return out
}

func loadColumns(cols []columnDump) table.Schema {
	schema := make(table.Schema, len(cols))
	for i, c := range cols {
		schema[i] = table.Column{Name: c.Name, Kind: table.Kind(c.Kind), SemType: c.SemType}
	}
	return schema
}

func dumpRow(row table.Tuple) []cellDump {
	cells := make([]cellDump, len(row))
	for i, v := range row {
		switch v.Kind() {
		case table.KindString:
			cells[i] = cellDump{K: uint8(table.KindString), V: v.Str()}
		case table.KindNumber:
			cells[i] = cellDump{K: uint8(table.KindNumber), N: v.Num()}
		case table.KindBool:
			cells[i] = cellDump{K: uint8(table.KindBool), B: v.Bool()}
		default:
			cells[i] = cellDump{K: uint8(table.KindNull)}
		}
	}
	return cells
}

func loadRow(cells []cellDump) table.Tuple {
	row := make(table.Tuple, len(cells))
	for i, c := range cells {
		switch table.Kind(c.K) {
		case table.KindString:
			row[i] = table.S(c.V)
		case table.KindNumber:
			row[i] = table.N(c.N)
		case table.KindBool:
			row[i] = table.B(c.B)
		default:
			row[i] = table.Null()
		}
	}
	return row
}

// DumpWorkspace captures the workspace surface: the interaction mode,
// every tab's schema, committed source node, and concrete rows, and
// which tab is active. Pending suggestions, undo history, and
// provenance are intentionally not captured — they are recomputed (or
// reset) on reload; see RestoreWorkspace.
func DumpWorkspace(w *workspace.Workspace) WorkspaceDump {
	d := WorkspaceDump{Mode: uint8(w.Mode()), Active: w.ActiveTab().Name}
	for _, t := range w.Tabs() {
		td := TabDump{Name: t.Name, SourceNode: t.SourceNode, Columns: dumpColumns(t.Schema)}
		for _, r := range t.ConcreteRows() {
			td.Rows = append(td.Rows, dumpRow(r.Cells))
		}
		d.Tabs = append(d.Tabs, td)
	}
	return d
}

// RestoreWorkspace replays a WorkspaceDump into a (fresh) workspace:
// tabs are recreated with their schemas, source nodes, and concrete
// rows, then the saved active tab and mode are re-selected. Restored
// rows carry no provenance (they explain as bare values until
// re-derived) and no suggestion state — the next refresh recomputes
// proposals from the restored source graph, which is exactly what makes
// an evict/reload cycle output-invisible.
func RestoreWorkspace(w *workspace.Workspace, d WorkspaceDump) {
	for _, td := range d.Tabs {
		t := w.SelectTab(td.Name)
		t.Schema = loadColumns(td.Columns)
		t.SourceNode = td.SourceNode
		t.Rows = nil
		for _, cells := range td.Rows {
			t.Rows = append(t.Rows, workspace.Row{Cells: loadRow(cells)})
		}
	}
	if d.Active != "" {
		w.SelectTab(d.Active)
	}
	w.SetMode(workspace.Mode(d.Mode))
}

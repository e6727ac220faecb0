// Package session turns CopyCat from a one-workspace library into a
// hostable multi-tenant service. Every piece of mutable state a user
// accumulates — imported relations, learned semantic types, MIRA edge
// weights, the plan cache, the decision log, SLO windows — already
// hangs off one workspace.Workspace; this package wraps that state in a
// Session handle and hosts thousands of them behind a Manager with:
//
//   - create/attach/snapshot/evict lifecycle (attach pins a session for
//     exclusive use; release unpins it);
//   - bounded aggregate memory: when the resident estimate crosses the
//     budget the least-recently-used unpinned session is serialized to a
//     persist snapshot and dropped, then transparently reloaded on its
//     next attach;
//   - admission control wired to the host SLO substrate: when the
//     fast-burn alert on the aggregate suggest-refresh objective fires
//     (or the session table is full, or a majority of host breakers are
//     open), new sessions are shed with ErrOverloaded/ErrCapacity and
//     the telemetry server's /readyz flips to 503.
//
// The single-workspace facade (copycat.System) wraps one standalone
// Session, so the library API and the hosted service share one state
// model.
package session

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"copycat/internal/catalog"
	"copycat/internal/modellearn"
	"copycat/internal/persist"
	"copycat/internal/sourcegraph"
	"copycat/internal/workspace"
)

// Lifecycle errors. ErrCapacity and ErrOverloaded are admission
// rejections (the caller should retry later or elsewhere); ErrBusy
// means the session is pinned by another holder right now.
var (
	ErrNotFound   = errors.New("session: not found")
	ErrBusy       = errors.New("session: busy")
	ErrCapacity   = errors.New("session: at capacity")
	ErrOverloaded = errors.New("session: host overloaded")
	ErrNoSnapshot = errors.New("session: no snapshot to reload")
)

// State is everything a session owns: the workspace (tabs, learners,
// caches, logs, SLO windows) plus the catalog and type library it was
// built over. A Factory produces a fresh State per session; Restore
// replays a persisted snapshot into a fresh one.
type State struct {
	Workspace *workspace.Workspace
	Catalog   *catalog.Catalog
	Types     *modellearn.Library
}

// Factory builds a fresh, empty State: catalog with services
// registered, trained type library, new workspace. The manager calls it
// on Create and again on every reload (services are functions and are
// not serialized — the factory re-registers them, then Restore replays
// the snapshot on top).
type Factory func() (*State, error)

// Snapshot serializes the state in the persist format: relations,
// types, the source graph with its learned edge costs, the workspace
// surface, and the plan-cache and quality counters. SLO window state is
// intentionally NOT serialized: the windows are time-based (minutes),
// so by the time an evicted session is reloaded they would have aged
// out anyway — reload resets them, and DESIGN.md §12 documents the
// reset.
func (st *State) Snapshot() ([]byte, error) {
	ws := st.Workspace
	s := persist.Session{Workspace: persist.DumpWorkspace(ws), Quality: ws.Quality.Snapshot()}
	if pc := ws.PlanCache; pc != nil {
		h, m, e := pc.Stats()
		s.PlanCache = &persist.CacheCounters{Hits: h, Misses: m, Evictions: e}
	}
	return persist.Save(s, st.Catalog, st.Types, ws.Int.Graph)
}

// Restore replays a snapshot into this state: relations and types merge
// into the catalog/library, every saved edge is added to the source
// graph with its saved cost (the graph was discovered before it was
// saved, so it is not discovered again), non-default costs seed the
// MIRA learner, the workspace surface (tabs, mode) is rebuilt, and the
// plan-cache and quality counters carry forward. The cache contents
// start cold; incremental refresh re-fills them (warm and cold
// refreshes are output-equivalent, so the reload is invisible in the
// suggestions).
func (st *State) Restore(data []byte) error {
	s, err := persist.Load(data, st.Catalog, st.Types)
	if err != nil {
		return err
	}
	ws := st.Workspace
	g := ws.Int.Graph
	for _, d := range s.Edges {
		id := g.AddEdge(d.Edge()).ID
		g.SetCost(id, d.Cost)
		if d.Cost != sourcegraph.DefaultCost {
			ws.Int.Mira.SetWeight(id, d.Cost)
		}
	}
	persist.RestoreWorkspace(ws, s.Workspace)
	if s.PlanCache != nil && ws.PlanCache != nil {
		ws.PlanCache.RestoreStats(s.PlanCache.Hits, s.PlanCache.Misses, s.PlanCache.Evictions)
	}
	ws.Quality.Restore(s.Quality)
	return nil
}

// sessionBaseBytes is the per-session overhead estimate (learners,
// graph, registries) added on top of the data-proportional terms.
const sessionBaseBytes = 64 << 10

// spanBytes is the estimate per span a traced session's trace retains
// (at most obs.DefaultSpanRingSize).
const spanBytes = 256

// SizeEstimate approximates the resident footprint in bytes — catalog
// rows, workspace tabs, plan-cache entries, decision-log length,
// retained trace spans — for the manager's aggregate memory accounting.
// It is an estimate used for LRU budgeting, not an exact heap
// measurement.
func (st *State) SizeEstimate() int64 {
	n := int64(sessionBaseBytes)
	if st.Catalog != nil {
		for _, src := range st.Catalog.All() {
			if src.Rel != nil {
				n += int64(len(src.Rel.Schema)+1) * int64(len(src.Rel.Rows)+1) * 64
			}
		}
	}
	if ws := st.Workspace; ws != nil {
		for _, t := range ws.Tabs() {
			n += int64(len(t.Schema)+1) * int64(len(t.Rows)+1) * 64
		}
		if ws.PlanCache != nil {
			n += int64(ws.PlanCache.Len()) * 4096
		}
		n += int64(ws.Decisions.Len()) * 256
		n += int64(ws.Trace().Len()) * spanBytes
	}
	return n
}

// Session is the handle all mutable CopyCat state hangs off. A session
// is either resident (its State in memory) or evicted (its State
// serialized in the manager's Store); Acquire pins it resident,
// reloading transparently if needed, and Release unpins it.
//
// The pin is a real mutex held across the acquire→release window:
// exactly one holder drives a session's workspace at a time (the
// workspace itself is not internally synchronized), and the evictor
// only TryLocks, so a pinned session is never snapshotted mid-use.
type Session struct {
	id     string
	tenant string
	mgr    *Manager // nil for standalone (single-workspace facade)

	// useMu is the pin; held from Acquire to Release.
	useMu sync.Mutex

	refreshes atomic.Int64 // suggest.refresh stages observed by the hook

	mu        sync.Mutex // guards the fields below (lock order: mgr.mu → mu)
	st        *State     // nil while evicted
	created   time.Time
	lastUsed  time.Time
	bytes     int64 // last size estimate while resident
	reloads   int64
	evictions int64
	destroyed bool
}

// NewStandalone wraps a State in an unmanaged session handle: no
// manager, never evicted, Release is a no-op. The copycat.System facade
// is exactly this — one standalone session.
func NewStandalone(id string, st *State) *Session {
	now := time.Now()
	return &Session{id: id, st: st, created: now, lastUsed: now}
}

// ID returns the session's handle ID (unique within its manager).
func (s *Session) ID() string { return s.id }

// Tenant returns the tenant label the session was created under.
func (s *Session) Tenant() string { return s.tenant }

// State returns the session's resident state. Only valid while the
// session is pinned (between Acquire and Release) or standalone; the
// evictor may drop an unpinned session's state at any time.
func (s *Session) State() *State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st
}

// Release unpins the session: its footprint estimate and recency are
// refreshed in the manager's accounting, and it becomes eligible for
// LRU eviction again. No-op on standalone sessions.
func (s *Session) Release() {
	if s.mgr == nil {
		return
	}
	s.mgr.release(s)
}

// Info is a point-in-time description of one session for /sessions and
// the REPL's :session list.
type Info struct {
	ID        string    `json:"id"`
	Tenant    string    `json:"tenant,omitempty"`
	Resident  bool      `json:"resident"`
	Bytes     int64     `json:"bytes"`
	Refreshes int64     `json:"refreshes"`
	Reloads   int64     `json:"reloads"`
	Evictions int64     `json:"evictions"`
	Created   time.Time `json:"created"`
	LastUsed  time.Time `json:"last_used"`
}

func (s *Session) info() Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Info{
		ID:        s.id,
		Tenant:    s.tenant,
		Resident:  s.st != nil,
		Bytes:     s.bytes,
		Refreshes: s.refreshes.Load(),
		Reloads:   s.reloads,
		Evictions: s.evictions,
		Created:   s.created,
		LastUsed:  s.lastUsed,
	}
}

// String renders one :session list line.
func (i Info) String() string {
	state := "evicted"
	if i.Resident {
		state = "resident"
	}
	return fmt.Sprintf("%-10s %-10s %-8s %8dB refreshes=%d reloads=%d evictions=%d",
		i.ID, i.Tenant, state, i.Bytes, i.Refreshes, i.Reloads, i.Evictions)
}

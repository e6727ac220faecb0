// Package workspace implements the CopyCat workspace (§2.1): the
// spreadsheet-like surface the user pastes into. It routes pastes to the
// structure/model learners in import mode and to the integration learner
// in integration mode, displays row and column auto-completion
// suggestions, renders tuple explanations from provenance, processes
// accept/reject feedback, and keeps the keystroke ledger the E1
// experiment measures.
//
// The paper's Java Swing GUI is replaced by this headless model plus an
// ASCII renderer (cmd/copycat); every SCP behaviour lives here.
package workspace

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"copycat/internal/catalog"
	"copycat/internal/engine"
	"copycat/internal/intlearn"
	"copycat/internal/modellearn"
	"copycat/internal/obs"
	"copycat/internal/obs/flight"
	"copycat/internal/plancache"
	"copycat/internal/provenance"
	"copycat/internal/resilience"
	"copycat/internal/sourcegraph"
	"copycat/internal/structlearn"
	"copycat/internal/table"
	"copycat/internal/wrappers"
)

// Mode is the workspace interaction mode (§2.1, §5).
type Mode uint8

const (
	// ModeImport generalizes pastes into source extractors.
	ModeImport Mode = iota
	// ModeIntegration infers cross-source queries and completions.
	ModeIntegration
	// ModeCleaning applies edits to single tuples without generalizing
	// (§5 "Data cleaning").
	ModeCleaning
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeImport:
		return "import"
	case ModeIntegration:
		return "integration"
	case ModeCleaning:
		return "cleaning"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// Row is one workspace row.
type Row struct {
	Cells table.Tuple
	Prov  provenance.Expr
	// Suggested rows are auto-completions awaiting feedback; accepted or
	// pasted rows have Suggested=false.
	Suggested bool
}

// Tab is one tabbed pane of the workspace; integration mode creates one
// per source plus one for the query output (§2.1).
type Tab struct {
	Name   string
	Schema table.Schema
	Rows   []Row
	// SourceNode is the catalog source this tab was imported as ("" until
	// the import is committed).
	SourceNode string
	// TypeHints holds the per-column ranked semantic-type hypotheses for
	// the UI drop-downs.
	TypeHints [][]modellearn.TypeScore
	// Query is the integration query this tab displays the output of
	// (query-output tabs only); it enables saved mediated views.
	Query *intlearn.Query
}

// ConcreteRows returns the non-suggested rows.
func (t *Tab) ConcreteRows() []Row {
	var out []Row
	for _, r := range t.Rows {
		if !r.Suggested {
			out = append(out, r)
		}
	}
	return out
}

// SuggestedRows returns the pending auto-completion rows.
func (t *Tab) SuggestedRows() []Row {
	var out []Row
	for _, r := range t.Rows {
		if r.Suggested {
			out = append(out, r)
		}
	}
	return out
}

// Relation materializes the tab's concrete rows.
func (t *Tab) Relation() *table.Relation {
	rel := table.NewRelation(t.Name, t.Schema.Clone())
	for _, r := range t.ConcreteRows() {
		rel.Rows = append(rel.Rows, r.Cells)
	}
	return rel
}

// Workspace is the SCP workspace.
type Workspace struct {
	Clip  *wrappers.Clipboard
	Cat   *catalog.Catalog
	Types *modellearn.Library
	Int   *intlearn.Learner
	Keys  *Ledger

	// ExecStats accumulates executor instrumentation (rows, service
	// calls, cache hits, pruned trees) across every suggestion refresh
	// and query run of the session.
	ExecStats *engine.Stats
	// SvcCache memoizes service calls across plan executions — candidate
	// completions re-invoke the same services with the same bindings on
	// every refresh, and this removes those repeat calls.
	SvcCache *engine.ServiceCache
	// PlanCache memoizes whole candidate-plan results keyed by canonical
	// fingerprints (DESIGN.md §10), so steady-state refreshes re-execute
	// only candidates whose inputs changed since the last pass. Set to
	// nil to force cold, recompute-everything refreshes.
	PlanCache *plancache.Cache
	// ExecTimeout bounds each suggestion/query execution; 0 means no
	// deadline. Interactive hosts set this to keep suggestion refreshes
	// within typing latency.
	ExecTimeout time.Duration
	// Resilience, when non-nil, shields service calls with retries and
	// per-service circuit breakers; rows whose lookups still fail
	// transiently degrade (are skipped or null-padded) instead of failing
	// the plan. Nil preserves fail-fast execution.
	Resilience *resilience.Caller
	// Metrics is the unified metrics registry: per-stage latency
	// histograms plus any gauges the session publishes. Always non-nil
	// after New.
	Metrics *obs.Registry
	// Decisions logs why each candidate was pruned, degraded, suggested,
	// outranked, accepted, or rejected (the :why surface). Always
	// non-nil after New.
	Decisions *obs.DecisionLog
	// SLO tracks the suggestion-refresh latency objective over rolling
	// fast/slow burn windows — the "recent behaviour" counterpart of the
	// cumulative Metrics histograms, surfaced by the telemetry server's
	// /healthz and /metrics and the REPL :slo command. Always non-nil
	// after New; it reads the workspace clock, so virtual-clock sessions
	// burn deterministically.
	SLO *obs.SLOTracker
	// Clock drives stage timing and (when tracing) span timestamps; nil
	// means the wall clock. Inject a resilience.VirtualClock for
	// deterministic traces.
	Clock resilience.Clock
	// SessionID identifies the session handle that owns this workspace in
	// a multi-tenant host. When set, every stage span carries it as the
	// "session" attribute (so a followed /trace/stream interleaving many
	// tenants stays attributable). "" for the single-workspace facade.
	SessionID string
	// StageHook, when non-nil, observes every completed pipeline stage
	// (name + duration) in addition to this workspace's own histograms
	// and SLO tracker. The session manager uses it to fold per-session
	// latencies into host-level admission-control SLOs.
	StageHook func(stage string, d time.Duration)
	// Quality accumulates live suggestion-quality telemetry (acceptance
	// rate, rank-of-accepted histogram, rounds-to-accept) from every
	// accept/reject/undo. Always non-nil after New; folded into
	// MetricsSnapshot as the "quality.*" families.
	Quality *obs.QualityTracker
	// QualityHook, when non-nil, observes every quality event in
	// addition to the workspace's own tracker. The session manager uses
	// it to aggregate host-level and per-tenant quality counters that
	// survive session eviction.
	QualityHook func(ev obs.QualityEvent)

	// trace is the active span tracer; nil (the default) disables
	// tracing at ~zero cost. Managed by EnableTracing/DisableTracing;
	// atomic because a metrics scrape may read it during a toggle.
	trace atomic.Pointer[obs.Trace]
	// spanRing buffers ended spans for live streaming (/trace/stream);
	// EnableTracing plugs it into the trace as a sink.
	spanRing *obs.SpanRing
	// flight is the always-on flight recorder: it captures incident
	// bundles from its events, spanRing and Decisions when a trigger
	// fires. A session manager replaces it with the shared host recorder
	// via SetFlight; nil detaches it (the overhead experiment's control).
	flight *flight.Recorder

	mode   Mode
	tabs   []*Tab
	active int

	// structLearners tracks the per-tab import learner.
	structLearners map[string]*structlearn.Learner
	// pendingCols are the current column auto-completion proposals.
	pendingCols []intlearn.Completion
	// pendingQueries are the current row-explanation query proposals.
	pendingQueries []*intlearn.Query
	// queryTerminals are the sources behind the last integration paste;
	// RefreshQuerySuggestions re-asks the learner for them so background
	// exact refinement (the tiered solver) can surface re-ranks.
	queryTerminals []string
	// demotions counts per-edge tuple demotions for aggregation into
	// completion-level rejection.
	demotions map[string]int
	// undoStack holds snapshots for Undo.
	undoStack []snapshot
	// roundsSinceAccept counts suggestion refreshes since the last
	// accepted suggestion — the live rounds-to-accept numerator.
	roundsSinceAccept int
	// views are the saved mediated views by name.
	views map[string]*intlearn.Query
}

// DefaultPlanCacheSize bounds the plan result cache New installs. A
// session's live candidate set is a few dozen plans; 256 keeps several
// feedback epochs' worth of results resident so oscillating weights can
// re-hit earlier entries.
const DefaultPlanCacheSize = 256

// New creates a workspace over a catalog and type library. The source
// graph and integration learner are created on top of the catalog.
func New(cat *catalog.Catalog, types *modellearn.Library) *Workspace {
	g := sourcegraph.New(cat)
	w := &Workspace{
		Clip:           wrappers.NewClipboard(),
		Cat:            cat,
		Types:          types,
		Int:            intlearn.New(g),
		Keys:           NewLedger(),
		ExecStats:      engine.NewStats(),
		SvcCache:       engine.NewServiceCache(),
		PlanCache:      plancache.New(DefaultPlanCacheSize),
		Metrics:        obs.NewRegistry(),
		Quality:        obs.NewQualityTracker(),
		structLearners: map[string]*structlearn.Learner{},
		demotions:      map[string]int{},
	}
	// The tracker reads w.now at observe time, so a clock injected after
	// New (NewDemoSystem installs the virtual clock last) still drives it.
	w.SLO = obs.NewSLOTracker(obs.DefaultSLOConfig(), w.now)
	// The flight recorder likewise reads w.now per record, so it follows
	// a late-injected virtual clock (and re-anchors its cooldowns when
	// the clock jumps backwards to the virtual epoch).
	w.flight = flight.New(flight.Config{
		Clock:    w.now,
		Metrics:  w.MetricsSnapshot,
		Registry: w.Metrics,
	})
	// Captures read the workspace's own rings, stamped on its clock.
	w.spanRing = obs.NewSpanRing(obs.DefaultSpanRingSize, w.now)
	w.Decisions = obs.NewDecisionLog(0, w.now)
	w.flight.Attach(w.spanRing, w.Decisions)
	// Every recorded decision paces whichever recorder is current (the
	// closure re-reads w.flight, so SetFlight redirects it too).
	w.Decisions.SetSink(func(d obs.Decision) { w.flight.ObserveDecision(d) })
	// Background exact-refinement failures are an incident trigger: the
	// refine goroutine captured this hook at spawn, so it reports into
	// the recorder that owned the workspace when the refresh started.
	w.Int.RefineFailHook = func(reason string) {
		w.flight.RecordEvent(flight.EventRefineFailed, w.SessionID, "", reason)
		w.flight.Trigger(flight.TriggerRefineFailure, reason, w.SessionID, "")
	}
	w.tabs = []*Tab{{Name: "Sheet1", Schema: table.Schema{}}}
	return w
}

// Mode returns the current interaction mode.
func (w *Workspace) Mode() Mode { return w.mode }

// SetMode switches modes explicitly (the §2.1 button).
func (w *Workspace) SetMode(m Mode) { w.mode = m }

// Tabs lists the tabbed panes.
func (w *Workspace) Tabs() []*Tab { return w.tabs }

// ActiveTab returns the selected tab.
func (w *Workspace) ActiveTab() *Tab { return w.tabs[w.active] }

// SelectTab activates the named tab, creating it if needed.
func (w *Workspace) SelectTab(name string) *Tab {
	for i, t := range w.tabs {
		if t.Name == name {
			w.active = i
			return t
		}
	}
	t := &Tab{Name: name, Schema: table.Schema{}}
	w.tabs = append(w.tabs, t)
	w.active = len(w.tabs) - 1
	return t
}

// RenameColumn sets a column header (the user typing a label, Figure 1's
// "Name"). In cleaning or any mode this is a direct edit.
func (w *Workspace) RenameColumn(i int, name string) error {
	t := w.ActiveTab()
	if i < 0 || i >= len(t.Schema) {
		return fmt.Errorf("workspace: no column %d", i)
	}
	w.Keys.Type(name)
	t.Schema[i].Name = name
	return nil
}

// SetColumnType overrides a column's semantic type (picking from the
// drop-down, or defining a new type on the fly — which trains the model
// learner from the column's current values).
func (w *Workspace) SetColumnType(i int, semType string) error {
	t := w.ActiveTab()
	if i < 0 || i >= len(t.Schema) {
		return fmt.Errorf("workspace: no column %d", i)
	}
	w.Keys.Click()
	t.Schema[i].SemType = semType
	if w.Types.Model(semType) == nil {
		var vals []string
		for _, r := range t.ConcreteRows() {
			if i < len(r.Cells) {
				vals = append(vals, r.Cells[i].Text())
			}
		}
		w.Types.DefineType(semType, vals)
	}
	if t.SourceNode != "" {
		_ = w.Cat.SetSemType(t.SourceNode, t.Schema[i].Name, semType)
		// A corrected type changes which associations are possible —
		// refresh the source graph (feedback flowing from the model
		// learner to the integration learner, §5).
		w.Int.Graph.Discover(sourcegraph.DefaultOptions())
	}
	return nil
}

// SetCell edits a cell directly. In cleaning mode (or for concrete rows)
// the edit is applied without generalization (§5 "Data cleaning").
func (w *Workspace) SetCell(row, col int, value string) error {
	t := w.ActiveTab()
	if row < 0 || row >= len(t.Rows) || col < 0 || col >= len(t.Schema) {
		return fmt.Errorf("workspace: cell (%d,%d) out of range", row, col)
	}
	w.checkpoint(opEdit)
	w.Keys.Type(value)
	t.Rows[row].Cells[col] = table.ParseValue(value)
	t.Rows[row].Suggested = false
	return nil
}

// ExplainRow renders the Tuple Explanation pane for a row of the active
// tab (Figure 2, bottom).
func (w *Workspace) ExplainRow(i int) (string, error) {
	t := w.ActiveTab()
	if i < 0 || i >= len(t.Rows) {
		return "", fmt.Errorf("workspace: no row %d", i)
	}
	r := t.Rows[i]
	var b strings.Builder
	fmt.Fprintf(&b, "Tuple: (%s)\n", strings.Join(r.Cells.Texts(), ", "))
	srcs := provenance.Sources(r.Prov)
	if len(srcs) > 0 {
		fmt.Fprintf(&b, "Sources: %s\n", strings.Join(srcs, ", "))
	}
	b.WriteString(provenance.Explain(r.Prov))
	return b.String(), nil
}

// Render draws the active tab as an aligned ASCII grid, marking suggested
// rows with a leading '?' (the paper's yellow highlight).
func (w *Workspace) Render() string {
	t := w.ActiveTab()
	widths := make([]int, len(t.Schema))
	header := make([]string, len(t.Schema))
	for i, c := range t.Schema {
		header[i] = c.Name
		if c.SemType != "" {
			header[i] += " [" + c.SemType + "]"
		}
		widths[i] = len(header[i])
	}
	for _, r := range t.Rows {
		for i, v := range r.Cells {
			if i < len(widths) && len(v.Text()) > widths[i] {
				widths[i] = len(v.Text())
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] tab %q (%s mode)\n", strings.ToUpper(w.mode.String()), t.Name, w.mode)
	b.WriteString("  ")
	for i := range t.Schema {
		fmt.Fprintf(&b, "| %-*s ", widths[i], header[i])
	}
	b.WriteString("|\n")
	for _, r := range t.Rows {
		if r.Suggested {
			b.WriteString("? ")
		} else {
			b.WriteString("  ")
		}
		for i, v := range r.Cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "| %-*s ", widths[i], v.Text())
			}
		}
		b.WriteString("|\n")
	}
	return b.String()
}

// ---------------------------------------------------------------- helpers

// columnValues gathers the concrete values of every column of a tab.
func columnValues(t *Tab) [][]string {
	out := make([][]string, len(t.Schema))
	for _, r := range t.ConcreteRows() {
		for i := range t.Schema {
			if i < len(r.Cells) {
				out[i] = append(out[i], r.Cells[i].Text())
			}
		}
	}
	return out
}

// execCtx builds the workspace's execution context: the session's shared
// stats block and service cache, the configured deadline, and the
// observability surfaces — a stage span (when tracing), the stage's
// latency histogram, and the decision log. The returned cancel func
// must be called when the execution finishes; it also closes the stage.
func (w *Workspace) execCtx(stage string) (*engine.ExecCtx, context.CancelFunc) {
	ctx, cancel := context.Background(), context.CancelFunc(func() {})
	if w.ExecTimeout > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), w.ExecTimeout)
	}
	opts := []engine.ExecOption{
		engine.WithStats(w.ExecStats),
		engine.WithServiceCache(w.SvcCache),
	}
	if w.PlanCache != nil {
		opts = append(opts, engine.WithPlanCache(w.PlanCache))
	}
	if w.Resilience != nil {
		opts = append(opts, engine.WithResilience(w.Resilience))
	}
	if tr := w.trace.Load(); tr != nil {
		opts = append(opts, engine.WithTrace(tr))
	}
	if w.Metrics != nil {
		opts = append(opts, engine.WithMetrics(w.Metrics))
	}
	if w.Decisions != nil {
		opts = append(opts, engine.WithDecisions(w.Decisions))
	}
	if w.Clock != nil {
		opts = append(opts, engine.WithExecClock(w.Clock))
	}
	ec := engine.NewExecCtx(ctx, opts...)
	sp, done := w.stage(stage)
	if sp != nil {
		ec = ec.WithSpan(sp)
	}
	realCancel := cancel
	return ec, func() {
		done()
		realCancel()
	}
}

// valuesPlan exposes the active tab's concrete rows to the engine.
func (w *Workspace) valuesPlan() *engine.Values {
	t := w.ActiveTab()
	var rows []provenance.Annotated
	for _, r := range t.ConcreteRows() {
		rows = append(rows, provenance.Annotated{Row: r.Cells, Prov: r.Prov})
	}
	return &engine.Values{Name: t.Name, Schema_: t.Schema, Rows: rows}
}

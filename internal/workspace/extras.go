package workspace

import (
	"fmt"
	"strings"

	"copycat/internal/docmodel"
	"copycat/internal/engine"
	"copycat/internal/intlearn"
	"copycat/internal/obs"
	"copycat/internal/sourcegraph"
	"copycat/internal/table"
	"copycat/internal/transform"
)

// ---------------------------------------------------------------- transforms (§5)

// DiscoverTransform searches for functions over the active tab's columns
// that reproduce the example outputs (row index → desired text the user
// typed into a prospective new column). Candidates come back best-first
// (§5 "Complex functions / transforms"; [19]).
func (w *Workspace) DiscoverTransform(examples map[int]string) []transform.Candidate {
	for _, v := range examples {
		w.Keys.Type(v)
	}
	t := w.ActiveTab()
	rows := make([]table.Tuple, 0, len(t.Rows))
	for _, r := range t.ConcreteRows() {
		rows = append(rows, r.Cells)
	}
	return transform.Discover(t.Schema, rows, examples)
}

// ApplyTransform appends a computed column to the active tab, filling
// every row with the candidate's output. The new column's provenance is
// each row's own (a computed value derives from the same inputs).
func (w *Workspace) ApplyTransform(cand transform.Candidate, columnName string) error {
	w.checkpoint(opTransform)
	w.Keys.Accept()
	t := w.ActiveTab()
	if t.Schema.Index(columnName) >= 0 {
		return fmt.Errorf("workspace: column %q already exists", columnName)
	}
	for i := range t.Rows {
		v, err := cand.Apply(t.Rows[i].Cells)
		if err != nil {
			return fmt.Errorf("workspace: applying %s to row %d: %w", cand.Desc, i, err)
		}
		t.Rows[i].Cells = append(t.Rows[i].Cells, v)
	}
	t.Schema = append(t.Schema, table.Column{Name: columnName, Kind: table.KindString})
	w.annotateActiveTab()
	if t.SourceNode != "" {
		rel := t.Relation()
		rel.Name = t.SourceNode
		w.Cat.AddRelation(rel, "workspace")
		w.Int.Graph.Discover(sourcegraph.DefaultOptions())
	}
	return nil
}

// ---------------------------------------------------------------- tuple-level feedback

// DemoteSuggestedTuple rejects one tuple of a pending column completion
// ("promoting or demoting tuples", §2.2). The tuple is removed from the
// proposal; once most of a completion's tuples have been demoted, the
// whole completion is rejected — the per-tuple feedback aggregates into
// query-level feedback through provenance.
func (w *Workspace) DemoteSuggestedTuple(compIdx, rowIdx int) error {
	w.Keys.Reject()
	if compIdx < 0 || compIdx >= len(w.pendingCols) {
		return fmt.Errorf("workspace: no pending column %d", compIdx)
	}
	c := &w.pendingCols[compIdx]
	if rowIdx < 0 || rowIdx >= len(c.Result.Rows) {
		return fmt.Errorf("workspace: completion %d has no row %d", compIdx, rowIdx)
	}
	c.Result.Rows = append(c.Result.Rows[:rowIdx], c.Result.Rows[rowIdx+1:]...)
	w.demotions[c.Edge.ID]++
	w.qualityReject(obs.FeedbackTuples)
	if w.demotions[c.Edge.ID] > (len(c.Result.Rows)+w.demotions[c.Edge.ID])/2 {
		return w.RejectColumn(compIdx)
	}
	return nil
}

// PromoteSuggestedTuple pins one tuple of a pending completion as known
// good; the positive feedback nudges the completion's edge to stay well
// inside the suggestion threshold.
func (w *Workspace) PromoteSuggestedTuple(compIdx, rowIdx int) error {
	w.Keys.Accept()
	if compIdx < 0 || compIdx >= len(w.pendingCols) {
		return fmt.Errorf("workspace: no pending column %d", compIdx)
	}
	c := w.pendingCols[compIdx]
	if rowIdx < 0 || rowIdx >= len(c.Result.Rows) {
		return fmt.Errorf("workspace: completion %d has no row %d", compIdx, rowIdx)
	}
	w.Int.PromoteCompletion(c)
	w.qualityEvent(obs.QualityEvent{Kind: obs.FeedbackTuples, Accepted: true, Rank: -1})
	return nil
}

// ---------------------------------------------------------------- undo (§5)

// snapshot captures the active tab and mode for undo, labelled with the
// operation that took it (so an undone accept is attributable).
type snapshot struct {
	op             string
	mode           Mode
	active         int
	tabName        string
	schema         table.Schema
	rows           []Row
	sourceNode     string
	pendingCols    []intlearn.Completion
	pendingQueries []*intlearn.Query
}

const maxUndo = 32

// checkpoint records the current state of the active tab. Mutating
// operations call it so the user can "undo ... portions of what they
// have demonstrated" (§5 "Advanced interactions").
func (w *Workspace) checkpoint(op string) {
	t := w.ActiveTab()
	snap := snapshot{
		op:         op,
		mode:       w.mode,
		active:     w.active,
		tabName:    t.Name,
		schema:     t.Schema.Clone(),
		sourceNode: t.SourceNode,
	}
	for _, r := range t.Rows {
		snap.rows = append(snap.rows, Row{Cells: r.Cells.Clone(), Prov: r.Prov, Suggested: r.Suggested})
	}
	snap.pendingCols = append(snap.pendingCols, w.pendingCols...)
	snap.pendingQueries = append(snap.pendingQueries, w.pendingQueries...)
	w.undoStack = append(w.undoStack, snap)
	if len(w.undoStack) > maxUndo {
		w.undoStack = w.undoStack[1:]
	}
}

// dropCheckpoint discards the most recent checkpoint — for operations
// that fail after checkpointing without having mutated anything.
func (w *Workspace) dropCheckpoint() {
	if len(w.undoStack) > 0 {
		w.undoStack = w.undoStack[:len(w.undoStack)-1]
	}
}

// CanUndo reports whether an undo step is available.
func (w *Workspace) CanUndo() bool { return len(w.undoStack) > 0 }

// Undo restores the workspace to the state before the last mutating
// operation on the then-active tab.
func (w *Workspace) Undo() error {
	if len(w.undoStack) == 0 {
		return fmt.Errorf("workspace: nothing to undo")
	}
	snap := w.undoStack[len(w.undoStack)-1]
	w.undoStack = w.undoStack[:len(w.undoStack)-1]
	w.mode = snap.mode
	// Find (or recreate) the snapshotted tab.
	tab := w.SelectTab(snap.tabName)
	tab.Schema = snap.schema
	tab.Rows = snap.rows
	tab.SourceNode = snap.sourceNode
	w.pendingCols = snap.pendingCols
	w.pendingQueries = snap.pendingQueries
	// Keep the catalog in sync with the restored contents.
	if tab.SourceNode != "" {
		rel := tab.Relation()
		rel.Name = tab.SourceNode
		w.Cat.AddRelation(rel, "workspace")
	}
	w.qualityUndo(snap.op)
	return nil
}

// ---------------------------------------------------------------- aggregation (§5)

// Summarize groups the active tab and loads the aggregates into a new
// "Summary of <tab>" pane (§5: advanced users can request aggregations
// directly, "as in a spreadsheet"). Aggregate expressions use the
// engine's syntax: "count", "sum(Col)", "avg(Col)", "min(Col)",
// "max(Col)". Group provenance merges every contributing tuple, so
// explanations on a summary row list its members.
func (w *Workspace) Summarize(groupBy []string, aggExprs ...string) (*Tab, error) {
	w.Keys.Click()
	src := w.ActiveTab()
	base := w.valuesPlan()
	agg, err := engine.NewAggregateByName(base, groupBy, aggExprs...)
	if err != nil {
		return nil, err
	}
	ec, cancel := w.execCtx("execute.summarize")
	ec.Stats().PlansExecuted.Add(1)
	res, err := agg.Execute(ec)
	cancel()
	if err != nil {
		return nil, err
	}
	out := w.SelectTab("Summary of " + src.Name)
	out.Schema = res.Schema.Clone()
	out.Rows = nil
	for _, a := range res.Rows {
		out.Rows = append(out.Rows, Row{Cells: a.Row, Prov: a.Prov})
	}
	w.annotateActiveTab()
	return out, nil
}

// ---------------------------------------------------------------- edit-intent detection (§5)

// EditIntent reports how SmartSetCell interpreted an edit.
type EditIntent uint8

const (
	// EditCleaning is a single-tuple fix that must not generalize.
	EditCleaning EditIntent = iota
	// EditGeneralized is a correction of the extraction: the new value
	// exists in the source document, so the learner re-generalizes with
	// the corrected example.
	EditGeneralized
)

// String names the intent.
func (e EditIntent) String() string {
	if e == EditGeneralized {
		return "generalized"
	}
	return "cleaning"
}

// SmartSetCell edits a cell and infers the user's intent — the paper's
// §5 open question ("whether the system can automatically determine when
// the user is cleaning a single tuple, versus making changes that should
// be generalized"). Heuristic: if the new value occurs in the tab's
// source document, the user is correcting a mis-extraction, and the
// corrected row is fed back to the structure learner as an example; a
// value foreign to the source is a data-cleaning edit and stays local.
func (w *Workspace) SmartSetCell(row, col int, value string) (EditIntent, error) {
	t := w.ActiveTab()
	if row < 0 || row >= len(t.Rows) || col < 0 || col >= len(t.Schema) {
		return EditCleaning, fmt.Errorf("workspace: cell (%d,%d) out of range", row, col)
	}
	lrn, hasLearner := w.structLearners[t.Name]
	if err := w.SetCell(row, col, value); err != nil {
		return EditCleaning, err
	}
	if !hasLearner || lrn.Doc() == nil || w.mode == ModeCleaning {
		return EditCleaning, nil
	}
	found := false
	for _, ch := range lrn.Doc().Chunks() {
		if strings.Contains(ch.Text, strings.TrimSpace(value)) {
			found = true
			break
		}
	}
	if !found {
		return EditCleaning, nil
	}
	// Generalize: the corrected row becomes a fresh example.
	corrected := t.Rows[row].Cells.Texts()
	err := lrn.AddExamples(docmodel.Selection{
		Cells: [][]string{corrected},
		Doc:   lrn.Doc(),
	})
	if err != nil {
		return EditCleaning, nil // the edit stands; generalization just failed
	}
	w.refreshRowSuggestions()
	return EditGeneralized, nil
}

// ---------------------------------------------------------------- ambiguity resolution (Example 1)

// AmbiguousGroups finds rows in the active tab that are alternative
// answers for the same original tuple — e.g. a shelter name that resolved
// to addresses in two cities (Example 1: "the shelter name may be
// ambiguous and might return multiple answers: here CopyCat would show
// the alternatives and allow the integrator to select the appropriate
// location"). Rows group by the first base-tuple leaf of their
// provenance; only groups with more than one member are returned, keyed
// by that leaf.
func (w *Workspace) AmbiguousGroups() map[string][]int {
	t := w.ActiveTab()
	groups := map[string][]int{}
	for i, r := range t.Rows {
		if r.Prov == nil {
			continue
		}
		leaves := r.Prov.Leaves(nil)
		if len(leaves) == 0 {
			continue
		}
		groups[string(leaves[0])] = append(groups[string(leaves[0])], i)
	}
	for k, idxs := range groups {
		if len(idxs) < 2 {
			delete(groups, k)
		}
	}
	return groups
}

// ChooseAlternative keeps row rowIdx and removes its sibling alternatives
// (rows whose provenance starts from the same base tuple). It returns how
// many siblings were removed.
func (w *Workspace) ChooseAlternative(rowIdx int) (int, error) {
	t := w.ActiveTab()
	if rowIdx < 0 || rowIdx >= len(t.Rows) {
		return 0, fmt.Errorf("workspace: no row %d", rowIdx)
	}
	chosen := t.Rows[rowIdx]
	if chosen.Prov == nil {
		return 0, fmt.Errorf("workspace: row %d has no provenance to disambiguate by", rowIdx)
	}
	leaves := chosen.Prov.Leaves(nil)
	if len(leaves) == 0 {
		return 0, fmt.Errorf("workspace: row %d has no base tuple", rowIdx)
	}
	w.checkpoint(opChoose)
	w.Keys.Click()
	base := string(leaves[0])
	kept := t.Rows[:0]
	removed := 0
	for i := range t.Rows {
		r := t.Rows[i]
		if i != rowIdx && r.Prov != nil {
			if ls := r.Prov.Leaves(nil); len(ls) > 0 && string(ls[0]) == base {
				removed++
				continue
			}
		}
		kept = append(kept, r)
	}
	t.Rows = kept
	return removed, nil
}

// ServiceAlternatives lists services that can replace the named one
// (equivalent learned descriptions, §3.2) — what the workspace offers
// when a suggestion's service is down or slow.
func (w *Workspace) ServiceAlternatives(svcName string) []string {
	var out []string
	for _, s := range w.Int.Replacements(svcName) {
		out = append(out, s.Name)
	}
	return out
}

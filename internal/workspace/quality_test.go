package workspace

import (
	"strings"
	"testing"

	"copycat/internal/obs"
)

// TestQualityInstrumentationAcrossSurfaces drives the demo flow and
// checks every feedback surface lands on the right tracker slot: row
// accepts, column rejects and accepts, rounds-to-accept, and the undo
// attribution back to the accepted surface.
func TestQualityInstrumentationAcrossSurfaces(t *testing.T) {
	var hooked []obs.QualityEvent
	e := newEnv(t, 0)
	e.ws.QualityHook = func(ev obs.QualityEvent) { hooked = append(hooked, ev) }
	e.pasteShelters(t, 2)
	if err := e.ws.AcceptRows(); err != nil {
		t.Fatal(err)
	}
	st := e.ws.QualityStats()
	if st.Accepts[obs.FeedbackRows] != 1 {
		t.Fatalf("row accept not tracked: %+v", st)
	}

	e.ws.SetMode(ModeIntegration)
	if comps := e.ws.RefreshColumnSuggestions(); len(comps) < 2 {
		t.Fatalf("need ≥2 column suggestions, got %d", len(comps))
	}
	if err := e.ws.RejectColumn(0); err != nil {
		t.Fatal(err)
	}
	if err := e.ws.AcceptColumn(0); err != nil {
		t.Fatal(err)
	}
	st = e.ws.QualityStats()
	if st.Accepts[obs.FeedbackColumns] != 1 || st.Rejects[obs.FeedbackColumns] != 1 {
		t.Fatalf("column feedback not tracked: %+v", st)
	}
	if st.TotalAccepts != 2 || st.TotalRejects != 1 {
		t.Fatalf("totals = %d/%d, want 2/1", st.TotalAccepts, st.TotalRejects)
	}
	// The accepted column held rank 0 at accept time.
	if st.AcceptedRank[0] != 2 {
		t.Fatalf("rank histogram = %v, want two rank-0 accepts", st.AcceptedRank)
	}
	// At least one suggestion refresh ran between the row accept and the
	// column accept, so rounds-to-accept observed a nonzero value.
	if st.RoundsObserved == 0 || st.MeanRounds <= 0 {
		t.Fatalf("rounds-to-accept not observed: %+v", st)
	}

	// Undoing the column accept is attributed back to the columns surface.
	if err := e.ws.Undo(); err != nil {
		t.Fatal(err)
	}
	st = e.ws.QualityStats()
	if st.AcceptsUndone != 1 {
		t.Fatalf("undo not tracked: %+v", st)
	}

	// The hook saw the same stream the tracker did.
	var accepts, rejects, undos int
	for _, ev := range hooked {
		switch {
		case ev.Undo:
			undos++
		case ev.Accepted:
			accepts++
		default:
			rejects++
		}
	}
	if accepts != 2 || rejects != 1 || undos != 1 {
		t.Fatalf("hook saw %d/%d/%d accept/reject/undo, want 2/1/1", accepts, rejects, undos)
	}
}

// TestQualityDecisionLog: every feedback event also lands in the
// decision log's "quality" stage, the `:why quality` surface.
func TestQualityDecisionLog(t *testing.T) {
	e := newEnv(t, 0)
	e.ws.Decisions = obs.NewDecisionLog(0, nil)
	e.pasteShelters(t, 2)
	if err := e.ws.AcceptRows(); err != nil {
		t.Fatal(err)
	}
	ds := e.ws.Decisions.For("quality." + obs.FeedbackRows)
	if len(ds) != 1 || ds[0].Stage != "quality" || ds[0].Action != obs.ActionAccepted {
		t.Fatalf("quality decision missing or wrong: %+v", ds)
	}
	if !strings.Contains(ds[0].Reason, "rolling acceptance") {
		t.Errorf("decision reason should carry the rolling rate: %q", ds[0].Reason)
	}
}

// TestRenderQuality pins the :quality report format.
func TestRenderQuality(t *testing.T) {
	q := obs.NewQualityTracker()
	q.Accept(obs.FeedbackColumns, 1, 2)
	q.Reject(obs.FeedbackQueries)
	q.UndoAccept(obs.FeedbackColumns)
	out := RenderQuality(q.Snapshot())
	for _, want := range []string{
		"suggestion quality: 1 accepts / 1 rejects (acceptance rate 0.500)",
		"columns 1/0",
		"queries 0/1",
		"rank1=1",
		"mean 1.000 over 1 ranked accepts",
		"mean 2.000 over 1 observed accepts",
		"accepts undone         1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderQuality missing %q:\n%s", want, out)
		}
	}
}

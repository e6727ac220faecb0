package copycat

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"copycat/internal/obs/flight"
)

// TestFlightRecorderCapturesBreakerIncident is the flight-recorder
// acceptance test: on a deterministic virtual clock, injected service
// faults open a circuit breaker, the breaker-open trigger captures
// exactly one bundle to disk, a re-trip inside the cooldown window is
// suppressed (no second bundle), and the rendered post-mortem names the
// breaker transition, the degraded spans, and the affected session.
func TestFlightRecorderCapturesBreakerIncident(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultWorldConfig()
	cfg.FaultRate = 0.9
	cfg.FaultSeed = 7
	sys := NewDemoSystem(cfg)
	sys.EnableTracing() // spans feed the recorder's timeline
	ws := sys.Workspace
	ws.SessionID = "sess-demo"
	rec := sys.FlightRecorder()
	if rec == nil {
		t.Fatal("demo system has no flight recorder")
	}
	rec.SetDir(dir)
	// A long cooldown makes the exactly-once window unambiguous: every
	// breaker-open after the first must be suppressed for the rest of the
	// test.
	rec.SetCooldown(10 * time.Minute)

	// Drive the faulty pipeline until a breaker opens.
	browser := sys.OpenBrowser(sys.ShelterSite(StyleTable))
	s0, s1 := sys.World.Shelters[0], sys.World.Shelters[1]
	sel, err := browser.CopyRows([][]string{
		{s0.Name, s0.Street, s0.City},
		{s1.Name, s1.Street, s1.City},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.Paste(sel); err != nil {
		t.Fatal(err)
	}
	if err := ws.AcceptRows(); err != nil {
		t.Fatal(err)
	}
	ws.SetMode(ModeIntegration)
	openService := ""
	for i := 0; i < 20 && openService == ""; i++ {
		ws.RefreshColumnSuggestions()
		for _, b := range sys.Breakers() {
			if b.StateName == "open" {
				openService = b.Service
				break
			}
		}
	}
	if openService == "" {
		t.Fatal("no breaker opened under a 90% fault rate")
	}

	breakerIncidents := func() []IncidentSummary {
		var out []IncidentSummary
		for _, s := range rec.Incidents() {
			if s.Trigger == flight.TriggerBreakerOpen {
				out = append(out, s)
			}
		}
		return out
	}
	captured := breakerIncidents()
	if len(captured) != 1 {
		t.Fatalf("breaker-open captured %d bundles, want exactly 1: %+v", len(captured), captured)
	}
	onDisk := func() []string {
		files, err := filepath.Glob(filepath.Join(dir, "*breaker-open*.json"))
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	files := onDisk()
	if len(files) != 1 {
		t.Fatalf("disk holds %d breaker-open bundles, want exactly 1: %v", len(files), files)
	}

	// Re-trip the same breaker inside the capture cooldown: after the
	// breaker's own 30s cooldown it half-opens on the next Allow, and the
	// probe's failure re-opens it — a new transition to open, which the
	// recorder must suppress, not double-capture.
	suppressedBefore := rec.Suppressed()
	sys.Clock.Advance(31 * time.Second)
	b := ws.Resilience.Breaker(openService)
	if err := b.Allow(); err != nil {
		t.Fatalf("breaker should half-open after its cooldown: %v", err)
	}
	b.Failure()
	if got := breakerIncidents(); len(got) != 1 {
		t.Fatalf("re-trip inside cooldown captured again: %d bundles", len(got))
	}
	if rec.Suppressed() <= suppressedBefore {
		t.Errorf("re-trip should increment incidents.suppressed (before=%d after=%d)",
			suppressedBefore, rec.Suppressed())
	}
	if files = onDisk(); len(files) != 1 {
		t.Fatalf("suppressed re-trip still wrote a bundle: %v", files)
	}

	// The bundle on disk is self-contained: read it back cold and render
	// the post-mortem.
	inc, err := ReadIncidentBundle(files[0])
	if err != nil {
		t.Fatalf("ReadIncidentBundle: %v", err)
	}
	out := RenderIncident(inc)
	if !strings.Contains(out, "-> open") {
		t.Errorf("post-mortem does not name the breaker transition:\n%s", out)
	}
	if !strings.Contains(out, "DEGRADED") {
		t.Errorf("post-mortem does not flag the degraded spans:\n%s", out)
	}
	if !strings.Contains(out, "sess-demo") {
		t.Errorf("post-mortem does not name the affected session:\n%s", out)
	}
	if !strings.Contains(out, "trigger   breaker.open") {
		t.Errorf("post-mortem does not state the trigger:\n%s", out)
	}

	// The live list serves the same incident.
	live, ok := rec.Incident(inc.ID)
	if !ok {
		t.Fatalf("incident %s not in the live recorder", inc.ID)
	}
	if live.Session != "sess-demo" || live.Trigger != flight.TriggerBreakerOpen {
		t.Errorf("live incident mismatch: %+v", live)
	}
}

// TestFlightRecorderDetachIsInert is the overhead experiment's control
// arm: SetFlight(nil) detaches the recorder, so the workspace's
// lifecycle events and triggers reach no recorder, and re-attaching
// resumes them. Spans and decisions stay in the workspace's own rings
// either way, and a capture after re-attaching reads them there.
func TestFlightRecorderDetachIsInert(t *testing.T) {
	sys := NewDemoSystem(DefaultWorldConfig())
	sys.EnableTracing()
	ws := sys.Workspace
	rec := sys.FlightRecorder()
	rec.SetCooldown(time.Millisecond)

	ws.SetFlight(nil)
	if got := sys.FlightRecorder(); got != nil {
		t.Fatal("detach should leave no recorder on the workspace")
	}
	// A background refine failure reports through the workspace's hook,
	// which now hits the nil recorder and no-ops.
	ws.Int.RefineFailHook("refine failed while detached")
	if events, _, _ := rec.Retained(); events != 0 || rec.Captured() != 0 {
		t.Fatalf("detached recorder still received events=%d captures=%d", events, rec.Captured())
	}
	browser := sys.OpenBrowser(sys.ShelterSite(StyleTable))
	s0 := sys.World.Shelters[0]
	sel, err := browser.CopyRows([][]string{{s0.Name, s0.Street, s0.City}})
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.Paste(sel); err != nil {
		t.Fatal(err)
	}
	if err := ws.AcceptRows(); err != nil {
		t.Fatal(err)
	}
	ws.SetMode(ModeIntegration)
	ws.RefreshColumnSuggestions()

	ws.SetFlight(rec)
	ws.Int.RefineFailHook("refine failed while attached")
	if events, _, _ := rec.Retained(); events != 1 || rec.Captured() != 1 {
		t.Fatalf("re-attached recorder should resume: events=%d captures=%d", events, rec.Captured())
	}
	inc, ok := rec.Incident(rec.Incidents()[0].ID)
	if !ok {
		t.Fatal("captured incident should be retrievable")
	}
	if len(inc.Spans) == 0 || len(inc.Decisions) == 0 {
		t.Errorf("bundle should read the workspace's rings: spans=%d decisions=%d", len(inc.Spans), len(inc.Decisions))
	}
}

// TestIncidentBundleSIGQUITTrigger exercises the operator
// capture-on-demand path end to end minus the signal itself: the
// sigquit trigger captures whatever the recorder holds right now.
func TestIncidentBundleSIGQUITTrigger(t *testing.T) {
	dir := t.TempDir()
	sys := NewDemoSystem(DefaultWorldConfig())
	rec := sys.FlightRecorder()
	rec.SetDir(dir)
	id, ok := rec.Trigger(flight.TriggerSignal, "operator SIGQUIT", "", "")
	if !ok {
		t.Fatal("sigquit trigger should capture")
	}
	data, err := os.ReadFile(filepath.Join(dir, id+".json"))
	if err != nil {
		t.Fatalf("bundle not on disk: %v", err)
	}
	if !strings.Contains(string(data), `"trigger": "sigquit"`) {
		t.Errorf("bundle does not record the sigquit trigger:\n%s", data)
	}
}

package flight

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"copycat/internal/obs"
)

// testClock is a hand-advanced clock for deterministic capture tests.
type testClock struct{ now time.Time }

func (c *testClock) Now() time.Time          { return c.now }
func (c *testClock) Advance(d time.Duration) { c.now = c.now.Add(d) }
func (c *testClock) Set(t time.Time)         { c.now = t }
func newTestClock() *testClock               { return &testClock{now: time.Unix(1_000_000, 0)} }

// testRecorder is a recorder attached to a span ring and a decision log
// on the test clock, as a standalone workspace wires it.
type testRecorder struct {
	*Recorder
	spans     *obs.SpanRing
	decisions *obs.DecisionLog
}

func newTestRecorder(c *testClock, cfg Config) *testRecorder {
	cfg.Clock = c.Now
	r := &testRecorder{Recorder: New(cfg), spans: obs.NewSpanRing(0, c.Now), decisions: obs.NewDecisionLog(0, c.Now)}
	r.Attach(r.spans, r.decisions)
	return r
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	r.RecordEvent(EventBreaker, "s1", "t1", "closed -> open")
	r.ObserveSpan(obs.SpanEvent{Name: "x"})
	r.ObserveDecision(obs.Decision{Candidate: "c"})
	r.SetDir("/nope")
	r.SetCooldown(time.Second)
	if r.Armed(TriggerBreakerOpen) {
		t.Error("nil recorder should never be armed")
	}
	if id, ok := r.Trigger(TriggerBreakerOpen, "r", "", ""); ok || id != "" {
		t.Errorf("nil recorder captured %q", id)
	}
	if got := r.Incidents(); got != nil {
		t.Errorf("nil recorder listed incidents: %v", got)
	}
	if _, ok := r.Incident("inc-000001-x"); ok {
		t.Error("nil recorder returned an incident")
	}
	if r.Captured() != 0 || r.Suppressed() != 0 {
		t.Error("nil recorder has nonzero counters")
	}
	if e, s, d := r.Retained(); e+s+d != 0 {
		t.Error("nil recorder retains data")
	}
}

// TestTriggerCooldownCapturesExactlyOnce is the core exactly-once
// guarantee: repeated triggers of one kind inside the cooldown window
// are suppressed and counted, a different kind still captures, and the
// same kind captures again once the cooldown has elapsed.
func TestTriggerCooldownCapturesExactlyOnce(t *testing.T) {
	clk := newTestClock()
	r := newTestRecorder(clk, Config{Cooldown: 30 * time.Second})
	id1, ok := r.Trigger(TriggerBreakerOpen, "geocoder tripped", "s1", "")
	if !ok || id1 == "" {
		t.Fatalf("first trigger should capture, got %q %v", id1, ok)
	}
	for i := 0; i < 3; i++ {
		clk.Advance(time.Second)
		if _, ok := r.Trigger(TriggerBreakerOpen, "again", "s1", ""); ok {
			t.Fatalf("trigger %d inside cooldown should be suppressed", i)
		}
	}
	if got := r.Suppressed(); got != 3 {
		t.Errorf("suppressed = %d, want 3", got)
	}
	if got := r.Captured(); got != 1 {
		t.Errorf("captured = %d, want 1", got)
	}
	// A different trigger kind has its own cooldown.
	if _, ok := r.Trigger(TriggerEvictError, "disk full", "s2", "acme"); !ok {
		t.Error("different trigger kind should not share the cooldown")
	}
	// After the cooldown the original kind fires again.
	clk.Advance(31 * time.Second)
	if !r.Armed(TriggerBreakerOpen) {
		t.Error("should be armed after cooldown")
	}
	id2, ok := r.Trigger(TriggerBreakerOpen, "tripped again", "s1", "")
	if !ok {
		t.Fatal("post-cooldown trigger should capture")
	}
	if id2 == id1 {
		t.Errorf("incident IDs should be unique, both %q", id1)
	}
	if got := r.Captured(); got != 3 {
		t.Errorf("captured = %d, want 3", got)
	}
}

// TestTimelineRetentionAndAttribution checks that a bundle carries only
// the retention window and attributes its contents per session/tenant.
func TestTimelineRetentionAndAttribution(t *testing.T) {
	clk := newTestClock()
	r := newTestRecorder(clk, Config{Retention: 60 * time.Second})
	// Old data outside the retention window must not appear.
	r.RecordEvent(EventEvict, "old-session", "old-tenant", "too old")
	r.spans.Publish(obs.SpanEvent{Name: "old"})
	r.decisions.Record(obs.Decision{Session: "old-session", Candidate: "old"})
	clk.Advance(2 * time.Minute)
	r.RecordEvent(EventBreaker, "s1", "", "geocoder: closed -> open")
	r.spans.Publish(obs.SpanEvent{Name: "stage.execute", DurNs: 1500, Attrs: []obs.Attr{
		{Key: "session", Value: "s1"}, {Key: "error", Value: "breaker geocoder open"},
	}})
	r.decisions.Record(obs.Decision{Session: "s1", Stage: "session.evict", Candidate: "s1", Action: obs.ActionDropped, Reason: "x"})
	r.RecordEvent(EventShed, "", "acme", "at capacity")
	id, ok := r.Trigger(TriggerBreakerOpen, "geocoder open", "s1", "")
	if !ok {
		t.Fatal("trigger should capture")
	}
	inc, ok := r.Incident(id)
	if !ok {
		t.Fatal("captured incident should be retrievable")
	}
	if len(inc.Events) != 2 {
		t.Fatalf("events = %d, want 2 (stale one dropped): %+v", len(inc.Events), inc.Events)
	}
	for _, e := range inc.Events {
		if e.Session == "old-session" {
			t.Error("event outside the retention window leaked into the bundle")
		}
	}
	if len(inc.Spans) != 1 || len(inc.Decisions) != 1 {
		t.Fatalf("spans=%d decisions=%d, want 1/1", len(inc.Spans), len(inc.Decisions))
	}
	a := inc.Sessions["s1"]
	if a.Events != 1 || a.Spans != 1 || a.Decisions != 1 {
		t.Errorf("s1 attribution = %+v, want events=1 spans=1 decisions=1", a)
	}
	if inc.Tenants["acme"].Events != 1 {
		t.Errorf("acme attribution = %+v, want events=1", inc.Tenants["acme"])
	}
	if inc.Runtime.Goroutines <= 0 || inc.Runtime.GOMAXPROCS <= 0 {
		t.Errorf("runtime stats not captured: %+v", inc.Runtime)
	}
}

// TestRingCapsBoundMemory drives the event ring past its cap and the
// attached span and decision rings past the per-bundle caps: the event
// ring keeps exactly its newest MaxEvents, and a bundle carries exactly
// the newest maxBundleSpans spans and maxBundleDecisions decisions.
func TestRingCapsBoundMemory(t *testing.T) {
	clk := newTestClock()
	r := newTestRecorder(clk, Config{MaxEvents: 8})
	for i := 0; i < 100; i++ {
		r.RecordEvent(EventEvict, "s", "", "e")
	}
	for i := 0; i < maxBundleSpans+10; i++ {
		r.spans.Publish(obs.SpanEvent{Name: "x"})
	}
	for i := 0; i < maxBundleDecisions+10; i++ {
		r.decisions.Record(obs.Decision{Candidate: "c"})
	}
	e, s, d := r.Retained()
	if e != 8 || s != maxBundleSpans+10 || d != maxBundleDecisions+10 {
		t.Errorf("retained events=%d spans=%d decisions=%d, want 8/%d/%d",
			e, s, d, maxBundleSpans+10, maxBundleDecisions+10)
	}
	id, ok := r.Trigger(TriggerSignal, "capture", "", "")
	if !ok {
		t.Fatal("trigger should capture")
	}
	inc, _ := r.Incident(id)
	if len(inc.Events) != 8 || inc.Events[7].Seq != 100 {
		t.Errorf("bundle events = %d (last seq %d), want the newest 8", len(inc.Events), inc.Events[len(inc.Events)-1].Seq)
	}
	if len(inc.Spans) != maxBundleSpans || inc.Spans[0].Span.Seq != 11 {
		t.Errorf("bundle spans = %d (first seq %d), want the newest %d", len(inc.Spans), inc.Spans[0].Span.Seq, maxBundleSpans)
	}
	if len(inc.Decisions) != maxBundleDecisions || inc.Decisions[0].Decision.Seq != 11 {
		t.Errorf("bundle decisions = %d (first seq %d), want the newest %d",
			len(inc.Decisions), inc.Decisions[0].Decision.Seq, maxBundleDecisions)
	}
}

// TestPeriodicSnapshotsAndDeltas checks that metric snapshots pace on
// the clock, become a bundle's pre state, and diff into counter deltas.
func TestPeriodicSnapshotsAndDeltas(t *testing.T) {
	clk := newTestClock()
	reg := obs.NewRegistry()
	c := reg.Counter("engine.rows")
	r := newTestRecorder(clk, Config{SnapshotEvery: 5 * time.Second, Metrics: reg.Snapshot})
	c.Add(10)
	r.RecordEvent(EventEvict, "s", "", "first") // takes the initial snapshot
	c.Add(5)
	clk.Advance(6 * time.Second)
	r.RecordEvent(EventEvict, "s", "", "second") // snapshot due again
	c.Add(7)
	clk.Advance(time.Second)
	id, ok := r.Trigger(TriggerEvictError, "boom", "s", "")
	if !ok {
		t.Fatal("trigger should capture")
	}
	inc, _ := r.Incident(id)
	if inc.Pre.Counters["engine.rows"] != 15 {
		t.Errorf("pre counter = %d, want 15 (newest snapshot before capture)", inc.Pre.Counters["engine.rows"])
	}
	if inc.Post.Counters["engine.rows"] != 22 {
		t.Errorf("post counter = %d, want 22", inc.Post.Counters["engine.rows"])
	}
	if inc.CounterDeltas["engine.rows"] != 7 {
		t.Errorf("delta = %d, want 7", inc.CounterDeltas["engine.rows"])
	}
	if inc.PreAgeNs != time.Second.Nanoseconds() {
		t.Errorf("pre age = %d, want 1s", inc.PreAgeNs)
	}
}

// TestBackwardsClockReanchors reproduces the facade's construction
// order: the recorder starts on the wall clock, then a virtual clock
// anchored in the past is injected. Snapshots and cooldowns must
// re-anchor instead of stalling until virtual time catches up to 2026.
func TestBackwardsClockReanchors(t *testing.T) {
	clk := &testClock{now: time.Now()}
	reg := obs.NewRegistry()
	r := newTestRecorder(clk, Config{Cooldown: 30 * time.Second, SnapshotEvery: 5 * time.Second, Metrics: reg.Snapshot})
	r.RecordEvent(EventEvict, "s", "", "on the wall clock")
	if _, ok := r.Trigger(TriggerBreakerOpen, "wall-clock capture", "", ""); !ok {
		t.Fatal("first trigger should capture")
	}
	// The virtual clock lands far in the past.
	clk.Set(time.Unix(0, 0).Add(time.Hour))
	if !r.Armed(TriggerBreakerOpen) {
		t.Error("backwards clock jump should re-arm the trigger")
	}
	r.RecordEvent(EventEvict, "s", "", "on the virtual clock")
	if _, ok := r.Trigger(TriggerBreakerOpen, "virtual-clock capture", "", ""); !ok {
		t.Error("trigger after the backwards jump should capture")
	}
}

// TestIncidentListAndBoundedRetention checks newest-first listing and
// the in-memory incident cap.
func TestIncidentListAndBoundedRetention(t *testing.T) {
	clk := newTestClock()
	r := newTestRecorder(clk, Config{MaxIncidents: 3, Cooldown: time.Second})
	var last string
	for i := 0; i < 5; i++ {
		id, ok := r.Trigger(TriggerSignal, "capture", "", "")
		if !ok {
			t.Fatalf("capture %d suppressed", i)
		}
		last = id
		clk.Advance(2 * time.Second)
	}
	list := r.Incidents()
	if len(list) != 3 {
		t.Fatalf("retained %d incidents, want 3", len(list))
	}
	if list[0].ID != last {
		t.Errorf("newest first: got %s, want %s", list[0].ID, last)
	}
	// The evicted oldest bundle is gone.
	if _, ok := r.Incident("inc-000001-sigquit"); ok {
		t.Error("oldest incident should have been pruned from memory")
	}
}

// TestDiskBundlesWritePruneAndReadBack checks the on-disk side: bundles
// land as JSON files, the directory stays bounded, and ReadBundle
// round-trips a file back into an Incident.
func TestDiskBundlesWritePruneAndReadBack(t *testing.T) {
	dir := t.TempDir()
	clk := newTestClock()
	r := newTestRecorder(clk, Config{MaxIncidents: 2, Cooldown: time.Second, Dir: dir})
	r.RecordEvent(EventBreaker, "s1", "", "geocoder: closed -> open")
	var ids []string
	for i := 0; i < 4; i++ {
		id, ok := r.Trigger(TriggerBreakerOpen, "tripped", "s1", "")
		if !ok {
			t.Fatalf("capture %d suppressed", i)
		}
		ids = append(ids, id)
		clk.Advance(2 * time.Second)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("disk holds %d bundles, want 2 (pruned): %v", len(files), files)
	}
	inc, err := ReadBundle(filepath.Join(dir, ids[3]+".json"))
	if err != nil {
		t.Fatalf("ReadBundle: %v", err)
	}
	if inc.ID != ids[3] || inc.Trigger != TriggerBreakerOpen {
		t.Errorf("round-trip mismatch: %+v", inc)
	}
	if len(inc.Events) == 0 || inc.Events[0].Detail != "geocoder: closed -> open" {
		t.Errorf("bundle lost its timeline: %+v", inc.Events)
	}
	// Not-a-bundle files are rejected with a useful error.
	bad := filepath.Join(dir, "not-a-bundle.json")
	if err := os.WriteFile(bad, []byte(`{"x": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBundle(bad); err == nil {
		t.Error("ReadBundle should reject a JSON file with no id/trigger")
	}
	if _, err := ReadBundle(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("ReadBundle should fail on a missing file")
	}
}

// TestRenderTimelineNamesTheStory checks the post-mortem rendering: it
// must name the breaker transition, flag the degraded span, show the
// affected session, and print the counter deltas.
func TestRenderTimelineNamesTheStory(t *testing.T) {
	clk := newTestClock()
	reg := obs.NewRegistry()
	trips := reg.Counter("resilience.breaker_trips")
	r := newTestRecorder(clk, Config{SnapshotEvery: 5 * time.Second, Metrics: reg.Snapshot})
	r.RecordEvent(EventEvict, "s1", "acme", "warm-up") // initial snapshot, before the trip
	clk.Advance(2 * time.Second)
	trips.Inc()
	r.RecordEvent(EventBreaker, "s1", "", "geocoder: closed -> open")
	r.spans.Publish(obs.SpanEvent{Name: "stage.execute", DurNs: 250_000, Attrs: []obs.Attr{
		{Key: "session", Value: "s1"}, {Key: "breaker", Value: "geocoder"},
	}})
	r.decisions.Record(obs.Decision{Session: "s1", Stage: "suggest.columns", Candidate: "Zip", Action: obs.ActionDegraded, Reason: "rows dropped"})
	id, ok := r.Trigger(TriggerBreakerOpen, "geocoder: closed -> open", "s1", "acme")
	if !ok {
		t.Fatal("trigger should capture")
	}
	inc, _ := r.Incident(id)
	out := RenderTimeline(inc)
	for _, want := range []string{
		"incident " + id,
		"trigger   breaker.open — geocoder: closed -> open",
		"session   s1 (tenant acme)",
		"closed -> open",
		"DEGRADED (breaker=geocoder)",
		"[session=s1]",
		"decision  [suggest.columns] degraded Zip",
		"resilience.breaker_trips",
		"+1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
	if RenderTimeline(nil) != "no incident\n" {
		t.Error("nil incident should render a placeholder")
	}
}

// TestSummaryCountsMatchBundle checks the list view's counts.
func TestSummaryCountsMatchBundle(t *testing.T) {
	clk := newTestClock()
	r := newTestRecorder(clk, Config{})
	r.RecordEvent(EventShed, "", "acme", "capacity")
	r.spans.Publish(obs.SpanEvent{Name: "a"})
	r.spans.Publish(obs.SpanEvent{Name: "b"})
	id, _ := r.Trigger(TriggerSignal, "capture", "", "acme")
	list := r.Incidents()
	if len(list) != 1 {
		t.Fatalf("want 1 summary, got %d", len(list))
	}
	s := list[0]
	if s.ID != id || s.Events != 1 || s.Spans != 2 || s.Decisions != 0 || s.Tenant != "acme" {
		t.Errorf("summary %+v does not match the bundle", s)
	}
}

// TestRegistryCountersExported checks the copycat_incidents_* substrate:
// the counters exist at zero from construction and track captures,
// suppressions, and the stored gauge.
func TestRegistryCountersExported(t *testing.T) {
	clk := newTestClock()
	reg := obs.NewRegistry()
	r := newTestRecorder(clk, Config{Registry: reg, Cooldown: time.Minute})
	snap := reg.Snapshot()
	if v, ok := snap.Counters["incidents.captured"]; !ok || v != 0 {
		t.Errorf("incidents.captured should pre-exist at 0, got %d (present %v)", v, ok)
	}
	if v, ok := snap.Counters["incidents.suppressed"]; !ok || v != 0 {
		t.Errorf("incidents.suppressed should pre-exist at 0, got %d (present %v)", v, ok)
	}
	r.Trigger(TriggerSignal, "x", "", "")
	r.Trigger(TriggerSignal, "x", "", "") // suppressed
	snap = reg.Snapshot()
	if snap.Counters["incidents.captured"] != 1 || snap.Counters["incidents.suppressed"] != 1 {
		t.Errorf("counters = %+v, want captured=1 suppressed=1", snap.Counters)
	}
	if snap.Gauges["incidents.stored"] != 1 {
		t.Errorf("incidents.stored = %f, want 1", snap.Gauges["incidents.stored"])
	}
}

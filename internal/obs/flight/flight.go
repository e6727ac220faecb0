// Package flight is CopyCat's flight recorder: an always-on, bounded,
// low-overhead recorder of the recent past, so that when something goes
// wrong the causal context is still there to explain it. It keeps its
// own ring of lifecycle events (breaker transitions, eviction attempts
// and failures, refine failures, store quarantines, admission sheds)
// and periodic metric snapshots; spans and decision-log entries stay in
// the obs rings they are already published to (the span ring and
// decision log it is attached to), and a capture reads them there.
//
// Trigger rules (SLO fast-burn, breaker open, eviction failure, refine
// failure, store quarantine, SIGQUIT) capture a self-contained JSON
// incident bundle: the trigger, pre/post metric snapshots with counter
// deltas, the retained timeline, per-session and per-tenant
// attribution, and runtime stats. Bundles are kept in a bounded
// in-memory list and, when a directory is configured, written to a
// bounded on-disk incident dir (atomic temp+rename, oldest pruned).
// Per-trigger cooldowns and the incidents.suppressed counter keep
// incident storms from flooding the disk.
//
// Everything runs on an injectable clock, so virtual-clock sessions
// capture deterministically. A nil *Recorder is inert, like the rest of
// the obs substrate, so wiring can be unconditional.
package flight

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"copycat/internal/obs"
)

// Lifecycle event kinds recorded into the timeline.
const (
	// EventBreaker is a circuit-breaker state transition.
	EventBreaker = "breaker.transition"
	// EventEvict is a successful session eviction to the store.
	EventEvict = "session.evict"
	// EventEvictError is a failed eviction (snapshot or store error).
	EventEvictError = "session.evict_error"
	// EventShed is an admission-control rejection of a session create.
	EventShed = "admission.shed"
	// EventRefineFailed is a failed background exact refinement.
	EventRefineFailed = "solver.refine_failed"
	// EventQuarantine is a corrupt snapshot moved to quarantine.
	EventQuarantine = "store.quarantine"
)

// Trigger kinds. Each kind has its own capture cooldown; captures
// suppressed by the cooldown increment incidents.suppressed.
const (
	// TriggerSLOFastBurn fires when a stage completion sees the SLO
	// fast-burn alert raised.
	TriggerSLOFastBurn = "slo.fastburn"
	// TriggerBreakerOpen fires when a service circuit breaker opens.
	TriggerBreakerOpen = "breaker.open"
	// TriggerEvictError fires when a session eviction fails.
	TriggerEvictError = "evict.error"
	// TriggerRefineFailure fires when a background exact refinement
	// errors out or returns no trees.
	TriggerRefineFailure = "refine.failed"
	// TriggerStoreQuarantine fires when the snapshot store quarantines a
	// corrupt file.
	TriggerStoreQuarantine = "store.quarantine"
	// TriggerSignal fires on an operator SIGQUIT — capture-on-demand.
	TriggerSignal = "sigquit"
)

// Event is one lifecycle event in the retained timeline.
type Event struct {
	Seq     int64  `json:"seq"`
	AtNs    int64  `json:"at_ns"`
	Kind    string `json:"kind"`
	Session string `json:"session,omitempty"`
	Tenant  string `json:"tenant,omitempty"`
	Detail  string `json:"detail,omitempty"`
}

// SpanRecord is one retained span with its arrival timestamp on the
// recorder clock (span StartNs/DurNs are trace-epoch-relative).
type SpanRecord struct {
	AtNs int64         `json:"at_ns"`
	Span obs.SpanEvent `json:"span"`
}

// DecisionRecord is one retained decision-log entry with its arrival
// timestamp.
type DecisionRecord struct {
	AtNs     int64        `json:"at_ns"`
	Decision obs.Decision `json:"decision"`
}

// Config sizes and wires a Recorder. Zero fields take defaults.
type Config struct {
	// Retention bounds how far back a captured bundle's timeline
	// reaches. Default 60s.
	Retention time.Duration
	// Cooldown is the per-trigger-kind minimum spacing between captures;
	// triggers inside it are suppressed (and counted). Default 30s.
	Cooldown time.Duration
	// MaxEvents caps the lifecycle-event ring (the oldest entry is
	// overwritten on overflow). Default 512.
	MaxEvents int
	// SnapshotEvery paces the periodic metric snapshots that become a
	// bundle's "pre" state. Default 5s.
	SnapshotEvery time.Duration
	// MaxIncidents bounds both the in-memory incident list and the
	// on-disk incident dir (oldest pruned). Default 16.
	MaxIncidents int
	// Dir, when non-empty, is the on-disk incident directory bundles are
	// written to (atomic temp+rename).
	Dir string
	// Clock supplies timestamps; nil means the wall clock. Inject the
	// session's virtual clock for deterministic capture tests.
	Clock func() time.Time
	// Metrics, when non-nil, supplies the periodic and capture-time
	// metric snapshots (pre/post state in bundles).
	Metrics func() obs.Snapshot
	// Registry receives the incidents.captured / incidents.suppressed
	// counters and the incidents.stored gauge (exported by the telemetry
	// server as the copycat_incidents_* families). nil keeps them in a
	// private registry.
	Registry *obs.Registry
}

// Defaults for Config's zero fields.
const (
	DefaultRetention     = 60 * time.Second
	DefaultCooldown      = 30 * time.Second
	DefaultMaxEvents     = 512
	DefaultSnapshotEvery = 5 * time.Second
	DefaultMaxIncidents  = 16
)

// maxSnaps bounds the periodic-snapshot ring; maxBundleSpans and
// maxBundleDecisions cap how many of the newest spans and decisions in
// the retention window one bundle carries.
const (
	maxSnaps           = 16
	maxBundleSpans     = 2048
	maxBundleDecisions = 1024
)

func (c Config) withDefaults() Config {
	if c.Retention <= 0 {
		c.Retention = DefaultRetention
	}
	if c.Cooldown <= 0 {
		c.Cooldown = DefaultCooldown
	}
	if c.MaxEvents <= 0 {
		c.MaxEvents = DefaultMaxEvents
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = DefaultSnapshotEvery
	}
	if c.MaxIncidents <= 0 {
		c.MaxIncidents = DefaultMaxIncidents
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	return c
}

// RuntimeStats is the process-level state captured into a bundle.
type RuntimeStats struct {
	Goroutines      int    `json:"goroutines"`
	HeapAllocBytes  uint64 `json:"heap_alloc_bytes"`
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	NumGC           uint32 `json:"num_gc"`
	GOMAXPROCS      int    `json:"gomaxprocs"`
}

// Attribution counts how much of a bundle's timeline belongs to one
// session or tenant.
type Attribution struct {
	Events    int `json:"events,omitempty"`
	Spans     int `json:"spans,omitempty"`
	Decisions int `json:"decisions,omitempty"`
}

// Incident is one self-contained captured bundle — everything an
// operator needs to post-mortem the trigger without the live process.
type Incident struct {
	ID           string `json:"id"`
	Trigger      string `json:"trigger"`
	Reason       string `json:"reason,omitempty"`
	Session      string `json:"session,omitempty"`
	Tenant       string `json:"tenant,omitempty"`
	CapturedAtNs int64  `json:"captured_at_ns"`
	// Pre is the newest periodic metric snapshot preceding the capture
	// (PreAgeNs earlier); Post is taken at capture time. CounterDeltas
	// is post minus pre for every counter that moved.
	Pre           obs.Snapshot     `json:"pre"`
	PreAgeNs      int64            `json:"pre_age_ns,omitempty"`
	Post          obs.Snapshot     `json:"post"`
	CounterDeltas map[string]int64 `json:"counter_deltas,omitempty"`
	// The retained timeline, oldest first, bounded by the retention
	// window and the per-bundle caps.
	Events    []Event          `json:"events,omitempty"`
	Spans     []SpanRecord     `json:"spans,omitempty"`
	Decisions []DecisionRecord `json:"decisions,omitempty"`
	// Per-session / per-tenant share of the timeline.
	Sessions map[string]Attribution `json:"sessions,omitempty"`
	Tenants  map[string]Attribution `json:"tenants,omitempty"`
	Runtime  RuntimeStats           `json:"runtime"`
}

// Summary describes one captured incident (the GET /incidents list and
// the REPL :incidents table).
type Summary struct {
	ID           string `json:"id"`
	Trigger      string `json:"trigger"`
	Reason       string `json:"reason,omitempty"`
	Session      string `json:"session,omitempty"`
	Tenant       string `json:"tenant,omitempty"`
	CapturedAtNs int64  `json:"captured_at_ns"`
	Events       int    `json:"events"`
	Spans        int    `json:"spans"`
	Decisions    int    `json:"decisions"`
}

// Recorder is the flight recorder. Safe for concurrent use; a nil
// *Recorder is inert (every method no-ops), so observers can be wired
// unconditionally and detached by wiring nil.
type Recorder struct {
	cfg       Config
	events    *obs.Ring[Event]
	snaps     *obs.Ring[obs.Snapshot] // periodic metric snapshots
	incidents *obs.Ring[*Incident]

	mu          sync.Mutex // guards the fields below and cfg.Dir/Cooldown
	nextID      int64
	spans       *obs.SpanRing    // attached: read at capture
	decisions   *obs.DecisionLog // attached: read at capture
	lastSnap    time.Time
	lastTrigger map[string]time.Time

	captured   *obs.Counter
	suppressed *obs.Counter
	stored     *obs.Gauge
}

// New builds a recorder; zero Config fields take defaults. The
// incidents.captured and incidents.suppressed counters are created
// immediately so the metric families exist (at zero) before the first
// incident.
func New(cfg Config) *Recorder {
	cfg = cfg.withDefaults()
	return &Recorder{
		cfg: cfg,
		events: obs.NewRing(cfg.MaxEvents, cfg.Clock, func(e Event, seq, atNs int64) Event {
			e.Seq, e.AtNs = seq, atNs
			return e
		}),
		snaps:       obs.NewRing[obs.Snapshot](maxSnaps, cfg.Clock, nil),
		incidents:   obs.NewRing[*Incident](cfg.MaxIncidents, nil, nil),
		lastTrigger: map[string]time.Time{},
		captured:    cfg.Registry.Counter("incidents.captured"),
		suppressed:  cfg.Registry.Counter("incidents.suppressed"),
		stored:      cfg.Registry.Gauge("incidents.stored"),
	}
}

// Attach points the recorder at the rings its captures read spans and
// decisions from: a standalone workspace's own, or a host's shared
// ones. Either may be nil.
func (r *Recorder) Attach(spans *obs.SpanRing, decisions *obs.DecisionLog) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans, r.decisions = spans, decisions
	r.mu.Unlock()
}

func (r *Recorder) now() time.Time { return r.cfg.Clock() }

// SetDir points the recorder at an on-disk incident directory (bundles
// captured from now on are persisted there). "" disables persistence.
func (r *Recorder) SetDir(dir string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.cfg.Dir = dir
	r.mu.Unlock()
}

// SetCooldown overrides the per-trigger-kind capture cooldown.
func (r *Recorder) SetCooldown(d time.Duration) {
	if r == nil || d <= 0 {
		return
	}
	r.mu.Lock()
	r.cfg.Cooldown = d
	r.mu.Unlock()
}

// RecordEvent retains one lifecycle event.
func (r *Recorder) RecordEvent(kind, session, tenant, detail string) {
	if r == nil {
		return
	}
	r.events.Publish(Event{Kind: kind, Session: session, Tenant: tenant, Detail: detail})
	r.pace()
}

// ObserveSpan paces the periodic metric snapshots on an ended span (the
// trace sink calls it next to publishing into the span ring).
func (r *Recorder) ObserveSpan(obs.SpanEvent) {
	if r != nil {
		r.pace()
	}
}

// ObserveDecision paces the periodic metric snapshots on a recorded
// decision (the decision log's sink).
func (r *Recorder) ObserveDecision(obs.Decision) {
	if r != nil {
		r.pace()
	}
}

// pace takes a periodic metric snapshot when one is due. The slot is
// claimed under r.mu and the snapshot taken after unlocking, so the
// Metrics callback (which reads other subsystems' locks) never runs
// under the recorder lock.
func (r *Recorder) pace() {
	if r.cfg.Metrics == nil {
		return
	}
	now := r.now()
	r.mu.Lock()
	if !r.lastSnap.IsZero() && now.Before(r.lastSnap) {
		// The clock moved backwards (a virtual clock was injected after
		// construction): re-anchor rather than stall forever.
		r.lastSnap = time.Time{}
		r.lastTrigger = map[string]time.Time{}
	}
	due := r.lastSnap.IsZero() || now.Sub(r.lastSnap) >= r.cfg.SnapshotEvery
	if due {
		r.lastSnap = now
	}
	r.mu.Unlock()
	if due {
		r.snaps.Publish(r.cfg.Metrics())
	}
}

// Armed reports whether a trigger of this kind would capture right now
// (i.e. it is outside the kind's cooldown). Hot paths check it before
// computing an expensive trigger condition; a nil recorder is never
// armed.
func (r *Recorder) Armed(kind string) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	last, ok := r.lastTrigger[kind]
	if !ok {
		return true
	}
	now := r.now()
	if now.Before(last) {
		return true
	}
	return now.Sub(last) >= r.cfg.Cooldown
}

// Trigger captures an incident bundle for the given trigger kind,
// unless a capture of the same kind happened within the cooldown — then
// it is suppressed (incidents.suppressed). Returns the incident ID and
// whether a bundle was captured.
func (r *Recorder) Trigger(kind, reason, session, tenant string) (string, bool) {
	if r == nil {
		return "", false
	}
	r.mu.Lock()
	now := r.now()
	if last, ok := r.lastTrigger[kind]; ok && !now.Before(last) && now.Sub(last) < r.cfg.Cooldown {
		r.mu.Unlock()
		r.suppressed.Inc()
		return "", false
	}
	r.lastTrigger[kind] = now
	r.nextID++
	id := fmt.Sprintf("inc-%06d-%s", r.nextID, sanitizeID(kind))
	spanRing, decisionRing := r.spans, r.decisions.Ring()
	dir, keep := r.cfg.Dir, r.cfg.MaxIncidents
	r.mu.Unlock()

	cutoff := now.Add(-r.cfg.Retention).UnixNano()
	events := records(r.events.Window(cutoff, r.cfg.MaxEvents), func(_ int64, e Event) Event { return e })
	spans := records(spanRing.Window(cutoff, maxBundleSpans), func(at int64, sp obs.SpanEvent) SpanRecord {
		return SpanRecord{AtNs: at, Span: sp}
	})
	decisions := records(decisionRing.Window(cutoff, maxBundleDecisions), func(at int64, d obs.Decision) DecisionRecord {
		return DecisionRecord{AtNs: at, Decision: d}
	})
	var pre obs.Snapshot
	var preAge int64
	snaps := r.snaps.Window(0, maxSnaps)
	for i := len(snaps) - 1; i >= 0; i-- {
		if snaps[i].AtNs <= now.UnixNano() {
			pre, preAge = snaps[i].V, now.UnixNano()-snaps[i].AtNs
			break
		}
	}

	var post obs.Snapshot
	if r.cfg.Metrics != nil {
		post = r.cfg.Metrics()
	}
	inc := &Incident{
		ID: id, Trigger: kind, Reason: reason, Session: session, Tenant: tenant,
		CapturedAtNs:  now.UnixNano(),
		Pre:           pre,
		PreAgeNs:      preAge,
		Post:          post,
		CounterDeltas: counterDeltas(pre, post),
		Events:        events,
		Spans:         spans,
		Decisions:     decisions,
		Runtime:       captureRuntime(),
	}
	inc.Sessions, inc.Tenants = attribute(inc)

	r.incidents.Publish(inc)
	r.captured.Inc()
	r.stored.Set(float64(r.incidents.Len()))
	if dir != "" {
		// Best-effort: a full disk must not take the serving path down.
		_ = writeBundle(dir, inc, keep)
	}
	return id, true
}

// Incidents lists the retained bundles, newest first.
func (r *Recorder) Incidents() []Summary {
	if r == nil {
		return nil
	}
	incs := r.incidents.Values()
	out := make([]Summary, 0, len(incs))
	for i := len(incs) - 1; i >= 0; i-- {
		inc := incs[i]
		out = append(out, Summary{
			ID: inc.ID, Trigger: inc.Trigger, Reason: inc.Reason,
			Session: inc.Session, Tenant: inc.Tenant,
			CapturedAtNs: inc.CapturedAtNs,
			Events:       len(inc.Events), Spans: len(inc.Spans), Decisions: len(inc.Decisions),
		})
	}
	return out
}

// Incident fetches one retained bundle by ID.
func (r *Recorder) Incident(id string) (*Incident, bool) {
	if r == nil {
		return nil, false
	}
	for _, inc := range r.incidents.Values() {
		if inc.ID == id {
			return inc, true
		}
	}
	return nil, false
}

// Captured reports how many bundles this recorder has captured.
func (r *Recorder) Captured() int64 {
	if r == nil {
		return 0
	}
	return r.captured.Load()
}

// Suppressed reports how many triggers the cooldowns suppressed.
func (r *Recorder) Suppressed() int64 {
	if r == nil {
		return 0
	}
	return r.suppressed.Load()
}

// Retained reports the occupancy of the rings a capture reads (events,
// spans, decisions).
func (r *Recorder) Retained() (events, spans, decisions int) {
	if r == nil {
		return 0, 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.events.Len(), r.spans.Len(), r.decisions.Len()
}

// ---------------------------------------------------------------- capture helpers

// records converts a ring window into bundle records, oldest first.
func records[T, R any](es []obs.Entry[T], rec func(atNs int64, v T) R) []R {
	out := make([]R, len(es))
	for i, e := range es {
		out[i] = rec(e.AtNs, e.V)
	}
	return out
}

// counterDeltas is post minus pre for every counter that moved; nil
// when there is no pre snapshot to diff against.
func counterDeltas(pre, post obs.Snapshot) map[string]int64 {
	if pre.Counters == nil || post.Counters == nil {
		return nil
	}
	out := map[string]int64{}
	for k, v := range post.Counters {
		if d := v - pre.Counters[k]; d != 0 {
			out[k] = d
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func captureRuntime() RuntimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return RuntimeStats{
		Goroutines:      runtime.NumGoroutine(),
		HeapAllocBytes:  ms.HeapAlloc,
		TotalAllocBytes: ms.TotalAlloc,
		NumGC:           ms.NumGC,
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
	}
}

// attribute counts the bundle's timeline per session and per tenant.
func attribute(inc *Incident) (sessions, tenants map[string]Attribution) {
	sessions = map[string]Attribution{}
	tenants = map[string]Attribution{}
	bump := func(m map[string]Attribution, key string, f func(*Attribution)) {
		if key == "" {
			return
		}
		a := m[key]
		f(&a)
		m[key] = a
	}
	for _, e := range inc.Events {
		bump(sessions, e.Session, func(a *Attribution) { a.Events++ })
		bump(tenants, e.Tenant, func(a *Attribution) { a.Events++ })
	}
	for _, s := range inc.Spans {
		bump(sessions, spanSession(s.Span), func(a *Attribution) { a.Spans++ })
	}
	for _, d := range inc.Decisions {
		bump(sessions, d.Decision.Session, func(a *Attribution) { a.Decisions++ })
	}
	if len(sessions) == 0 {
		sessions = nil
	}
	if len(tenants) == 0 {
		tenants = nil
	}
	return sessions, tenants
}

// spanSession reads a span's "session" attribute ("" when untagged).
func spanSession(sp obs.SpanEvent) string {
	for _, a := range sp.Attrs {
		if a.Key == "session" {
			return a.Value
		}
	}
	return ""
}

// sanitizeID maps a trigger kind onto a filename-safe ID suffix.
func sanitizeID(kind string) string {
	var b strings.Builder
	b.Grow(len(kind))
	for _, r := range kind {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	return b.String()
}

// ---------------------------------------------------------------- on-disk bundles

// bundleSuffix names incident files: <id>.json.
const bundleSuffix = ".json"

// writeBundle persists one incident atomically (temp + rename) and
// prunes the directory to the newest `keep` bundles. Incident IDs are
// zero-padded sequence numbers, so lexicographic filename order is
// capture order.
func writeBundle(dir string, inc *Incident, keep int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(inc, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, inc.ID+bundleSuffix+".tmp")
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, inc.ID+bundleSuffix)); err != nil {
		os.Remove(tmp)
		return err
	}
	return pruneBundles(dir, keep)
}

// pruneBundles deletes the oldest bundles beyond keep.
func pruneBundles(dir string, keep int) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), bundleSuffix) {
			names = append(names, e.Name())
		}
	}
	if len(names) <= keep {
		return nil
	}
	sort.Strings(names)
	for _, name := range names[:len(names)-keep] {
		os.Remove(filepath.Join(dir, name))
	}
	return nil
}

// ReadBundle loads an incident bundle from a JSON file written by
// writeBundle (the -analyze-incident path).
func ReadBundle(path string) (*Incident, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var inc Incident
	if err := json.Unmarshal(data, &inc); err != nil {
		return nil, fmt.Errorf("flight: %s is not an incident bundle: %w", path, err)
	}
	if inc.ID == "" || inc.Trigger == "" {
		return nil, fmt.Errorf("flight: %s is not an incident bundle (no id/trigger)", path)
	}
	return &inc, nil
}

package workspace

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"copycat/internal/obs"
	"copycat/internal/obs/flight"
)

// now reads the workspace clock (wall clock unless one was injected —
// benchmarks and the determinism tests inject a VirtualClock).
func (w *Workspace) now() time.Time {
	if w.Clock != nil {
		return w.Clock.Now()
	}
	return time.Now()
}

// EnableTracing starts recording spans for every pipeline stage into a
// fresh trace on the workspace clock. Until called, tracing is disabled
// and costs nothing beyond a nil check per stage. The trace keeps the
// newest obs.DefaultSpanRingSize ended spans; each is also published
// to the live span ring (streamed, and read by flight captures).
func (w *Workspace) EnableTracing() {
	tr := obs.NewTrace(w.Clock)
	tr.SetSink(func(ev obs.SpanEvent) {
		w.spanRing.Publish(ev)
		w.flight.ObserveSpan(ev)
	})
	w.trace.Store(tr)
}

// SpanRing exposes the live-span buffer the telemetry server's
// /trace/stream endpoint reads. Always non-nil after New; it only
// receives spans while tracing is enabled.
func (w *Workspace) SpanRing() *obs.SpanRing { return w.spanRing }

// SetSpanRing replaces the live-span buffer, so a session manager can
// point many workspaces at one shared host ring and stream every
// tenant's spans from a single /trace/stream. Call before
// EnableTracing; the trace publishes into whichever ring was current
// when tracing was enabled.
func (w *Workspace) SetSpanRing(r *obs.SpanRing) {
	if r != nil {
		w.spanRing = r
	}
}

// Flight exposes the workspace's flight recorder (the always-on
// incident capturer). Nil only after SetFlight(nil) detached it.
func (w *Workspace) Flight() *flight.Recorder { return w.flight }

// SetFlight replaces the flight recorder: a session manager points many
// workspaces at one shared host recorder, and the overhead experiment
// passes nil to detach recording entirely (every feed tolerates a nil
// recorder). Call between refreshes, not during one.
func (w *Workspace) SetFlight(r *flight.Recorder) { w.flight = r }

// DisableTracing stops span recording (the trace collected so far is
// discarded).
func (w *Workspace) DisableTracing() { w.trace.Store(nil) }

// Tracing reports whether span recording is active.
func (w *Workspace) Tracing() bool { return w.trace.Load() != nil }

// Trace exposes the active trace (nil when tracing is disabled).
func (w *Workspace) Trace() *obs.Trace { return w.trace.Load() }

// TraceTo writes the collected spans as Chrome trace_event JSON,
// loadable in chrome://tracing or Perfetto. Safe (and empty) when
// tracing was never enabled.
func (w *Workspace) TraceTo(out io.Writer) error { return w.Trace().WriteChrome(out) }

// stage opens one top-level pipeline stage: a root span on the session
// trace (when tracing is on), a sample in the stage's latency
// histogram, and — for the stage the SLO objective covers — an
// observation in the rolling burn windows. The returned done func ends
// all of them.
func (w *Workspace) stage(name string) (*obs.Span, func()) {
	sp := w.Trace().Start(name, "stage")
	if w.SessionID != "" {
		sp.SetAttr("session", w.SessionID)
	}
	h := w.Metrics.Histogram("latency." + name)
	slo := w.SLO
	if slo != nil && !slo.Tracks(name) {
		slo = nil
	}
	hook := w.StageHook
	if sp == nil && h == nil && slo == nil && hook == nil {
		return nil, func() {}
	}
	start := w.now()
	return sp, func() {
		d := w.now().Sub(start)
		h.Observe(d)
		slo.Observe(d)
		if slo != nil && w.flight.Armed(flight.TriggerSLOFastBurn) {
			// Armed is a cheap cooldown pre-check, so the SLO status (three
			// window merges) is only computed when a capture could happen.
			if st := slo.Status(); st.FastAlert {
				w.flight.Trigger(flight.TriggerSLOFastBurn, st.String(), w.SessionID, "")
			}
		}
		if hook != nil {
			hook(name, d)
		}
		sp.End()
	}
}

// Why returns the decision-log explanation lines for candidates whose
// name contains the given substring (case-insensitive) — why each was
// pruned, dropped, degraded, suggested, outranked, accepted, or
// rejected. An empty substring returns the whole log.
func (w *Workspace) Why(candidate string) []string {
	ds := w.Decisions.Decisions()
	if candidate != "" {
		ds = w.Decisions.For(candidate)
	}
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.String()
	}
	return out
}

// MetricsSnapshot folds every observable surface into one obs.Snapshot:
// the latency histograms and gauges of the registry, the engine's
// execution counters (prefixed "engine."), and the service-cache
// health gauges — cache.entries and cache.hit_rate, the fraction of
// dependent-join lookups answered without a live service call.
func (w *Workspace) MetricsSnapshot() obs.Snapshot {
	snap := w.Metrics.Snapshot()
	es := w.ExecStats.Snapshot()
	snap.Counters["engine.rows_in"] = es.RowsIn
	snap.Counters["engine.rows_out"] = es.RowsOut
	snap.Counters["engine.service_calls"] = es.ServiceCalls
	snap.Counters["engine.service_cache_hits"] = es.ServiceCacheHits
	snap.Counters["engine.trees_pruned"] = es.TreesPruned
	snap.Counters["engine.plans_executed"] = es.PlansExecuted
	snap.Counters["engine.candidates_run"] = es.CandidatesRun
	snap.Counters["engine.plans_reused"] = es.PlansReused
	snap.Counters["engine.plans_invalidated"] = es.PlansInvalidated
	snap.Counters["engine.retries"] = es.Retries
	snap.Counters["engine.breaker_trips"] = es.BreakerTrips
	snap.Counters["engine.degraded_rows"] = es.DegradedRows
	snap.Counters["spans.dropped"] = w.spanRing.Dropped()
	snap.Counters["spans.overwritten"] = w.spanRing.Overwritten()
	snap.Counters["decisions.overwritten"] = w.Decisions.Ring().Overwritten()
	snap.Counters["trace.overwritten"] = w.Trace().Overwritten()
	if w.SvcCache != nil {
		snap.Gauges["cache.entries"] = float64(w.SvcCache.Len())
	}
	if total := es.ServiceCacheHits + es.ServiceCalls; total > 0 {
		snap.Gauges["cache.hit_rate"] = float64(es.ServiceCacheHits) / float64(total)
	}
	if w.PlanCache != nil {
		snap.Gauges["plancache.entries"] = float64(w.PlanCache.Len())
		snap.Gauges["plancache.hit_rate"] = w.PlanCache.HitRate()
	}
	w.Quality.Fold(snap)
	return snap
}

// CacheInfo renders the plan-result cache's state for the REPL's :cache
// command: occupancy, lifetime hit/miss/eviction counts, and the
// engine's reuse/invalidation counters.
func (w *Workspace) CacheInfo() string {
	var b strings.Builder
	if w.PlanCache == nil {
		b.WriteString("plan cache: disabled (cold refresh)\n")
	} else {
		hits, misses, evictions := w.PlanCache.Stats()
		fmt.Fprintf(&b, "plan cache: %d/%d entries\n", w.PlanCache.Len(), w.PlanCache.Cap())
		fmt.Fprintf(&b, "  hits/misses/evictions  %d/%d/%d\n", hits, misses, evictions)
		fmt.Fprintf(&b, "  hit rate               %.4f\n", w.PlanCache.HitRate())
	}
	es := w.ExecStats.Snapshot()
	fmt.Fprintf(&b, "  plans reused           %d\n", es.PlansReused)
	fmt.Fprintf(&b, "  plans invalidated      %d\n", es.PlansInvalidated)
	fmt.Fprintf(&b, "service cache: %d entries, hit rate %.4f\n",
		w.SvcCache.Len(), svcHitRate(es.ServiceCacheHits, es.ServiceCalls))
	return b.String()
}

func svcHitRate(hits, calls int64) float64 {
	if hits+calls == 0 {
		return 0
	}
	return float64(hits) / float64(hits+calls)
}

// RenderSLO renders the SLO tracker's status as an aligned
// human-readable report (the REPL's :slo command).
func RenderSLO(st obs.SLOStatus) string {
	var b strings.Builder
	fmt.Fprintf(&b, "objective: %.2f%% of %s under %s\n",
		100*st.Target, st.Stage, time.Duration(st.ThresholdNs))
	window := func(label string, winNs, count int64, errRate, burn float64, alert bool, thresh float64) {
		state := "ok"
		if alert {
			state = "ALERT"
		}
		fmt.Fprintf(&b, "  %-4s %-8s n=%-6d err=%-8.4f burn=%-8.2f (alert at %.1f: %s)\n",
			label, time.Duration(winNs), count, errRate, burn, thresh, state)
	}
	window("fast", st.FastWindowNs, st.FastCount, st.FastErrRate, st.FastBurn, st.FastAlert, st.FastBurnThreshold)
	window("slow", st.SlowWindowNs, st.SlowCount, st.SlowErrRate, st.SlowBurn, st.SlowAlert, st.SlowBurnThreshold)
	fmt.Fprintf(&b, "  windowed p99           %s\n", time.Duration(st.FastP99Ns))
	return b.String()
}

// RenderMetrics renders the snapshot as an aligned human-readable
// report (the REPL's :metrics command).
func RenderMetrics(snap obs.Snapshot) string {
	var b strings.Builder
	names := make([]string, 0, len(snap.Counters))
	for n := range snap.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%-32s %d\n", n, snap.Counters[n])
	}
	names = names[:0]
	for n := range snap.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%-32s %.3f\n", n, snap.Gauges[n])
	}
	names = names[:0]
	for n := range snap.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := snap.Histograms[n]
		fmt.Fprintf(&b, "%-32s n=%-6d p50=%-10s p95=%-10s p99=%s\n",
			n, h.Count, h.P50(), h.P95(), h.P99())
	}
	return b.String()
}

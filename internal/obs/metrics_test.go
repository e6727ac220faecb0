package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	r.Counter("svc.calls").Add(3)
	r.Counter("svc.calls").Inc()
	r.Gauge("cache.hit_rate").Set(0.75)
	if got := r.Counter("svc.calls").Load(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if got := r.Gauge("cache.hit_rate").Load(); got != 0.75 {
		t.Fatalf("gauge = %v, want 0.75", got)
	}
	snap := r.Snapshot()
	if snap.Counters["svc.calls"] != 4 || snap.Gauges["cache.hit_rate"] != 0.75 {
		t.Fatalf("snapshot mismatch: %+v", snap)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(DefaultLatencyBuckets())
	// 100 observations spread 1..100 ms.
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	p50 := h.Quantile(0.50)
	if p50 < 25*time.Millisecond || p50 > 75*time.Millisecond {
		t.Fatalf("p50 = %v, want ≈50ms", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 90*time.Millisecond || p99 > 250*time.Millisecond {
		t.Fatalf("p99 = %v, want ≈100ms", p99)
	}
	if h.Quantile(0.01) > 5*time.Millisecond {
		t.Fatalf("p1 = %v, want small", h.Quantile(0.01))
	}
	// Monotone in q.
	prev := time.Duration(0)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1} {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantiles not monotone: q=%v → %v < %v", q, v, prev)
		}
		prev = v
	}
}

func TestHistogramOverflowAndEmpty(t *testing.T) {
	h := NewHistogram([]time.Duration{time.Millisecond, time.Second})
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
	h.Observe(time.Hour) // overflow
	if got := h.Quantile(0.5); got != time.Second {
		t.Fatalf("overflow quantile = %v, want the last bound", got)
	}
	snap := h.Snapshot()
	if len(snap.Buckets) != 1 || snap.Buckets[0].LeNs != -1 {
		t.Fatalf("overflow bucket snapshot wrong: %+v", snap.Buckets)
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	// Empty histogram: every q reads 0, including out-of-range q.
	h := NewHistogram(DefaultLatencyBuckets())
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}

	// q <= 0 clamps to the low edge: at or below the smallest populated
	// bucket's bound, never negative.
	h.Observe(3 * time.Millisecond) // bucket (2.5ms, 5ms]
	for _, q := range []float64{-0.5, 0} {
		got := h.Quantile(q)
		if got < 0 || got > 5*time.Millisecond {
			t.Fatalf("Quantile(%v) = %v, want within the covering bucket", q, got)
		}
	}

	// q >= 1 clamps to 1: the upper bound of the highest populated
	// bucket, and identical for any q above 1.
	if h.Quantile(1) != 5*time.Millisecond {
		t.Fatalf("Quantile(1) = %v, want 5ms", h.Quantile(1))
	}
	if h.Quantile(1) != h.Quantile(7.5) {
		t.Fatalf("q>1 must clamp: %v vs %v", h.Quantile(1), h.Quantile(7.5))
	}

	// All observations in the overflow bucket: every quantile reports the
	// overflow's lower bound (the last configured bound) — there is no
	// upper bound to interpolate toward.
	over := NewHistogram([]time.Duration{time.Millisecond, 10 * time.Millisecond})
	for i := 0; i < 50; i++ {
		over.Observe(time.Minute)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := over.Quantile(q); got != 10*time.Millisecond {
			t.Fatalf("overflow-only Quantile(%v) = %v, want 10ms", q, got)
		}
	}

	// A histogram built with no bounds puts everything in overflow and
	// reports 0 (lower bound of an unbounded bucket) without panicking.
	bare := NewHistogram(nil)
	bare.Observe(time.Second)
	if got := bare.Quantile(0.5); got != 0 {
		t.Fatalf("boundless Quantile = %v, want 0", got)
	}

	// Exact bucket-boundary ranks interpolate to the bucket's upper
	// bound, and stay monotone across the boundary.
	hb := NewHistogram([]time.Duration{time.Millisecond, 2 * time.Millisecond})
	hb.Observe(500 * time.Microsecond)  // bucket [0, 1ms]
	hb.Observe(1500 * time.Microsecond) // bucket (1ms, 2ms]
	if got := hb.Quantile(0.5); got != time.Millisecond {
		t.Fatalf("boundary Quantile(0.5) = %v, want 1ms", got)
	}
	if got := hb.Quantile(1); got != 2*time.Millisecond {
		t.Fatalf("boundary Quantile(1) = %v, want 2ms", got)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(DefaultLatencyBuckets())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
}

func TestSnapshotJSONShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("engine.service_calls").Add(2)
	r.Histogram("latency.suggest.refresh").Observe(3 * time.Millisecond)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{`"engine.service_calls":2`, `"p50_ns"`, `"p95_ns"`, `"p99_ns"`, `"count":1`} {
		if !strings.Contains(s, want) {
			t.Fatalf("snapshot JSON missing %s:\n%s", want, s)
		}
	}
}

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(1)
	r.Gauge("y").Set(1)
	r.Histogram("z").Observe(time.Second)
	r.Reset()
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		r.Counter("x").Inc()
		r.Histogram("z").Observe(time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("nil registry allocates %.1f per op, want 0", allocs)
	}
}

func TestRegistryReset(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(5)
	r.Gauge("b").Set(2)
	r.Histogram("c").Observe(time.Millisecond)
	r.Reset()
	snap := r.Snapshot()
	if snap.Counters["a"] != 0 || snap.Gauges["b"] != 0 || snap.Histograms["c"].Count != 0 {
		t.Fatalf("reset did not zero: %+v", snap)
	}
}

func TestDecisionLog(t *testing.T) {
	l := NewDecisionLog(0, nil)
	l.Record(Decision{Stage: "suggest.columns", Candidate: "Sheet1→Zipcode Resolver", Action: ActionSuggested, Rank: 0, Cost: 0.4})
	l.Record(Decision{Stage: "suggest.columns", Candidate: "Sheet1→Geocoder", Action: ActionPruned, Reason: "cost 1.3 above threshold", Rank: -1})
	if l.Len() != 2 {
		t.Fatalf("len = %d", l.Len())
	}
	ds := l.For("zipcode")
	if len(ds) != 1 || ds[0].Action != ActionSuggested {
		t.Fatalf("For(zipcode) = %+v", ds)
	}
	if ds[0].Seq != 1 {
		t.Fatalf("seq = %d, want 1", ds[0].Seq)
	}
	line := ds[0].String()
	if !strings.Contains(line, "suggested") || !strings.Contains(line, "rank 0") {
		t.Fatalf("render = %q", line)
	}
	var nilLog *DecisionLog
	nilLog.Record(Decision{})
	if nilLog.Len() != 0 || nilLog.Decisions() != nil || nilLog.For("x") != nil {
		t.Fatal("nil decision log must be inert")
	}
}

func TestDecisionLogBounded(t *testing.T) {
	l := NewDecisionLog(0, nil)
	for i := 0; i < maxDecisions+100; i++ {
		l.Record(Decision{Stage: "s", Candidate: "c", Action: ActionDropped})
	}
	if l.Len() != maxDecisions {
		t.Fatalf("log holds %d, want exactly the newest %d", l.Len(), maxDecisions)
	}
	ds := l.Decisions()
	if ds[0].Seq != 101 || ds[len(ds)-1].Seq != maxDecisions+100 {
		t.Fatalf("retained seqs %d..%d, want 101..%d", ds[0].Seq, ds[len(ds)-1].Seq, maxDecisions+100)
	}
	if o := l.Ring().Overwritten(); o != 100 {
		t.Fatalf("Overwritten = %d, want 100", o)
	}
}

func TestDecisionLogConcurrent(t *testing.T) {
	l := NewDecisionLog(0, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Record(Decision{Stage: "s", Candidate: "c", Action: ActionDropped})
			}
		}()
	}
	wg.Wait()
	if l.Len() != 1600 {
		t.Fatalf("len = %d, want 1600", l.Len())
	}
}

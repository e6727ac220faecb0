package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"copycat/internal/obs"
	"copycat/internal/plancache"
	"copycat/internal/resilience"
	"copycat/internal/table"
)

// ErrRowBudget is returned when an execution produces more rows than its
// ExecCtx allows. It bounds runaway candidate queries so one bad
// suggestion cannot stall the interactive loop.
var ErrRowBudget = errors.New("engine: row budget exceeded")

// Stats is the executor's instrumentation block. One Stats may be shared
// by many concurrent executions (the suggestion pipeline runs candidate
// plans in parallel), so every counter is atomic. Zero value is ready to
// use via NewStats; a nil *Stats is tolerated by ExecCtx and counts
// nothing.
type Stats struct {
	// RowsIn / RowsOut total rows consumed / produced across operators.
	RowsIn, RowsOut atomic.Int64
	// ServiceCalls counts actual Service.Call invocations.
	ServiceCalls atomic.Int64
	// ServiceCacheHits counts dependent-join rows answered from a memo
	// (shared ServiceCache or per-execution) instead of a live call.
	ServiceCacheHits atomic.Int64
	// TreesPruned counts Steiner enumeration branches discarded as
	// infeasible or duplicate during top-k query search.
	TreesPruned atomic.Int64
	// PlansExecuted counts root-level plan executions.
	PlansExecuted atomic.Int64
	// CandidatesRun counts candidate completion plans executed by the
	// suggestion pipeline (including ones later filtered out).
	CandidatesRun atomic.Int64
	// PlansReused counts candidate plans answered from the plan result
	// cache instead of executing (fingerprint unchanged since last run).
	PlansReused atomic.Int64
	// PlansInvalidated counts candidate plans whose cached result was
	// unusable — the fingerprint moved because feedback shifted an edge
	// weight or a paste grew the graph — forcing a re-execution.
	PlansInvalidated atomic.Int64
	// Retries counts service-call retry attempts made by the resilience
	// layer beyond each call's first attempt.
	Retries atomic.Int64
	// BreakerTrips counts circuit-breaker open transitions observed
	// during service calls.
	BreakerTrips atomic.Int64
	// DegradedRows counts dependent-join input rows degraded — skipped,
	// or null-padded under Outer — because their service call failed
	// transiently after retries were exhausted or the breaker was open.
	DegradedRows atomic.Int64

	mu    sync.Mutex
	perOp map[string]*OpStats
}

// NewStats returns an empty stats block.
func NewStats() *Stats { return &Stats{} }

// OpStats is one operator type's counters.
type OpStats struct {
	Invocations, RowsIn, RowsOut atomic.Int64
}

// Op returns the per-operator counter block for an operator name,
// creating it on first use.
func (s *Stats) Op(name string) *OpStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.perOp == nil {
		s.perOp = map[string]*OpStats{}
	}
	op, ok := s.perOp[name]
	if !ok {
		op = &OpStats{}
		s.perOp[name] = op
	}
	return op
}

// record tallies one operator invocation.
func (s *Stats) record(op string, rowsIn, rowsOut int) {
	if s == nil {
		return
	}
	s.RowsIn.Add(int64(rowsIn))
	s.RowsOut.Add(int64(rowsOut))
	o := s.Op(op)
	o.Invocations.Add(1)
	o.RowsIn.Add(int64(rowsIn))
	o.RowsOut.Add(int64(rowsOut))
}

// Reset zeroes every counter.
func (s *Stats) Reset() {
	s.RowsIn.Store(0)
	s.RowsOut.Store(0)
	s.ServiceCalls.Store(0)
	s.ServiceCacheHits.Store(0)
	s.TreesPruned.Store(0)
	s.PlansExecuted.Store(0)
	s.CandidatesRun.Store(0)
	s.PlansReused.Store(0)
	s.PlansInvalidated.Store(0)
	s.Retries.Store(0)
	s.BreakerTrips.Store(0)
	s.DegradedRows.Store(0)
	s.mu.Lock()
	s.perOp = nil
	s.mu.Unlock()
}

// OpSnapshot is a point-in-time copy of one operator's counters.
type OpSnapshot struct {
	Invocations int64 `json:"invocations"`
	RowsIn      int64 `json:"rows_in"`
	RowsOut     int64 `json:"rows_out"`
}

// StatsSnapshot is a point-in-time, plain-value copy of a Stats block,
// safe to read, print, compare, and serialize (scpbench -json) without
// atomics.
type StatsSnapshot struct {
	RowsIn           int64                 `json:"rows_in"`
	RowsOut          int64                 `json:"rows_out"`
	ServiceCalls     int64                 `json:"service_calls"`
	ServiceCacheHits int64                 `json:"service_cache_hits"`
	TreesPruned      int64                 `json:"trees_pruned"`
	PlansExecuted    int64                 `json:"plans_executed"`
	CandidatesRun    int64                 `json:"candidates_run"`
	PlansReused      int64                 `json:"plans_reused"`
	PlansInvalidated int64                 `json:"plans_invalidated"`
	Retries          int64                 `json:"retries"`
	BreakerTrips     int64                 `json:"breaker_trips"`
	DegradedRows     int64                 `json:"degraded_rows"`
	PerOp            map[string]OpSnapshot `json:"per_op,omitempty"`
}

// Snapshot copies the current counter values.
func (s *Stats) Snapshot() StatsSnapshot {
	if s == nil {
		return StatsSnapshot{}
	}
	snap := StatsSnapshot{
		RowsIn:           s.RowsIn.Load(),
		RowsOut:          s.RowsOut.Load(),
		ServiceCalls:     s.ServiceCalls.Load(),
		ServiceCacheHits: s.ServiceCacheHits.Load(),
		TreesPruned:      s.TreesPruned.Load(),
		PlansExecuted:    s.PlansExecuted.Load(),
		CandidatesRun:    s.CandidatesRun.Load(),
		PlansReused:      s.PlansReused.Load(),
		PlansInvalidated: s.PlansInvalidated.Load(),
		Retries:          s.Retries.Load(),
		BreakerTrips:     s.BreakerTrips.Load(),
		DegradedRows:     s.DegradedRows.Load(),
		PerOp:            map[string]OpSnapshot{},
	}
	s.mu.Lock()
	for name, op := range s.perOp {
		snap.PerOp[name] = OpSnapshot{
			Invocations: op.Invocations.Load(),
			RowsIn:      op.RowsIn.Load(),
			RowsOut:     op.RowsOut.Load(),
		}
	}
	s.mu.Unlock()
	return snap
}

// String renders the snapshot as an aligned report.
func (s StatsSnapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plans executed    %d\n", s.PlansExecuted)
	fmt.Fprintf(&b, "candidates run    %d\n", s.CandidatesRun)
	fmt.Fprintf(&b, "plans reused      %d\n", s.PlansReused)
	fmt.Fprintf(&b, "plans invalidated %d\n", s.PlansInvalidated)
	fmt.Fprintf(&b, "rows in/out       %d/%d\n", s.RowsIn, s.RowsOut)
	fmt.Fprintf(&b, "service calls     %d\n", s.ServiceCalls)
	fmt.Fprintf(&b, "service cache hit %d\n", s.ServiceCacheHits)
	fmt.Fprintf(&b, "trees pruned      %d\n", s.TreesPruned)
	fmt.Fprintf(&b, "retries           %d\n", s.Retries)
	fmt.Fprintf(&b, "breaker trips     %d\n", s.BreakerTrips)
	fmt.Fprintf(&b, "degraded rows     %d\n", s.DegradedRows)
	names := make([]string, 0, len(s.PerOp))
	for n := range s.PerOp {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		op := s.PerOp[n]
		fmt.Fprintf(&b, "  %-12s calls=%-6d in=%-8d out=%d\n", n, op.Invocations, op.RowsIn, op.RowsOut)
	}
	return b.String()
}

// ---------------------------------------------------------------- cache

// ServiceCache memoizes service calls across plan executions, keyed by
// service name plus the normalized input tuple. Dependent joins dominate
// the F2/E6 latency profile, and candidate completions re-invoke the same
// services with the same bindings on every suggestion refresh — sharing
// one cache per session removes almost all of those calls. Safe for
// concurrent use.
type ServiceCache struct {
	mu sync.RWMutex
	m  map[string][]table.Tuple
}

// NewServiceCache returns an empty cache.
func NewServiceCache() *ServiceCache {
	return &ServiceCache{m: map[string][]table.Tuple{}}
}

// Len reports the number of distinct (service, input) bindings cached.
func (c *ServiceCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// Clear drops every cached answer.
func (c *ServiceCache) Clear() {
	c.mu.Lock()
	c.m = map[string][]table.Tuple{}
	c.mu.Unlock()
}

func (c *ServiceCache) lookup(key string) ([]table.Tuple, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	rows, ok := c.m[key]
	return rows, ok
}

func (c *ServiceCache) store(key string, rows []table.Tuple) {
	c.mu.Lock()
	c.m[key] = rows
	c.mu.Unlock()
}

// ---------------------------------------------------------------- ctx

// ExecCtx is the execution context threaded through every Plan.Execute:
// a context.Context for deadlines and cancellation, an optional row
// budget, an optional cross-execution service cache, and an atomic Stats
// block. One ExecCtx may drive many plan executions concurrently (the
// parallel candidate executor); everything it holds is goroutine-safe.
//
// The zero value is not usable — build one with NewExecCtx or Background.
// Operators tolerate a nil *ExecCtx by upgrading it to Background, so
// hand-built plans keep working without ceremony.
type ExecCtx struct {
	ctx       context.Context
	stats     *Stats
	cache     *ServiceCache
	res       *resilience.Caller
	trace     *obs.Trace       // nil = tracing disabled (the common case)
	metrics   *obs.Registry    // nil = no latency histograms
	decisions *obs.DecisionLog // nil = no decision log
	span      *obs.Span        // current parent span for StartSpan
	clock     resilience.Clock // nil = wall clock; virtual in tests/benches
	plans     *plancache.Cache // nil = incremental refresh disabled (cold path)
	noMemo    bool
	maxRows   int64
	// rows is the count produced under this budget. It is a pointer so a
	// derived context (WithSpan) shares the budget with its parent —
	// atomic.Int64 cannot be struct-copied.
	rows *atomic.Int64
}

// ExecOption configures an ExecCtx.
type ExecOption func(*ExecCtx)

// WithStats attaches a (possibly shared) stats block.
func WithStats(s *Stats) ExecOption { return func(ec *ExecCtx) { ec.stats = s } }

// WithServiceCache attaches a cross-execution service-call cache.
func WithServiceCache(c *ServiceCache) ExecOption { return func(ec *ExecCtx) { ec.cache = c } }

// WithPlanCache attaches a fingerprint-keyed plan result cache. The
// suggestion pipeline consults it to skip re-executing candidate plans
// whose inputs (sources, join columns, edge generations) are unchanged
// since the last refresh; nil keeps the cold, recompute-everything path.
func WithPlanCache(c *plancache.Cache) ExecOption { return func(ec *ExecCtx) { ec.plans = c } }

// WithResilience routes every service call through a resilience.Caller:
// per-call timeouts, retry with backoff on transient failures, and a
// per-service circuit breaker. Without it, dependent joins call services
// directly and any error fails the plan (the pre-resilience behavior).
func WithResilience(c *resilience.Caller) ExecOption { return func(ec *ExecCtx) { ec.res = c } }

// WithoutServiceMemo disables service-call memoization entirely — even
// the per-execution memo dependent joins otherwise keep. Used to verify
// cache transparency.
func WithoutServiceMemo() ExecOption { return func(ec *ExecCtx) { ec.noMemo = true } }

// WithRowBudget bounds the total rows this context may produce across
// all operators; exceeding it fails the execution with ErrRowBudget.
// n <= 0 means unlimited.
func WithRowBudget(n int) ExecOption { return func(ec *ExecCtx) { ec.maxRows = int64(n) } }

// WithTrace attaches a span tracer. Execution emits spans for plan
// roots, dependent joins, and service calls; nil leaves tracing
// disabled at ~zero cost.
func WithTrace(t *obs.Trace) ExecOption { return func(ec *ExecCtx) { ec.trace = t } }

// WithMetrics attaches a metrics registry for latency histograms.
func WithMetrics(r *obs.Registry) ExecOption { return func(ec *ExecCtx) { ec.metrics = r } }

// WithDecisions attaches a decision log recording why candidates were
// pruned, degraded, or outranked.
func WithDecisions(l *obs.DecisionLog) ExecOption { return func(ec *ExecCtx) { ec.decisions = l } }

// WithExecClock sets the clock used to time service calls for the
// latency histograms (virtual in tests; wall clock by default).
func WithExecClock(c resilience.Clock) ExecOption { return func(ec *ExecCtx) { ec.clock = c } }

// NewExecCtx builds an execution context over ctx. The stats block is
// guaranteed non-nil on return — even under WithStats(nil) — so no
// call site ever lazily initializes it (the old lazy path raced when a
// shared ExecCtx first touched Stats from two goroutines).
func NewExecCtx(ctx context.Context, opts ...ExecOption) *ExecCtx {
	if ctx == nil {
		ctx = context.Background()
	}
	ec := &ExecCtx{ctx: ctx, stats: NewStats(), rows: new(atomic.Int64)}
	for _, o := range opts {
		o(ec)
	}
	if ec.stats == nil {
		ec.stats = NewStats()
	}
	if ec.rows == nil {
		ec.rows = new(atomic.Int64)
	}
	return ec
}

// Background returns an ExecCtx with no deadline, no budget, and a fresh
// stats block.
func Background() *ExecCtx { return NewExecCtx(context.Background()) }

// orBackground upgrades a nil receiver so operators never nil-check.
func (ec *ExecCtx) orBackground() *ExecCtx {
	if ec == nil {
		return Background()
	}
	return ec
}

// Context returns the wrapped context.Context.
func (ec *ExecCtx) Context() context.Context { return ec.ctx }

// Stats returns the attached stats block (never nil). NewExecCtx
// guarantees the field is set at construction, so this is a plain read
// — no lazy initialization, no write, no race on a shared ExecCtx.
func (ec *ExecCtx) Stats() *Stats {
	if ec.stats == nil {
		// Only reachable from a hand-built struct literal, which the
		// type contract forbids; return a throwaway rather than racing
		// to publish one.
		return NewStats()
	}
	return ec.stats
}

// Cache returns the shared service cache, or nil if none is attached.
func (ec *ExecCtx) Cache() *ServiceCache { return ec.cache }

// PlanCache returns the attached plan result cache, or nil when
// incremental refresh is disabled.
func (ec *ExecCtx) PlanCache() *plancache.Cache { return ec.plans }

// Resilience returns the attached resilient caller, or nil.
func (ec *ExecCtx) Resilience() *resilience.Caller { return ec.res }

// Trace returns the attached tracer, or nil when tracing is disabled.
func (ec *ExecCtx) Trace() *obs.Trace { return ec.trace }

// Metrics returns the attached metrics registry, or nil.
func (ec *ExecCtx) Metrics() *obs.Registry { return ec.metrics }

// Decisions returns the attached decision log, or nil.
func (ec *ExecCtx) Decisions() *obs.DecisionLog { return ec.decisions }

// Span returns the current parent span, or nil.
func (ec *ExecCtx) Span() *obs.Span { return ec.span }

// WithSpan derives a child execution context whose spans parent under
// sp and whose context.Context carries sp for deeper layers. The
// derived context shares everything else — stats, caches, resilience,
// and crucially the row budget — with its parent, so the parallel
// candidate executor can give each candidate its own span lane without
// splitting the budget.
func (ec *ExecCtx) WithSpan(sp *obs.Span) *ExecCtx {
	if ec == nil {
		return nil
	}
	if sp == nil {
		return ec
	}
	ec2 := *ec
	ec2.span = sp
	ec2.ctx = obs.ContextWithSpan(ec.ctx, sp)
	return &ec2
}

// StartSpan opens a span on the attached trace, parented under the
// context's current span when one is set. Returns nil (inert) when
// tracing is disabled — the caller just calls End() on it regardless.
func (ec *ExecCtx) StartSpan(name, cat string) *obs.Span {
	if ec == nil || ec.trace == nil {
		return nil
	}
	if ec.span != nil {
		return ec.span.Child(name, cat)
	}
	return ec.trace.Start(name, cat)
}

// now reads the exec clock (wall clock unless one was injected).
func (ec *ExecCtx) now() time.Time {
	if ec.clock != nil {
		return ec.clock.Now()
	}
	return time.Now()
}

// Now exposes the exec clock for callers timing their own stages into
// the metrics registry (the suggestion pipeline's per-stage latencies).
func (ec *ExecCtx) Now() time.Time { return ec.now() }

// callService invokes a service, through the resilience layer when one
// is attached (tallying retries and breaker trips into Stats), and
// directly otherwise — the exact seed behavior. With a trace attached
// each call gets a span carrying retry/breaker attributes; with a
// metrics registry attached its latency lands in "latency.svc.call".
func (ec *ExecCtx) callService(svc Service, args table.Tuple) ([]table.Tuple, error) {
	if ec.trace == nil && ec.metrics == nil {
		return ec.rawServiceCall(svc, args, nil)
	}
	sp := ec.StartSpan("svc.call:"+svc.Name(), "service")
	h := ec.metrics.Histogram("latency.svc.call")
	var start time.Time
	if h != nil {
		start = ec.now()
	}
	rows, err := ec.rawServiceCall(svc, args, sp)
	if h != nil {
		h.Observe(ec.now().Sub(start))
	}
	if sp != nil {
		if err != nil {
			sp.SetAttr("error", err.Error())
		} else {
			sp.SetAttrInt("rows", int64(len(rows)))
		}
		sp.End()
	}
	return rows, err
}

func (ec *ExecCtx) rawServiceCall(svc Service, args table.Tuple, sp *obs.Span) ([]table.Tuple, error) {
	if ec.res == nil {
		return svc.Call(args)
	}
	var rows []table.Tuple
	out, err := ec.res.Do(ec.ctx, svc.Name(), func() error {
		var callErr error
		rows, callErr = svc.Call(args)
		return callErr
	})
	stats := ec.Stats()
	stats.Retries.Add(int64(out.Retries))
	if out.Tripped {
		stats.BreakerTrips.Add(1)
	}
	if sp != nil {
		if out.Retries > 0 {
			sp.SetAttrInt("retries", int64(out.Retries))
		}
		if out.Tripped {
			sp.SetAttr("breaker", "tripped")
		}
	}
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Err reports why the execution should stop: context cancellation,
// deadline, or an exhausted row budget. nil means keep going.
func (ec *ExecCtx) Err() error {
	if err := ec.ctx.Err(); err != nil {
		return err
	}
	if ec.maxRows > 0 && ec.rows != nil && ec.rows.Load() > ec.maxRows {
		return ErrRowBudget
	}
	return nil
}

// checkEvery is a cheap periodic cancellation probe for tight loops: it
// only consults the context every 1024th iteration.
func (ec *ExecCtx) checkEvery(i int) error {
	if i&1023 != 0 {
		return nil
	}
	return ec.Err()
}

// opDone records an operator invocation and enforces the row budget.
func (ec *ExecCtx) opDone(op string, rowsIn, rowsOut int) error {
	ec.stats.record(op, rowsIn, rowsOut)
	if ec.maxRows > 0 && ec.rows != nil && ec.rows.Add(int64(rowsOut)) > ec.maxRows {
		return fmt.Errorf("%w (limit %d)", ErrRowBudget, ec.maxRows)
	}
	return nil
}

// lookupService consults the shared cache, then the per-execution memo.
// It does not count the hit; the caller tallies stats.
func (ec *ExecCtx) lookupService(key string, local map[string][]table.Tuple) ([]table.Tuple, bool) {
	if ec.noMemo {
		return nil, false
	}
	if ec.cache != nil {
		if rows, ok := ec.cache.lookup(key); ok {
			return rows, true
		}
	}
	rows, ok := local[key]
	return rows, ok
}

// storeService records a service answer in the shared cache (if any) and
// the per-execution memo.
func (ec *ExecCtx) storeService(key string, local map[string][]table.Tuple, rows []table.Tuple) {
	if ec.noMemo {
		return
	}
	if ec.cache != nil {
		ec.cache.store(key, rows)
	}
	local[key] = rows
}

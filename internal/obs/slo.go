package obs

import (
	"fmt"
	"time"
)

// SLOConfig defines one latency objective over a named pipeline stage:
// at least Target of the stage's executions should finish within
// Threshold, judged over rolling windows rather than cumulative
// since-boot counts.
type SLOConfig struct {
	// Stage is the pipeline stage the objective covers (the workspace
	// observes its stage latencies into the tracker by this name).
	Stage string
	// Threshold is the per-execution latency objective; an execution
	// slower than this consumes error budget.
	Threshold time.Duration
	// Target is the fraction of executions that must meet Threshold
	// (e.g. 0.99). The error budget is 1 - Target.
	Target float64
	// FastWindow / SlowWindow are the two burn-rate windows: the fast
	// one catches sudden regressions, the slow one sustained ones.
	FastWindow, SlowWindow time.Duration
	// FastBurnThreshold / SlowBurnThreshold are the burn-rate levels
	// (error rate ÷ error budget) at which the respective alert fires.
	FastBurnThreshold, SlowBurnThreshold float64
	// Slots is how many sub-windows each rolling window is split into.
	Slots int
}

// DefaultSLOConfig is the suggestion-refresh objective the repo's
// benchmarks justify: BENCH_3/BENCH_4 put the warm refresh p99 well
// under 25ms, so the objective is 99% of refreshes under 25ms, with
// the Google-SRE-style 5m/1h burn windows (fast alert at 14.4× burn —
// exhausting a 30-day budget in ~2 days — and slow alert at 6×).
func DefaultSLOConfig() SLOConfig {
	return SLOConfig{
		Stage:             "suggest.refresh",
		Threshold:         25 * time.Millisecond,
		Target:            0.99,
		FastWindow:        5 * time.Minute,
		SlowWindow:        time.Hour,
		FastBurnThreshold: 14.4,
		SlowBurnThreshold: 6,
		Slots:             15,
	}
}

// withDefaults fills zero fields from DefaultSLOConfig.
func (c SLOConfig) withDefaults() SLOConfig {
	d := DefaultSLOConfig()
	if c.Stage == "" {
		c.Stage = d.Stage
	}
	if c.Threshold <= 0 {
		c.Threshold = d.Threshold
	}
	if c.Target <= 0 || c.Target >= 1 {
		c.Target = d.Target
	}
	if c.FastWindow <= 0 {
		c.FastWindow = d.FastWindow
	}
	if c.SlowWindow <= 0 {
		c.SlowWindow = d.SlowWindow
	}
	if c.FastBurnThreshold <= 0 {
		c.FastBurnThreshold = d.FastBurnThreshold
	}
	if c.SlowBurnThreshold <= 0 {
		c.SlowBurnThreshold = d.SlowBurnThreshold
	}
	if c.Slots < 2 {
		c.Slots = d.Slots
	}
	return c
}

// minFastSamples is how many executions the fast window must hold before
// its burn rate can raise FastAlert. Over fewer, one slow execution is a
// burn of 1/n ÷ budget — 20× for one slow refresh in the first five after
// boot at a 99% target — which says nothing about a sustained regression
// yet would shed every Create for the whole fast window. At 20 samples a
// 99% target needs 3 slow executions to reach the default 14.4× burn.
const minFastSamples = 20

// SLOTracker tracks one latency objective over fast and slow rolling
// windows and computes burn rates from them. Safe for concurrent use;
// a nil *SLOTracker is inert.
type SLOTracker struct {
	cfg  SLOConfig
	fast *WindowHistogram
	slow *WindowHistogram
}

// NewSLOTracker builds a tracker on the given clock func (zero fields
// of cfg take defaults). Inject a VirtualClock's Now for deterministic
// burn-rate tests.
func NewSLOTracker(cfg SLOConfig, now func() time.Time) *SLOTracker {
	cfg = cfg.withDefaults()
	if now == nil {
		now = time.Now
	}
	bounds := DefaultLatencyBuckets()
	return &SLOTracker{
		cfg:  cfg,
		fast: NewWindowHistogram(bounds, cfg.FastWindow, cfg.Slots, now),
		slow: NewWindowHistogram(bounds, cfg.SlowWindow, cfg.Slots, now),
	}
}

// Config returns the tracked objective.
func (t *SLOTracker) Config() SLOConfig {
	if t == nil {
		return SLOConfig{}
	}
	return t.cfg
}

// Tracks reports whether the tracker's objective covers the named
// stage.
func (t *SLOTracker) Tracks(stage string) bool {
	return t != nil && t.cfg.Stage == stage
}

// Observe records one execution of the tracked stage into both burn
// windows.
func (t *SLOTracker) Observe(d time.Duration) {
	if t == nil {
		return
	}
	t.fast.Observe(d)
	t.slow.Observe(d)
}

// SLOStatus is a point-in-time report of the objective: windowed
// error rates, burn rates, alert states, and the fast window's p99.
type SLOStatus struct {
	Stage       string  `json:"stage"`
	ThresholdNs int64   `json:"threshold_ns"`
	Target      float64 `json:"target"`

	FastWindowNs      int64   `json:"fast_window_ns"`
	FastCount         int64   `json:"fast_count"`
	FastErrRate       float64 `json:"fast_err_rate"`
	FastBurn          float64 `json:"fast_burn"`
	FastBurnThreshold float64 `json:"fast_burn_threshold"`
	FastAlert         bool    `json:"fast_alert"`

	SlowWindowNs      int64   `json:"slow_window_ns"`
	SlowCount         int64   `json:"slow_count"`
	SlowErrRate       float64 `json:"slow_err_rate"`
	SlowBurn          float64 `json:"slow_burn"`
	SlowBurnThreshold float64 `json:"slow_burn_threshold"`
	SlowAlert         bool    `json:"slow_alert"`

	// FastP99Ns is the tracked stage's p99 over the fast window — the
	// "right now" counterpart of the cumulative registry histogram.
	FastP99Ns int64 `json:"fast_p99_ns"`
}

// String renders the status as one summary line.
func (s SLOStatus) String() string {
	state := "ok"
	if s.SlowAlert {
		state = "slow-burn alert"
	}
	if s.FastAlert {
		state = "fast-burn alert"
	}
	return fmt.Sprintf("slo %s: p99(%s)=%s target %.2f%% < %s — burn fast %.2f / slow %.2f (%s)",
		s.Stage, time.Duration(s.FastWindowNs), time.Duration(s.FastP99Ns),
		100*s.Target, time.Duration(s.ThresholdNs), s.FastBurn, s.SlowBurn, state)
}

// Status computes the current burn rates. Burn rate is the windowed
// error rate divided by the error budget (1 - Target): burn 1.0 spends
// budget exactly as fast as the objective allows, 14.4 exhausts a
// 30-day budget in ~2 days. An empty window reports zero burn (no
// traffic is not an outage), and the fast alert waits for
// minFastSamples executions in its window.
func (t *SLOTracker) Status() SLOStatus {
	if t == nil {
		return SLOStatus{}
	}
	budget := 1 - t.cfg.Target
	st := SLOStatus{
		Stage:             t.cfg.Stage,
		ThresholdNs:       t.cfg.Threshold.Nanoseconds(),
		Target:            t.cfg.Target,
		FastWindowNs:      t.fast.Window().Nanoseconds(),
		SlowWindowNs:      t.slow.Window().Nanoseconds(),
		FastBurnThreshold: t.cfg.FastBurnThreshold,
		SlowBurnThreshold: t.cfg.SlowBurnThreshold,
		FastP99Ns:         t.fast.Quantile(0.99).Nanoseconds(),
	}
	above, total := t.fast.AboveThreshold(t.cfg.Threshold)
	st.FastCount = total
	if total > 0 {
		st.FastErrRate = float64(above) / float64(total)
		st.FastBurn = st.FastErrRate / budget
	}
	above, total = t.slow.AboveThreshold(t.cfg.Threshold)
	st.SlowCount = total
	if total > 0 {
		st.SlowErrRate = float64(above) / float64(total)
		st.SlowBurn = st.SlowErrRate / budget
	}
	st.FastAlert = st.FastCount >= minFastSamples && st.FastBurn >= t.cfg.FastBurnThreshold
	st.SlowAlert = st.SlowBurn >= t.cfg.SlowBurnThreshold
	return st
}

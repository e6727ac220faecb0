package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"copycat"
)

// pipelineRefreshes is how many suggestion refreshes the timed loop
// runs per measurement repetition.
const pipelineRefreshes = 30

// pipelineReps is how many interleaved untraced/traced loop pairs the
// overhead comparison takes the median per-pair ratio of. A warm loop
// takes about a millisecond, so single loops swing with the scheduler
// by tens of percent; pairing neighbours in time and taking the median
// of many pairs cancels that drift.
const pipelineReps = 101

// pipelineReport is the machine-readable result of the observability
// experiment — what -json prints and -bench-out persists.
type pipelineReport struct {
	Experiment   string                  `json:"experiment"`
	Refreshes    int                     `json:"refreshes"`
	Reps         int                     `json:"reps"`
	PlainNs      int64                   `json:"plain_ns"`      // median untraced loop
	TracedNs     int64                   `json:"traced_ns"`     // median traced loop
	OverheadFrac float64                 `json:"overhead_frac"` // median per-pair traced/plain − 1
	Spans        int                     `json:"spans"`         // spans recorded by the traced session
	Metrics      copycat.MetricsSnapshot `json:"metrics"`       // unified snapshot (traced session)
	ExecStats    copycat.ExecStats       `json:"exec_stats"`    // engine counters (traced session)
	TraceFile    string                  `json:"trace_file,omitempty"`
}

// pipelineSetup drives the demo scenario up to integration mode: paste
// two shelters, accept the generalized rows, import the contacts sheet,
// and switch to integration mode. Returns the system ready for
// suggestion refreshes.
func pipelineSetup(traced bool) (*copycat.System, error) {
	return pipelineSetupWith(copycat.DefaultWorldConfig(), traced)
}

// pipelineSetupWith is pipelineSetup over an explicit world config, so
// fault-injecting callers (-serve-faults, the flight experiment's smoke
// sibling) can reuse the same scenario.
func pipelineSetupWith(cfg copycat.WorldConfig, traced bool) (*copycat.System, error) {
	sys := copycat.NewDemoSystem(cfg)
	if traced {
		sys.EnableTracing() // before the pastes, so the learn stages land in the trace
	}
	w := sys.World
	ws := sys.Workspace
	browser := sys.OpenBrowser(sys.ShelterSite(copycat.StyleTable))
	s0, s1 := w.Shelters[0], w.Shelters[1]
	sel, err := browser.CopyRows([][]string{
		{s0.Name, s0.Street, s0.City},
		{s1.Name, s1.Street, s1.City},
	})
	if err != nil {
		return nil, err
	}
	if err := ws.Paste(sel); err != nil {
		return nil, err
	}
	if err := ws.AcceptRows(); err != nil {
		return nil, err
	}
	// Import the contacts sheet as a second source so the Steiner search
	// leg has two terminals to connect.
	sheetDoc := w.ContactsSpreadsheet()
	grid := sheetDoc.Grid()
	ws.SelectTab("Contacts")
	if err := ws.Paste(copycat.Selection{Cells: grid[1:3], Doc: sheetDoc}); err != nil {
		return nil, err
	}
	if err := ws.AcceptRows(); err != nil {
		return nil, err
	}
	ws.SelectTab("Sheet1")
	ws.SetMode(copycat.ModeIntegration)
	return sys, nil
}

// pipelineLoop times n suggestion refreshes.
func pipelineLoop(sys *copycat.System, n int) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if comps := sys.Workspace.RefreshColumnSuggestions(); len(comps) == 0 {
			return 0, fmt.Errorf("suggestion refresh returned no completions")
		}
	}
	return time.Since(start), nil
}

// pipelineOverhead measures what tracing costs the warm refresh loop:
// pairedLoops on one session, tracing off in the control arm and on in
// the measured one.
func pipelineOverhead() (time.Duration, time.Duration, float64, error) {
	sys, err := pipelineSetup(false)
	if err != nil {
		return 0, 0, 0, err
	}
	if _, err := pipelineLoop(sys, pipelineRefreshes); err != nil { // warmup: fill the service cache
		return 0, 0, 0, err
	}
	return pairedLoops(sys, pipelineReps, pipelineRefreshes, func(on bool) {
		if on {
			sys.EnableTracing()
		} else {
			sys.DisableTracing()
		}
	})
}

// pairedLoops times a control and a measured arm of pipelineLoop (n
// refreshes per loop) on one session, in reps pairs; set(on) switches
// the session to the measured arm (on) or the control arm. Two sessions
// would differ by more than the measured cost, so one session runs both
// arms. The pairs alternate which arm runs first, and a collection
// before every loop keeps the collector's cycle from landing on one arm
// more than the other. It returns the median loop time of each arm and
// the median per-pair measured/control ratio minus one.
func pairedLoops(sys *copycat.System, reps, n int, set func(on bool)) (time.Duration, time.Duration, float64, error) {
	control := make([]time.Duration, reps)
	measured := make([]time.Duration, reps)
	ratios := make([]float64, reps)
	for r := 0; r < reps; r++ {
		for i := 0; i < 2; i++ {
			on := (r+i)%2 == 1
			set(on)
			runtime.GC()
			d, err := pipelineLoop(sys, n)
			if err != nil {
				return 0, 0, 0, err
			}
			if on {
				measured[r] = d
			} else {
				control[r] = d
			}
		}
		ratios[r] = float64(measured[r]) / float64(control[r])
	}
	slices.Sort(control)
	slices.Sort(measured)
	slices.Sort(ratios)
	mid := reps / 2
	return control[mid], measured[mid], ratios[mid] - 1, nil
}

// expPipeline is the observability experiment: it measures per-stage
// suggestion-loop latencies (p50/p95/p99 from the unified metrics
// registry), compares traced and untraced refresh loops to quantify
// tracing overhead, exercises the search and rank stages so
// the exported trace shows the whole learn → search → execute → rank
// pipeline, and honors the -trace/-json/-bench-out/-overhead-budget
// flags.
func expPipeline() error {
	// -warm / -cold switch the pipeline experiment to the incremental
	// refresh comparison (P1 in EXPERIMENTS.md); without them it remains
	// the O1 observability measurement.
	if warmMode || coldMode {
		return expRefresh()
	}
	plain, tracedDur, overhead, err := pipelineOverhead()
	if err != nil {
		return err
	}
	// The traced session the report describes, traced from its first
	// paste so the learn stages land in the trace.
	traced, err := pipelineSetup(true)
	if err != nil {
		return err
	}
	if _, err := pipelineLoop(traced, pipelineRefreshes); err != nil {
		return err
	}
	ws := traced.Workspace

	// Exercise the search leg (Steiner top-k over Sheet1 + Contacts) and
	// the rank leg (MIRA feedback) so their spans land in the trace.
	w := traced.World
	ws.SelectTab("Mixed")
	if err := ws.Paste(copycat.Selection{Cells: [][]string{{w.Shelters[0].Name, w.Contacts[0].Org}}}); err != nil {
		return err
	}
	ws.SelectTab("Sheet1")
	if comps := ws.RefreshColumnSuggestions(); len(comps) > 0 {
		if err := ws.RejectColumn(len(comps) - 1); err != nil {
			return err
		}
	}

	report := pipelineReport{
		Experiment:   "pipeline",
		Refreshes:    pipelineRefreshes,
		Reps:         pipelineReps,
		PlainNs:      plain.Nanoseconds(),
		TracedNs:     tracedDur.Nanoseconds(),
		OverheadFrac: overhead,
		Spans:        ws.Trace().Len(),
		Metrics:      traced.Metrics(),
		ExecStats:    traced.Stats(),
	}

	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return err
		}
		if err := traced.TraceTo(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		report.TraceFile = traceFile
		fmt.Printf("trace: %d spans written to %s (load in chrome://tracing)\n\n", report.Spans, traceFile)
	}

	var rows [][]string
	rows = append(rows, []string{"suggestion refreshes timed", fmt.Sprint(pipelineRefreshes)})
	rows = append(rows, []string{"interleaved loop pairs", fmt.Sprint(pipelineReps)})
	rows = append(rows, []string{"untraced loop (median)", plain.String()})
	rows = append(rows, []string{"traced loop (median)", tracedDur.String()})
	rows = append(rows, []string{"tracing overhead (median pair)", fmt.Sprintf("%.1f%%", 100*report.OverheadFrac)})
	rows = append(rows, []string{"spans recorded", fmt.Sprint(report.Spans)})
	printTable([]string{"measure", "value"}, rows)

	fmt.Println("\nper-stage latency (unified metrics registry):")
	for _, name := range sortedKeys(report.Metrics.Histograms) {
		h := report.Metrics.Histograms[name]
		fmt.Printf("  %-32s n=%-6d p50=%-12s p95=%-12s p99=%s\n",
			name, h.Count, h.P50(), h.P95(), h.P99())
	}
	fmt.Println("\nservice cache:")
	fmt.Printf("  entries   %.0f\n", report.Metrics.Gauges["cache.entries"])
	fmt.Printf("  hit rate  %.3f\n", report.Metrics.Gauges["cache.hit_rate"])
	fmt.Println("\ndecision log (last refresh, first 6 lines):")
	lines := traced.Why("")
	if len(lines) > 6 {
		lines = lines[len(lines)-6:]
	}
	for _, l := range lines {
		fmt.Printf("  %s\n", l)
	}

	if benchOut != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(benchOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nbenchmark report written to %s\n", benchOut)
	}
	jsonReport = report

	if overheadBudget > 0 && report.OverheadFrac > overheadBudget {
		return fmt.Errorf("tracing overhead %.1f%% exceeds budget %.1f%%",
			100*report.OverheadFrac, 100*overheadBudget)
	}
	printStats(traced.Stats())
	return nil
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"copycat"
)

// flightReps is how many interleaved detached/attached cold-refresh
// loop pairs the flight-recorder overhead comparison totals over.
const flightReps = 10

// flightReport is the machine-readable result of the flight-recorder
// experiment (O3) — what BENCH_10.json persists and `make bench-check`
// gates on.
type flightReport struct {
	Experiment        string  `json:"experiment"`
	Refreshes         int     `json:"refreshes"`
	Reps              int     `json:"reps"`
	DetachedNs        int64   `json:"detached_ns"`        // total loop time with the recorder detached
	RecordedNs        int64   `json:"recorded_ns"`        // total loop time with the recorder attached
	OverheadFrac      float64 `json:"overhead_frac"`      // (recorded-detached)/detached
	RetainedEvents    int     `json:"retained_events"`    // lifecycle events in the retention window afterwards
	RetainedSpans     int     `json:"retained_spans"`     // spans in the retention window afterwards
	RetainedDecisions int     `json:"retained_decisions"` // decision entries in the retention window afterwards
	Captured          int64   `json:"captured"`           // incidents captured during the run (expected 0)
}

// expFlight is the flight-recorder experiment: on one warmed, traced
// session it compares the cold suggestion-refresh loop with the
// always-on recorder detached against the same loop with the recorder
// attached (pacing metric snapshots on every span and decision entry;
// the span ring and decision log it reads at capture fill in both arms),
// to bound the "always-on" cost. Honors -json, -bench-out, and
// -overhead-budget; the budget is 2%.
func expFlight() error {
	sys, err := pipelineSetup(true) // traced, so spans reach the span ring
	if err != nil {
		return err
	}
	// Cold refreshes, as in the serve experiment: the plan-cached warm
	// loop is sub-millisecond and scheduler noise swamps any recording
	// cost; recomputing every refresh gives a measurement window the
	// recorder's appends actually land inside.
	sys.Workspace.PlanCache = nil
	rec := sys.FlightRecorder()
	if rec == nil {
		return fmt.Errorf("demo system has no flight recorder")
	}
	if _, err := pipelineLoop(sys); err != nil { // warmup: fill the service cache
		return err
	}

	// Interleave detached and attached loops rep by rep so heap growth
	// and GC cadence hit both arms equally, and compare phase totals
	// rather than best-of (single cold loops swing with GC far more than
	// recording ever costs).
	var detached, recorded time.Duration
	for r := 0; r < flightReps; r++ {
		sys.Workspace.SetFlight(nil) // control arm: recorder detached, every feed no-ops
		d, err := pipelineLoop(sys)
		if err != nil {
			return err
		}
		detached += d
		sys.Workspace.SetFlight(rec)
		d, err = pipelineLoop(sys)
		if err != nil {
			return err
		}
		recorded += d
	}

	events, spans, decisions := rec.Retained()
	if decisions == 0 {
		return fmt.Errorf("recorder retained no decision entries — the attached arm measured nothing")
	}
	if spans == 0 {
		return fmt.Errorf("recorder retained no spans — the attached arm measured nothing")
	}
	report := flightReport{
		Experiment:        "flight",
		Refreshes:         pipelineRefreshes,
		Reps:              flightReps,
		DetachedNs:        detached.Nanoseconds(),
		RecordedNs:        recorded.Nanoseconds(),
		OverheadFrac:      float64(recorded-detached) / float64(detached),
		RetainedEvents:    events,
		RetainedSpans:     spans,
		RetainedDecisions: decisions,
		Captured:          rec.Captured(),
	}

	printTable([]string{"measure", "value"}, [][]string{
		{"suggestion refreshes timed", fmt.Sprint(pipelineRefreshes)},
		{"detached loops (total, interleaved)", detached.String()},
		{"recorded loops (total, interleaved)", recorded.String()},
		{"recording overhead", fmt.Sprintf("%.1f%%", 100*report.OverheadFrac)},
		{"retained (events / spans / decisions)", fmt.Sprintf("%d / %d / %d", events, spans, decisions)},
		{"incidents captured", fmt.Sprint(report.Captured)},
	})

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
		return fmt.Errorf("flight-recorder overhead %.1f%% exceeds budget %.1f%%",
			100*report.OverheadFrac, 100*overheadBudget)
	}
	return nil
}

// analyzeIncident implements -analyze-incident: load one on-disk
// incident bundle and print its post-mortem timeline — the same
// rendering the REPL's `:incidents <id>` produces from a live recorder.
func analyzeIncident(path string) error {
	inc, err := copycat.ReadIncidentBundle(path)
	if err != nil {
		return err
	}
	fmt.Print(copycat.RenderIncident(inc))
	return nil
}

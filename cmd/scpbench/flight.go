package main

import (
	"encoding/json"
	"fmt"
	"os"

	"copycat"
)

// flightReps is how many interleaved detached/attached loop pairs the
// flight-recorder overhead comparison takes the median per-pair ratio
// of, and flightRefreshes how many cold refreshes each loop times. One
// refresh per loop pairs the arms a few milliseconds apart, which
// cancels the machine's drift far better than long loops do: on a
// shared 2-core VM, 21 pairs of 30-refresh loops read −5.2% to +3.7%
// over ten runs, 601 pairs of one refresh −0.2% to +0.6% over six. The
// recorder's per-event cost lands in every refresh; its paced snapshot
// (every 5 s) is too rare to move either median.
const (
	flightReps      = 601
	flightRefreshes = 1
)

// flightReport is the machine-readable result of the flight-recorder
// experiment (O3) — what BENCH_10.json persists and `make bench-check`
// gates on.
type flightReport struct {
	Experiment        string  `json:"experiment"`
	Refreshes         int     `json:"refreshes"` // cold refreshes per timed loop
	Reps              int     `json:"reps"`
	DetachedNs        int64   `json:"detached_ns"`        // median loop time with the recorder detached
	RecordedNs        int64   `json:"recorded_ns"`        // median loop time with the recorder attached
	OverheadFrac      float64 `json:"overhead_frac"`      // median per-pair recorded/detached − 1
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
	if _, err := pipelineLoop(sys, pipelineRefreshes); err != nil { // warmup: fill the service cache
		return err
	}

	// A single cold loop swings with GC and the machine far more than
	// recording ever costs, so compare many interleaved pairs and take
	// medians.
	detached, recorded, overhead, err := pairedLoops(sys, flightReps, flightRefreshes, func(on bool) {
		if on {
			sys.Workspace.SetFlight(rec)
		} else {
			sys.Workspace.SetFlight(nil) // control arm: recorder detached, every feed no-ops
		}
	})
	if err != nil {
		return err
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
		Refreshes:         flightRefreshes,
		Reps:              flightReps,
		DetachedNs:        detached.Nanoseconds(),
		RecordedNs:        recorded.Nanoseconds(),
		OverheadFrac:      overhead,
		RetainedEvents:    events,
		RetainedSpans:     spans,
		RetainedDecisions: decisions,
		Captured:          rec.Captured(),
	}

	printTable([]string{"measure", "value"}, [][]string{
		{"refreshes per loop / loop pairs", fmt.Sprintf("%d / %d", flightRefreshes, flightReps)},
		{"detached loop (median, interleaved)", detached.String()},
		{"recorded loop (median, interleaved)", recorded.String()},
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

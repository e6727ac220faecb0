package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"copycat"
	"copycat/internal/obs/flight"
	"copycat/internal/obs/serve"
)

// scrapeCount is how many sequential /metrics scrapes the scrape-cost
// measurement averages over.
const scrapeCount = 100

// scrapeInterval paces the concurrent scraper during the overhead
// measurement: one scrape every 50ms is already 20–300× more
// aggressive than a production Prometheus (1–15s per scrape), so the
// overhead measured under it is a safe upper bound — while flat-out
// scraping with no pacing would just measure CPU contention between
// the encoder and the candidate executor, which no deployment sees.
const scrapeInterval = 50 * time.Millisecond

// serveReps is how many interleaved idle/scraped cold-refresh loop
// pairs the overhead comparison totals over.
const serveReps = 10

// serveReport is the machine-readable result of the telemetry-serving
// experiment (O2).
type serveReport struct {
	Experiment        string  `json:"experiment"`
	Refreshes         int     `json:"refreshes"`
	Reps              int     `json:"reps"`
	PlainNs           int64   `json:"plain_ns"`           // total idle-phase loop time (server attached, unscraped)
	ServedNs          int64   `json:"served_ns"`          // total scraped-phase loop time
	OverheadFrac      float64 `json:"overhead_frac"`      // (served-plain)/plain over the interleaved totals
	ConcurrentScrapes int64   `json:"concurrent_scrapes"` // scrapes issued during the served loops
	ScrapeMeanNs      int64   `json:"scrape_mean_ns"`     // sequential scrape cost
	ScrapeMaxNs       int64   `json:"scrape_max_ns"`
	ScrapeBytes       int     `json:"scrape_bytes"` // /metrics body size
	Series            int     `json:"series"`       // sample lines in the body
}

// expServe is the telemetry-serving experiment: on one warmed session
// with a live telemetry server attached, it compares the suggestion
// refresh loop with the server idle against the same loop while
// /metrics is scraped back-to-back, then measures the per-scrape cost
// directly and lints the body. Honors -json and -overhead-budget.
func expServe() error {
	sys, err := pipelineSetup(true) // traced, so /trace/stream has data
	if err != nil {
		return err
	}
	// Cold refreshes: with the plan cache on, the warm loop is
	// sub-millisecond and run-to-run scheduler noise swamps any serving
	// cost. Recomputing every refresh gives the comparison a measurement
	// window long enough for scrapes to actually land inside it.
	sys.Workspace.PlanCache = nil
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := sys.Serve(ctx, "127.0.0.1:0")
	if err != nil {
		return err
	}
	base := "http://" + srv.Addr()
	if _, err := pipelineLoop(sys, pipelineRefreshes); err != nil { // warmup: fill the service cache
		return err
	}
	// Warm the HTTP path too (listener accept, keep-alive connection),
	// so neither phase pays one-time dial costs.
	for i := 0; i < 3; i++ {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	// Concurrent scraper: scrapes /metrics on its cadence whenever the
	// `scraping` gate is open.
	var scraping atomic.Bool
	var scrapes atomic.Int64
	stop := make(chan struct{})
	scraperDone := make(chan struct{})
	go func() {
		defer close(scraperDone)
		tick := time.NewTicker(scrapeInterval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if !scraping.Load() {
					continue
				}
				resp, err := http.Get(base + "/metrics")
				if err != nil {
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				scrapes.Add(1)
			}
		}
	}()

	// Interleave idle and scraped loops rep by rep, so heap growth, GC
	// cadence, and thermal drift hit both phases equally instead of
	// whichever ran second; compare the phase totals rather than
	// best-of, because a single cold loop's duration swings with GC far
	// more than serving ever costs.
	var plain, served time.Duration
	for r := 0; r < serveReps; r++ {
		d, err := pipelineLoop(sys, pipelineRefreshes)
		if err != nil {
			return err
		}
		plain += d
		scraping.Store(true)
		d, err = pipelineLoop(sys, pipelineRefreshes)
		scraping.Store(false)
		if err != nil {
			return err
		}
		served += d
	}
	close(stop)
	<-scraperDone

	// Sequential scrape cost: mean and max over scrapeCount full scrapes,
	// with the last body linted and sized.
	var total, max time.Duration
	var body []byte
	for i := 0; i < scrapeCount; i++ {
		start := time.Now()
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			return err
		}
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		d := time.Since(start)
		total += d
		if d > max {
			max = d
		}
	}
	if err := serve.Lint(strings.NewReader(string(body))); err != nil {
		return fmt.Errorf("/metrics body fails exposition lint: %w", err)
	}
	series := 0
	for _, line := range strings.Split(string(body), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			series++
		}
	}

	report := serveReport{
		Experiment:        "serve",
		Refreshes:         pipelineRefreshes,
		Reps:              serveReps,
		PlainNs:           plain.Nanoseconds(),
		ServedNs:          served.Nanoseconds(),
		OverheadFrac:      float64(served-plain) / float64(plain),
		ConcurrentScrapes: scrapes.Load(),
		ScrapeMeanNs:      (total / scrapeCount).Nanoseconds(),
		ScrapeMaxNs:       max.Nanoseconds(),
		ScrapeBytes:       len(body),
		Series:            series,
	}

	printTable([]string{"measure", "value"}, [][]string{
		{"suggestion refreshes timed", fmt.Sprint(pipelineRefreshes)},
		{"idle-server loops (total, interleaved)", plain.String()},
		{"scraped loops (total, interleaved)", served.String()},
		{"serving overhead", fmt.Sprintf("%.1f%%", 100*report.OverheadFrac)},
		{"concurrent scrapes during loops", fmt.Sprint(report.ConcurrentScrapes)},
		{"scrape cost (mean / max)", fmt.Sprintf("%s / %s", time.Duration(report.ScrapeMeanNs), max)},
		{"/metrics body", fmt.Sprintf("%d bytes, %d series", report.ScrapeBytes, report.Series)},
	})
	jsonReport = report

	if overheadBudget > 0 && report.OverheadFrac > overheadBudget {
		return fmt.Errorf("serving overhead %.1f%% exceeds budget %.1f%%",
			100*report.OverheadFrac, 100*overheadBudget)
	}
	return nil
}

// runTelemetryServer implements the -serve flag: it drives a traced
// demo session through the full pipeline so every surface has data,
// serves its telemetry on addr, and holds until `wait` elapses (0 =
// until SIGINT/SIGTERM). The CI smoke job curls this.
//
// With -serve-sessions N it serves a multi-tenant host instead: a
// session manager capped at N sessions with two seeded tenants, so the
// smoke can walk the /sessions lifecycle, drive the table to the cap to
// watch /readyz flip to 503, and lint the per-tenant /metrics families.
// Adding -store-dir makes that host durable: sessions already in the
// store are recovered instead of re-seeding, and the resident fleet is
// checkpointed to disk when the server stops — so a kill + restart over
// the same directory serves the same sessions.
//
// With -serve-faults R the single-session path wraps every builtin
// service in the deterministic fault injector at rate R and drives
// suggestion refreshes until a circuit breaker opens, so by the time the
// server is listening the flight recorder has already captured a real
// breaker-open incident — the CI incident-smoke job relies on this.
// -incident-dir persists every captured bundle to disk, and SIGQUIT
// triggers an operator-requested capture at any point while serving.
func runTelemetryServer(addr string, wait time.Duration, hostSessions int, storeDir string, faults float64, incidentDir string) error {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if wait > 0 {
		ctx, cancel = context.WithTimeout(ctx, wait)
		defer cancel()
	}

	var srv *copycat.TelemetryServer
	var checkpoint func()
	var rec *copycat.IncidentRecorder
	if hostSessions > 0 {
		worldCfg := copycat.DefaultWorldConfig()
		worldCfg.Cities, worldCfg.SheltersPerCity = 3, 3
		sessionCfg := copycat.SessionConfig{
			MaxSessions:   hostSessions,
			EnableTracing: true,
			IncidentDir:   incidentDir,
		}
		var host *copycat.Host
		if storeDir != "" {
			var err error
			if host, err = copycat.NewDurableDemoHost(worldCfg, sessionCfg, storeDir); err != nil {
				return err
			}
			checkpoint = func() {
				if n, err := host.Manager.Checkpoint(); err != nil {
					fmt.Fprintf(os.Stderr, "scpbench: shutdown checkpoint: %v\n", err)
				} else {
					fmt.Fprintf(os.Stderr, "scpbench: checkpointed %d sessions to %s\n", n, storeDir)
				}
			}
		} else {
			host = copycat.NewDemoHost(worldCfg, sessionCfg)
		}
		if recovered := host.Manager.Stats().Recovered; recovered > 0 {
			fmt.Fprintf(os.Stderr, "scpbench: recovered %d sessions from %s\n", recovered, storeDir)
		} else {
			for _, tenant := range []string{"alice", "bob"} {
				sys, err := host.Create(tenant)
				if err != nil {
					return err
				}
				err = capacitySeed(sys)
				if err == nil && len(sys.Workspace.RefreshColumnSuggestions()) == 0 {
					err = fmt.Errorf("seed session for %s produced no completions", tenant)
				}
				sys.Release()
				if err != nil {
					return err
				}
			}
		}
		rec = host.Manager.Flight()
		var err error
		if srv, err = host.Serve(ctx, addr); err != nil {
			return err
		}
	} else {
		cfg := copycat.DefaultWorldConfig()
		if faults > 0 {
			cfg.FaultRate = faults
			cfg.FaultSeed = 7
		}
		sys, err := pipelineSetupWith(cfg, true)
		if err != nil {
			return err
		}
		rec = sys.FlightRecorder()
		if incidentDir != "" {
			rec.SetDir(incidentDir)
		}
		if faults > 0 {
			// Drive refreshes until a breaker opens (the injector's
			// transient bursts trip it quickly at smoke rates), so the
			// flight recorder has a breaker-open incident to serve. Under
			// faults a refresh can legitimately return zero completions, so
			// skip the completions check here.
			opened := false
			for i := 0; i < 50 && !opened; i++ {
				sys.Workspace.RefreshColumnSuggestions()
				for _, b := range sys.Breakers() {
					if b.StateName == "open" {
						opened = true
						break
					}
				}
			}
			if !opened {
				return fmt.Errorf("no breaker opened after fault-injected refreshes (rate %.2f)", faults)
			}
			fmt.Fprintf(os.Stderr, "scpbench: fault injection tripped a breaker; %d incident(s) captured\n", rec.Captured())
		} else if comps := sys.Workspace.RefreshColumnSuggestions(); len(comps) == 0 {
			return fmt.Errorf("telemetry session produced no completions")
		}
		if srv, err = sys.Serve(ctx, addr); err != nil {
			return err
		}
	}

	// SIGQUIT is the operator's "capture now" button: snapshot the flight
	// recorder's timeline into an incident bundle without stopping the
	// server.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	defer signal.Stop(quit)
	go func() {
		for range quit {
			if id, ok := rec.Trigger(flight.TriggerSignal, "operator SIGQUIT", "", ""); ok {
				fmt.Fprintf(os.Stderr, "scpbench: SIGQUIT captured incident %s\n", id)
			} else {
				fmt.Fprintln(os.Stderr, "scpbench: SIGQUIT capture suppressed (cooldown)")
			}
		}
	}()

	fmt.Fprintf(os.Stderr, "scpbench: telemetry server on http://%s — /metrics /healthz /readyz /slo /trace/stream /decisions /incidents /sessions /debug/pprof\n", srv.Addr())
	err := srv.Wait()
	if checkpoint != nil {
		checkpoint()
	}
	return err
}

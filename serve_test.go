package copycat

// System-level telemetry-server tests: Serve exposes the full
// observability surface of a live session, and every endpoint stays
// safe to scrape while the parallel candidate executor is running
// (exercised under -race by the Makefile's test-race target).

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"copycat/internal/obs"
	"copycat/internal/obs/serve"
)

// demoSession imports two shelters and enters integration mode, leaving
// the system one RefreshColumnSuggestions call away from exercising the
// whole pipeline.
func demoSession(t *testing.T) *System {
	t.Helper()
	sys := NewDemoSystem(DefaultWorldConfig())
	sys.EnableTracing()
	browser := sys.OpenBrowser(sys.ShelterSite(StyleTable))
	s0, s1 := sys.World.Shelters[0], sys.World.Shelters[1]
	sel, err := browser.CopyRows([][]string{
		{s0.Name, s0.Street, s0.City}, {s1.Name, s1.Street, s1.City},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Workspace.Paste(sel); err != nil {
		t.Fatal(err)
	}
	if err := sys.Workspace.AcceptRows(); err != nil {
		t.Fatal(err)
	}
	sys.Workspace.SetMode(ModeIntegration)
	return sys
}

// TestSystemServeEndToEnd: a live session's telemetry server answers
// every endpoint with real pipeline data, the /metrics body passes the
// exposition linter, and cancelling the context drains the server.
func TestSystemServeEndToEnd(t *testing.T) {
	sys := demoSession(t)
	if comps := sys.Workspace.RefreshColumnSuggestions(); len(comps) == 0 {
		t.Fatal("no completions")
	}

	ctx, cancel := context.WithCancel(context.Background())
	srv, err := sys.Serve(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if err := serve.Lint(strings.NewReader(body)); err != nil {
		t.Fatalf("live /metrics body fails lint: %v", err)
	}
	for _, want := range []string{
		"copycat_engine_service_calls_total",
		"copycat_cache_hit_rate",
		"copycat_latency_suggest_refresh_seconds_bucket",
		`copycat_slo_target{stage="suggest.refresh"} 0.99`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, `"ok"`) {
		t.Fatalf("/healthz = %d %s", code, body)
	}
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatal("/readyz should be ready")
	}
	var slo SLOStatus
	if _, body := get("/slo"); json.Unmarshal([]byte(body), &slo) != nil || slo.Stage != "suggest.refresh" {
		t.Fatalf("/slo body: %s", body)
	}
	if slo.FastCount == 0 {
		t.Error("SLO fast window saw no refreshes")
	}

	// The refresh's spans reached the live ring.
	_, body = get("/trace/stream")
	if !strings.Contains(body, `"suggest.refresh"`) {
		t.Errorf("/trace/stream missing the refresh span: %.200s", body)
	}
	var ev obs.SpanEvent
	if err := json.Unmarshal([]byte(strings.SplitN(body, "\n", 2)[0]), &ev); err != nil {
		t.Errorf("trace stream line is not a SpanEvent: %v", err)
	}
	if _, body := get("/decisions"); !strings.Contains(body, `"suggest.columns"`) {
		t.Errorf("/decisions missing pipeline decisions: %.200s", body)
	}
	if code, _ := get("/debug/pprof/heap?debug=1"); code != http.StatusOK {
		t.Error("/debug/pprof/heap unreachable")
	}

	cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Wait = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server never drained after ctx cancel")
	}
}

// TestConcurrentScrapeWhilePipelineRuns drives suggestion refreshes on
// the parallel candidate executor while other goroutines scrape
// /metrics and /healthz and stream /trace/stream?follow=1 — the
// concurrent-scrape safety check, meaningful under -race.
func TestConcurrentScrapeWhilePipelineRuns(t *testing.T) {
	sys := demoSession(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := sys.Serve(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()

	pipelineDone := make(chan struct{})
	var wg sync.WaitGroup

	// Driver: the real pipeline, repeatedly.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(pipelineDone)
		for i := 0; i < 6; i++ {
			if comps := sys.Workspace.RefreshColumnSuggestions(); len(comps) == 0 {
				t.Error("refresh returned no completions")
				return
			}
		}
	}()

	// Scrapers: hammer the read-side endpoints until the pipeline stops.
	for _, path := range []string{"/metrics", "/metrics", "/healthz", "/slo", "/decisions"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-pipelineDone:
					return
				default:
				}
				resp, err := http.Get(base + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(path)
	}

	// Streamer: follow the live span feed for the whole run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		sctx, scancel := context.WithCancel(ctx)
		defer scancel()
		req, _ := http.NewRequestWithContext(sctx, "GET", base+"/trace/stream?follow=1", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Errorf("trace stream: %v", err)
			return
		}
		defer resp.Body.Close()
		go func() { <-pipelineDone; scancel() }()
		// Only newline-terminated lines are validated: the cancel above
		// can cut the stream mid-line, and that fragment is the client's
		// doing, not the server's. Every complete line must be JSON.
		br := bufio.NewReaderSize(resp.Body, 1<<20)
		lines := 0
		for {
			line, err := br.ReadBytes('\n')
			if err != nil {
				break
			}
			if !json.Valid(line) {
				t.Errorf("stream emitted invalid JSON: %q", line)
				return
			}
			lines++
		}
		if lines == 0 {
			t.Error("stream delivered no spans while the pipeline ran")
		}
	}()

	wg.Wait()

	// One last full scrape after the dust settles must still lint clean.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := serve.Lint(resp.Body); err != nil {
		t.Fatalf("post-run /metrics fails lint: %v", err)
	}
}

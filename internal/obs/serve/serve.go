// Package serve is CopyCat's live telemetry service: a stdlib-only
// net/http server that turns the in-process observability substrate
// (internal/obs metrics, spans, decisions; internal/resilience breaker
// state) into a long-running deployment's operational surface.
//
// Endpoints:
//
//	GET /metrics       Prometheus/OpenMetrics text exposition of the
//	                   unified registry, engine counters, cache and
//	                   plan-cache gauges, breaker state, and SLO burn.
//	GET /healthz       health verdict from breaker states, degraded-row
//	                   rate, and SLO burn alerts (503 when unhealthy).
//	GET /readyz        readiness: 503 while draining or when a majority
//	                   of service breakers are open.
//	GET /slo           the SLO tracker's full status as JSON.
//	GET /quality       live suggestion-quality report as JSON: rolling
//	                   acceptance rate, rank-of-accepted histogram,
//	                   rounds-to-accept, per-tenant breakdown.
//	GET /trace/stream  buffered spans as JSONL; ?follow=1 keeps the
//	                   response open, streaming spans as they end.
//	GET /decisions     the decision log as JSONL; ?q= filters by
//	                   candidate substring.
//	GET /incidents     flight-recorder incident summaries, newest first;
//	                   GET /incidents/{id} fetches one full bundle.
//	/sessions          multi-tenant session lifecycle (list, create,
//	                   attach, evict, destroy) when a session.Manager is
//	                   wired in; creates are admission-controlled and
//	                   shed with 503 while the host is overloaded.
//	GET /debug/pprof/  continuous-profiling endpoints.
//
// The package has no opinions about what it serves: every data source
// arrives as a function or handle in Config, so tests drive it with
// fabricated snapshots on a virtual clock and the facade wires it to a
// live workspace.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"copycat/internal/obs"
	"copycat/internal/obs/flight"
	"copycat/internal/resilience"
	"copycat/internal/session"
)

// Config wires the server to its data sources. Any field may be nil;
// the corresponding endpoint serves an empty (but well-formed) body.
type Config struct {
	// Metrics snapshots the unified metrics surface per scrape.
	Metrics func() obs.Snapshot
	// Breakers snapshots per-service circuit breaker state per scrape.
	Breakers func() []resilience.BreakerStatus
	// SLO is the latency-objective tracker surfaced in /metrics,
	// /healthz, and /slo.
	SLO *obs.SLOTracker
	// Ring is the live span buffer behind /trace/stream.
	Ring *obs.SpanRing
	// Decisions is the decision log behind /decisions.
	Decisions *obs.DecisionLog
	// Incidents is the flight recorder behind GET /incidents (list) and
	// GET /incidents/{id} (fetch one bundle).
	Incidents *flight.Recorder
	// Host, when non-nil, exposes the multi-tenant session manager: the
	// /sessions lifecycle endpoints, per-tenant series on /metrics, and
	// load-shed readiness (/readyz goes 503 while the host is shedding).
	Host *session.Manager
	// Quality, when non-nil, serves the live suggestion-quality report
	// on /quality and appends its per-tenant counter families to
	// /metrics.
	Quality func() QualityReport
	// Health tunes the /healthz thresholds; zero takes defaults.
	Health HealthConfig
}

// Server is a running telemetry server. Create with New, start with
// Start, stop by cancelling the context (graceful drain) or Shutdown.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	srv      *http.Server
	ln       net.Listener
	draining atomic.Bool
	done     chan struct{}
	err      error
	stopCtx  func() bool
	// drained is closed once a shutdown has finished draining; Serve
	// returns as soon as the listener closes, before that.
	drained   chan struct{}
	drainOnce sync.Once
}

// New builds a server on the given sources.
func New(cfg Config) *Server {
	s := &Server{cfg: cfg, done: make(chan struct{}), drained: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /slo", s.handleSLO)
	mux.HandleFunc("GET /quality", s.handleQuality)
	mux.HandleFunc("GET /trace/stream", s.handleTraceStream)
	mux.HandleFunc("GET /decisions", s.handleDecisions)
	mux.HandleFunc("GET /incidents", s.handleIncidentsList)
	mux.HandleFunc("GET /incidents/{id}", s.handleIncidentGet)
	mux.HandleFunc("GET /sessions", s.handleSessionsList)
	mux.HandleFunc("POST /sessions", s.handleSessionsCreate)
	mux.HandleFunc("POST /sessions/{id}/attach", s.handleSessionAttach)
	mux.HandleFunc("POST /sessions/{id}/evict", s.handleSessionEvict)
	mux.HandleFunc("DELETE /sessions/{id}", s.handleSessionDelete)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mux = mux
	return s
}

// Handler exposes the route table (tests drive it with httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// drainTimeout bounds the graceful shutdown triggered by context
// cancellation; streams older than this are cut.
const drainTimeout = 5 * time.Second

// Start listens on addr (":0" picks a free port — read it back with
// Addr) and serves until ctx is cancelled, which drains gracefully:
// /readyz flips to 503 immediately, in-flight requests get up to
// drainTimeout to finish, then the listener closes. Wait blocks until
// the server has fully stopped.
func (s *Server) Start(ctx context.Context, addr string) error {
	if s.ln != nil {
		return errors.New("serve: already started")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	// BaseContext carries ctx into every request so cancelling the serve
	// context also releases any ?follow=1 trace streams promptly.
	s.srv = &http.Server{Handler: s.mux, BaseContext: func(net.Listener) context.Context { return ctx }}
	go func() {
		err := s.srv.Serve(ln)
		if errors.Is(err, http.ErrServerClosed) {
			// Keep-alive connections are still open until the shutdown
			// has drained them; the server has not stopped before that.
			<-s.drained
		} else if err != nil {
			s.err = err
		}
		close(s.done)
	}()
	if ctx != nil {
		s.stopCtx = context.AfterFunc(ctx, func() {
			defer s.markDrained()
			s.draining.Store(true)
			sctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
			defer cancel()
			if err := s.srv.Shutdown(sctx); err != nil {
				s.srv.Close()
			}
		})
	}
	return nil
}

// Addr reports the bound listen address ("" before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Wait blocks until the server has stopped and returns its terminal
// error (nil on a clean shutdown).
func (s *Server) Wait() error {
	<-s.done
	return s.err
}

// Shutdown drains the server explicitly (the context-cancel path calls
// this for you).
func (s *Server) Shutdown(ctx context.Context) error {
	if s.srv == nil {
		return nil
	}
	if s.stopCtx != nil {
		s.stopCtx()
	}
	s.draining.Store(true)
	err := s.srv.Shutdown(ctx)
	s.markDrained()
	<-s.done
	return err
}

func (s *Server) markDrained() { s.drainOnce.Do(func() { close(s.drained) }) }

// snapshot gathers the scrape-time state shared by /metrics and
// /healthz.
func (s *Server) snapshot() (obs.Snapshot, []resilience.BreakerStatus, *obs.SLOStatus) {
	var snap obs.Snapshot
	if s.cfg.Metrics != nil {
		snap = s.cfg.Metrics()
	}
	var breakers []resilience.BreakerStatus
	if s.cfg.Breakers != nil {
		breakers = s.cfg.Breakers()
	}
	var slo *obs.SLOStatus
	if s.cfg.SLO != nil {
		st := s.cfg.SLO.Status()
		slo = &st
	}
	return snap, breakers, slo
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap, breakers, slo := s.snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := WriteExposition(w, snap, breakers, slo); err != nil {
		// Too late for a status change; the client sees a truncated body.
		return
	}
	if s.cfg.Host != nil {
		writeSessionExposition(w, s.cfg.Host)
	}
	if s.cfg.Quality != nil {
		writeQualityExposition(w, s.cfg.Quality())
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap, breakers, slo := s.snapshot()
	h := EvaluateHealth(s.cfg.Health, snap, breakers, slo)
	code := http.StatusOK
	if h.Status == StatusUnhealthy {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	type readiness struct {
		Ready  bool   `json:"ready"`
		Reason string `json:"reason,omitempty"`
	}
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, readiness{Reason: "draining"})
		return
	}
	if s.cfg.Host != nil {
		if shedding, reason := s.cfg.Host.Shedding(); shedding {
			writeJSON(w, http.StatusServiceUnavailable,
				readiness{Reason: "shedding: " + reason})
			return
		}
	}
	var breakers []resilience.BreakerStatus
	if s.cfg.Breakers != nil {
		breakers = s.cfg.Breakers()
	}
	if resilience.MajorityOpen(breakers) {
		writeJSON(w, http.StatusServiceUnavailable,
			readiness{Reason: fmt.Sprintf("%d of %d service breakers open",
				resilience.CountOpen(breakers), len(breakers))})
		return
	}
	writeJSON(w, http.StatusOK, readiness{Ready: true})
}

func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.cfg.SLO.Status())
}

// handleTraceStream serves the span ring as JSONL. The default is
// dump-and-close (curl-friendly); ?follow=1 keeps the response open,
// flushing spans as the pipeline ends them, until the client
// disconnects or the server drains.
func (s *Server) handleTraceStream(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	follow := r.URL.Query().Get("follow") == "1"
	ctx := r.Context()
	var cursor int64
	for {
		events, next, wait := s.cfg.Ring.Since(cursor)
		cursor = next
		for _, ev := range events {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		if !follow {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-wait:
		}
	}
}

// handleDecisions serves the decision log as JSONL, optionally filtered
// by candidate substring (?q=) and bounded to the most recent ?n=
// entries.
func (s *Server) handleDecisions(w http.ResponseWriter, r *http.Request) {
	var ds []obs.Decision
	if q := r.URL.Query().Get("q"); q != "" {
		ds = s.cfg.Decisions.For(q)
	} else {
		ds = s.cfg.Decisions.Decisions()
	}
	if nStr := r.URL.Query().Get("n"); nStr != "" {
		if n, err := strconv.Atoi(nStr); err == nil && n >= 0 && n < len(ds) {
			ds = ds[len(ds)-n:]
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for _, d := range ds {
		if err := enc.Encode(d); err != nil {
			return
		}
	}
}

// handleIncidentsList serves the captured incident bundles' summaries,
// newest first (an empty array with no flight recorder wired).
func (s *Server) handleIncidentsList(w http.ResponseWriter, r *http.Request) {
	list := s.cfg.Incidents.Incidents()
	if list == nil {
		list = []flight.Summary{}
	}
	writeJSON(w, http.StatusOK, list)
}

// handleIncidentGet serves one incident bundle by ID — the same JSON
// document the on-disk incident dir holds.
func (s *Server) handleIncidentGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	inc, ok := s.cfg.Incidents.Incident(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown incident " + id})
		return
	}
	writeJSON(w, http.StatusOK, inc)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func durationNs(ns int64) time.Duration { return time.Duration(ns) }

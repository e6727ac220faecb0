GO ?= go

.PHONY: all build vet test test-race loopbench-check bench bench-check obs-smoke serve-smoke serve-bench sessions-smoke durability-smoke incident-smoke check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-check the packages with real concurrency: the executor's shared
# stats/cache, the parallel candidate pool, the Lawler fan-out, the
# workspace threading that ties them together, the resilience layer
# (shared breakers/jitter stream) with its fault injector, the
# observability substrate (spans/metrics shared across the candidate pool),
# the plan result cache (shared LRU hit from every candidate worker), the
# warm≡cold equivalence property test in simuser, the telemetry server
# (subscriber ring, rolling SLO windows), the session host (pin/evict
# locking under concurrent create/attach/refresh/evict), and the root
# package's concurrent-scrape tests — including the race-build-only
# 1000-session fleet sustaining refreshes under a binding memory budget
# while /metrics is scraped and the span stream followed.
test-race:
	$(GO) test -race -timeout 20m ./internal/engine ./internal/intlearn ./internal/steiner ./internal/workspace ./internal/resilience ./internal/services ./internal/obs ./internal/obs/flight ./internal/obs/serve ./internal/plancache ./internal/scenario ./internal/session ./internal/simuser .

bench:
	$(GO) test -bench . -benchtime 2s -run '^$$' .
	$(GO) run ./cmd/scpbench -exp pipeline -json -bench-out BENCH_3.json -trace trace_pipeline.json > /dev/null

# Observability smoke: machine-readable metrics + Chrome trace, failing
# if tracing-enabled runs cost more than 10% over untraced ones.
obs-smoke:
	$(GO) run ./cmd/scpbench -exp pipeline -json -bench-out BENCH_3.json -trace trace_pipeline.json -overhead-budget 0.10

# Telemetry-server smoke: start `scpbench -serve` against a live demo
# session, curl the operational endpoints, and lint the /metrics body
# with the exposition-format validator (fails on duplicate or untyped
# series). Mirrors what an orchestrator and a Prometheus scraper do.
serve-smoke:
	$(GO) build -o bin/scpbench ./cmd/scpbench
	$(GO) build -o bin/expolint ./cmd/expolint
	./bin/scpbench -serve 127.0.0.1:19464 -serve-wait 60s & \
	trap 'kill %1 2>/dev/null' EXIT; \
	for i in $$(seq 1 50); do curl -sf -o /dev/null http://127.0.0.1:19464/readyz && break; sleep 0.2; done; \
	curl -sf http://127.0.0.1:19464/metrics | ./bin/expolint && \
	curl -sf http://127.0.0.1:19464/healthz | grep -q '"status": "ok"' && \
	curl -sf -o /dev/null 'http://127.0.0.1:19464/debug/pprof/heap?debug=1' && \
	curl -sf http://127.0.0.1:19464/trace/stream | head -1 | grep -q '"name"' && \
	curl -sf 'http://127.0.0.1:19464/decisions?q=Geocoder' | grep -q '"candidate"' && \
	echo "serve-smoke: ok"

# Telemetry serving overhead gate: compare the cold suggestion-refresh
# loop with the telemetry server idle vs scraped at 20Hz, failing if
# serving costs more than 10%.
serve-bench:
	$(GO) run ./cmd/scpbench -exp serve -json -overhead-budget 0.10 > BENCH_5.json

# Multi-tenant session smoke: boot the session host server (3-session
# cap, two tenants pre-seeded), walk the /sessions lifecycle over HTTP —
# create the third session, watch the next create shed with 503 and
# /readyz flip to 503 under the induced overload, evict and attach a
# seeded session through its snapshot, destroy to recover readiness —
# and lint the per-tenant /metrics families with the exposition
# validator.
sessions-smoke:
	$(GO) build -o bin/scpbench ./cmd/scpbench
	$(GO) build -o bin/expolint ./cmd/expolint
	./bin/scpbench -serve 127.0.0.1:19465 -serve-sessions 3 -serve-wait 60s & \
	trap 'kill %1 2>/dev/null' EXIT; \
	for i in $$(seq 1 50); do curl -sf -o /dev/null http://127.0.0.1:19465/readyz && break; sleep 0.2; done; \
	curl -sf -X POST 'http://127.0.0.1:19465/sessions?tenant=smoke' | grep -q '"id": "s000003"' && \
	test "$$(curl -s -o /dev/null -w '%{http_code}' -X POST http://127.0.0.1:19465/sessions)" = 503 && \
	curl -s http://127.0.0.1:19465/readyz | grep -q 'shedding' && \
	test "$$(curl -s -o /dev/null -w '%{http_code}' http://127.0.0.1:19465/readyz)" = 503 && \
	curl -sf -X POST http://127.0.0.1:19465/sessions/s000001/evict | grep -q '"resident": false' && \
	curl -sf -X POST http://127.0.0.1:19465/sessions/s000001/attach | grep -q '"resident": true' && \
	curl -sf -X DELETE -o /dev/null http://127.0.0.1:19465/sessions/s000003 && \
	curl -sf -o /dev/null http://127.0.0.1:19465/readyz && \
	curl -sf http://127.0.0.1:19465/metrics | ./bin/expolint && \
	curl -sf http://127.0.0.1:19465/metrics | grep -q 'copycat_session_resident{session="s000001",tenant="alice"}' && \
	curl -sf http://127.0.0.1:19465/sessions | grep -q '"tenant": "bob"' && \
	echo "sessions-smoke: ok"

# Durable-host smoke: boot the session host with a file-backed store on
# a fresh directory, evict a seeded session so its snapshot hits disk,
# stop the server with SIGTERM (which checkpoints the resident fleet),
# then restart over the same directory and attach the evicted session
# through its on-disk snapshot — the kill-and-restart story end to end,
# with the tenant label surviving.
durability-smoke:
	$(GO) build -o bin/scpbench ./cmd/scpbench
	rm -rf bin/durability-store && \
	./bin/scpbench -serve 127.0.0.1:19466 -serve-sessions 8 -store-dir bin/durability-store -serve-wait 60s & \
	PID=$$!; trap 'kill $$PID 2>/dev/null' EXIT; \
	for i in $$(seq 1 50); do curl -sf -o /dev/null http://127.0.0.1:19466/readyz && break; sleep 0.2; done; \
	curl -sf -X POST http://127.0.0.1:19466/sessions/s000001/evict | grep -q '"resident": false' && \
	curl -sf http://127.0.0.1:19466/metrics | grep -q 'copycat_sessions_store_snapshots 1' && \
	kill $$PID && wait $$PID 2>/dev/null; \
	test -f bin/durability-store/s000001.snap && \
	test -f bin/durability-store/s000002.snap && \
	./bin/scpbench -serve 127.0.0.1:19466 -serve-sessions 8 -store-dir bin/durability-store -serve-wait 60s & \
	PID=$$!; trap 'kill $$PID 2>/dev/null' EXIT; \
	for i in $$(seq 1 50); do curl -sf -o /dev/null http://127.0.0.1:19466/readyz && break; sleep 0.2; done; \
	curl -sf http://127.0.0.1:19466/sessions | grep -q '"tenant": "alice"' && \
	curl -sf -X POST http://127.0.0.1:19466/sessions/s000001/attach | grep -q '"resident": true' && \
	curl -sf -X POST 'http://127.0.0.1:19466/sessions?tenant=smoke' | grep -q '"id": "s000003"' && \
	echo "durability-smoke: ok"

# Flight-recorder incident smoke: boot the telemetry server with a 90%
# service fault rate and an incident directory, wait for a breaker to
# open and the flight recorder to capture, then verify the whole
# post-mortem path: /incidents lists a breaker.open bundle, the full
# bundle is served by id, a self-contained JSON bundle landed on disk,
# `scpbench -analyze-incident` reconstructs the timeline naming the
# breaker transition, /metrics passes the exposition lint and exports a
# non-zero copycat_incidents_captured_total.
incident-smoke:
	$(GO) build -o bin/scpbench ./cmd/scpbench
	$(GO) build -o bin/expolint ./cmd/expolint
	rm -rf bin/incidents && \
	./bin/scpbench -serve 127.0.0.1:19467 -serve-faults 0.9 -incident-dir bin/incidents -serve-wait 60s & \
	trap 'kill %1 2>/dev/null' EXIT; \
	for i in $$(seq 1 100); do curl -s http://127.0.0.1:19467/incidents | grep -q '"trigger": "breaker.open"' && break; sleep 0.2; done; \
	curl -sf http://127.0.0.1:19467/incidents | grep -q '"trigger": "breaker.open"' && \
	ID=$$(curl -sf http://127.0.0.1:19467/incidents | grep -o '"id": "inc-[^"]*breaker-open"' | head -1 | cut -d'"' -f4) && \
	curl -sf http://127.0.0.1:19467/incidents/$$ID | grep -q '"runtime"' && \
	test -f bin/incidents/$$ID.json && \
	./bin/scpbench -analyze-incident bin/incidents/$$ID.json | grep -q -- '-> open' && \
	./bin/scpbench -analyze-incident bin/incidents/$$ID.json | grep -q 'trigger   breaker.open' && \
	curl -sf http://127.0.0.1:19467/metrics | ./bin/expolint && \
	curl -sf http://127.0.0.1:19467/metrics | grep -qE 'copycat_incidents_captured_total [1-9]' && \
	echo "incident-smoke: ok"

# Incremental-refresh regression gate: run the warm/cold pipeline
# comparison (which also proves warm ≡ cold over lockstep twin sessions),
# fail if the warm refresh p99 regressed more than 10% against the
# committed BENCH_4.json, and refresh the report in place. Then the
# session-capacity gate: re-run the fleet grid against the committed
# BENCH_6.json, failing if availability drops below 99% at any point,
# the admission cap stops rejecting, or the memory budget stops forcing
# eviction/reload churn at the knee; the curve is refreshed in place.
# Then the durability gate: re-run the durable-store experiment
# against the committed BENCH_7.json, failing if the on-disk compression
# ratio drops below 2× or the rebuilt host stops recovering the fleet.
# Then the accuracy gate: score the scenario corpus (warm and cold
# runs must agree exactly) against the committed BENCH_8.json, failing
# on grid/scenario drift, lost convergence, or a mean-MRR/recall drop
# beyond 0.05. Finally the scale gate: sweep the 1x/10x/100x worlds
# against the committed BENCH_9.json, failing if the tiered first-answer
# p99 regresses past 2x, SPCSH/exact top-1 agreement drops, or the
# within-run tiered-vs-exact speedup falls under the per-scale floor
# (≥10x on the 100x world). Finally the flight-recorder gate: re-run
# the attached-vs-detached cold-loop comparison, failing if always-on
# incident recording costs more than 2%; BENCH_10.json is refreshed in
# place.
bench-check:
	$(GO) run ./cmd/scpbench -exp pipeline -warm -cold -baseline BENCH_4.json -bench-out BENCH_4.json
	$(GO) run ./cmd/scpbench -exp capacity -baseline BENCH_6.json -bench-out BENCH_6.json
	$(GO) run ./cmd/scpbench -exp durability -baseline BENCH_7.json -bench-out BENCH_7.json
	$(GO) run ./cmd/scpbench -exp accuracy -baseline BENCH_8.json -bench-out BENCH_8.json
	$(GO) run ./cmd/scpbench -exp scale -baseline BENCH_9.json -bench-out BENCH_9.json
	$(GO) run ./cmd/scpbench -exp flight -overhead-budget 0.02 -bench-out BENCH_10.json

# The benchmark module (loopbench/, its own go.mod) is outside the root
# module's ./..., so vet and test it separately: a change to an API it
# calls then fails here rather than only when the benchmark runs.
loopbench-check:
	cd loopbench && $(GO) vet ./... && $(GO) test ./...

# Tier-1 gate: everything a PR must keep green.
check: build vet test test-race loopbench-check

package main

// selfLayers are the layers with spans on the live loop, whose self time
// per operation the traced run reports.
var selfLayers = []string{
	"wrappers", "structlearn", "modellearn", "sourcegraph", "workspace",
	"intlearn", "engine", "mira", "session",
}

// layerMetrics fills the per-layer metrics of a traced run: phase
// latencies only some workloads have (from the untraced phase), layer
// times from the traced phase's spans and replays, layer counters, each
// live layer's self time, and the tracing overhead.
func layerMetrics(r *result, plain, tp *phase) {
	f := tp.tr.fold()

	r.set("ops_per_s", plain.rate, "ops/s")
	r.set("op_p50_ms", plain.pct("op", 0.50), "ms")
	r.set("paste_p50_ms", plain.pct("paste", 0.50), "ms")
	r.set("refresh_cold_p50_ms", plain.pct("refresh_cold", 0.50), "ms")
	r.set("refresh_p99_ms", plain.tailPct("refresh", 0.99), "ms")
	r.set("query_p50_ms", plain.pct("query", 0.50), "ms")
	r.set("query_p99_ms", plain.tailPct("query", 0.99), "ms")
	r.set("attach_p50_ms", plain.pct("attach", 0.50), "ms")
	r.set("attach_p99_ms", plain.tailPct("attach", 0.99), "ms")
	r.set("op_p99_ms", plain.tailPct("op", 0.99), "ms")
	if _, ok := r.Metrics["snapshot_kb"]; !ok {
		r.set("snapshot_kb", 0, "KiB")
	}

	r.set("wrappers.copy_ms", f.meanMs("wrappers.copy"), "ms")
	r.set("structlearn.learn_ms", f.meanMs("learn.generalize"), "ms")
	r.set("structlearn.hypotheses", tp.avg("structlearn.hypotheses"), "count")
	r.set("structlearn.extend_ms", f.meanMs("structlearn.extend"), "ms")
	r.set("modellearn.annotate_ms", f.meanMs("learn.type"), "ms")
	r.set("sourcegraph.discover_ms", f.meanMs("sourcegraph.discover"), "ms")
	r.set("sourcegraph.edges", tp.avg("sourcegraph.edges"), "count")
	r.set("workspace.accept_rows_ms", f.meanMs("workspace.accept_rows"), "ms")
	r.set("workspace.refresh_self_ms", f.ownMs("workspace.refresh"), "ms")
	r.set("workspace.find_sources_ms", f.meanMs("workspace.find_sources"), "ms")
	r.set("intlearn.completions_ms", f.meanMs("suggest.refresh"), "ms")
	r.set("intlearn.candidates_run", tp.perOp("intlearn.candidates_run"), "count")
	r.set("intlearn.plans_reused", tp.perOp("intlearn.plans_reused"), "count")
	r.set("intlearn.plans_invalidated", tp.perOp("intlearn.plans_invalidated"), "count")
	r.set("intlearn.topqueries_ms", f.meanMs("intlearn.topqueries", "search.queries"), "ms")
	r.set("intlearn.refine_wait_ms", f.meanMs("intlearn.refine_wait"), "ms")
	r.set("intlearn.compile_ms", f.meanMs("intlearn.compile"), "ms")
	r.set("intlearn.tier_exact", tp.perOp("intlearn.tier_exact"), "count")
	r.set("intlearn.tier_tiered", tp.perOp("intlearn.tier_tiered"), "count")
	r.set("intlearn.tier_heuristic", tp.perOp("intlearn.tier_heuristic"), "count")
	r.set("steiner.spcsh_ms", f.meanMs("steiner.spcsh"), "ms")
	r.set("steiner.topk_ms", f.meanMs("steiner.topk"), "ms")
	r.set("steiner.allocs_per_solve", tp.avg("steiner.allocs_per_solve"), "count")
	r.set("steiner.exact_ms", f.meanMs("steiner.exact"), "ms")
	r.set("engine.record_link_ms", f.meanMs("engine.record_link"), "ms")
	r.set("engine.dependent_join_ms", f.meanMs("engine.dependent_join"), "ms")
	r.set("engine.hash_join_ms", f.meanMs("engine.hash_join"), "ms")
	r.set("engine.rows_in", tp.avg("engine.rows_in"), "count")
	r.set("engine.rows_out", tp.avg("engine.rows_out"), "count")
	r.set("engine.service_calls", tp.avg("engine.service_calls"), "count")
	r.set("engine.service_cache_hit_ratio", ratio(tp.sum["engine.service_cache_hits"], tp.sum["engine.service_lookups"]), "ratio")
	r.set("linkage.pairs_scored", tp.avg("linkage.pairs_scored"), "count")
	r.set("linkage.pairs_linked", tp.avg("linkage.pairs_linked"), "count")
	r.set("mira.update_ms", f.meanMs("mira.update", "rank.mira"), "ms")
	r.set("mira.weights", tp.avg("mira.weights"), "count")
	r.set("plancache.hit_ratio", ratio(tp.sum["plancache.hits"], tp.sum["plancache.lookups"]), "ratio")
	r.set("plancache.evictions", tp.perOp("plancache.evictions"), "count")
	r.set("session.acquire_ms", f.meanMs("session.acquire"), "ms")
	r.set("session.reload_ms", mean(tp.lat["reload"]), "ms")
	r.set("session.factory_ms", f.meanMs("session.factory"), "ms")
	r.set("session.restore_ms", f.meanMs("session.restore"), "ms")
	r.set("session.snapshot_ms", f.meanMs("session.snapshot"), "ms")
	r.set("session.store_save_ms", f.meanMs("session.store_save"), "ms")
	r.set("session.store_load_ms", f.meanMs("session.store_load"), "ms")
	if _, ok := r.Metrics["session.evictions"]; !ok {
		r.set("session.evictions", 0, "count")
	}
	r.set("session.reloads", tp.perOp("session.reloads"), "count")
	for _, name := range []string{"session.estimate_kb", "session.heap_kb"} {
		if _, ok := r.Metrics[name]; !ok {
			r.set(name, 0, "KiB")
		}
	}
	r.set("persist.compress_ms", f.meanMs("persist.compress"), "ms")
	r.set("persist.decompress_ms", f.meanMs("persist.decompress"), "ms")
	r.set("persist.raw_kb", tp.avg("persist.raw_kb"), "KiB")
	r.set("persist.ratio", tp.avg("persist.ratio"), "ratio")
	r.set("obs.spans", float64(f.program)/float64(max(tp.ops, 1)), "count")
	r.set("obs.decisions", tp.perOp("obs.decisions"), "count")
	r.set("obs.tracing_overhead_pct", (tp.pct("op", 0.50)/plain.pct("op", 0.50)-1)*100, "%")
	for _, l := range selfLayers {
		r.set(l+".self_ms", float64(f.selfOf[l])/1e6/float64(max(tp.ops, 1)), "ms")
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

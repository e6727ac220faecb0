package main

// Layer replays for the traced run. Layers that run inside another
// layer's call — Steiner search, each engine operator, record linkage,
// snapshot and compression — get no span of their own on the live path,
// so the traced run feeds the same inputs to their public functions
// again and times those calls alone.

import (
	"context"
	"fmt"
	"runtime"

	"copycat/internal/engine"
	"copycat/internal/intlearn"
	"copycat/internal/steiner"
	"copycat/internal/table"
	"copycat/internal/workspace"
)

// steinerReplay is a steiner.Graph built from a source graph's edges and
// learned costs, as the learner compiles it.
type steinerReplay struct {
	g   *steiner.Graph
	idx map[string]int
}

func newSteinerReplay(lrn *intlearn.Learner) *steinerReplay {
	names := lrn.Graph.Catalog().Names()
	r := &steinerReplay{g: steiner.NewGraph(len(names)), idx: make(map[string]int, len(names))}
	for i, n := range names {
		r.idx[n] = i
	}
	for _, e := range lrn.Graph.Edges() {
		u, okU := r.idx[e.From]
		v, okV := r.idx[e.To]
		if !okU || !okV {
			continue
		}
		r.g.AddEdge(u, v, max(lrn.Mira.Weight(e.ID), 0))
	}
	return r
}

// solve times the heuristic, the exact solver and the top-k search the
// learner runs for these terminals, and counts the heuristic's
// allocations.
func (r *steinerReplay) solve(c *client, terms []string) error {
	var ts []int
	for _, t := range terms {
		if i, ok := r.idx[t]; ok {
			ts = append(ts, i)
		}
	}
	if len(ts) < 2 {
		return fmt.Errorf("terminals %v not in the replayed graph", terms)
	}
	ctx := context.Background()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp := c.replaySpan("steiner", "spcsh")
	steiner.SPCSHCtx(ctx, r.g, ts, nil)
	sp.end()
	runtime.ReadMemStats(&m1)
	c.add("steiner.allocs_per_solve", float64(m1.Mallocs-m0.Mallocs))
	sp = c.replaySpan("steiner", "topk")
	_, err := steiner.TopKCtx(ctx, r.g, ts, stitchK, steiner.CtxSolver(steiner.SPCSHCtx), nil)
	sp.end()
	if err != nil {
		return err
	}
	sp = c.replaySpan("steiner", "exact")
	steiner.ExactCtx(ctx, r.g, ts, nil)
	sp.end()
	return nil
}

// replaySteiner replays the query search of a workspace's learner.
func replaySteiner(c *client, lrn *intlearn.Learner, terms []string) error {
	return newSteinerReplay(lrn).solve(c, terms)
}

// replayCompletions executes each suggestion's plan alone on a fresh
// execution context (so every service call is cold), timing each join
// operator on inputs materialized beforehand.
func replayCompletions(c *client, comps []intlearn.Completion) error {
	st := engine.NewStats()
	ec := engine.NewExecCtx(context.Background(), engine.WithStats(st), engine.WithServiceCache(engine.NewServiceCache()))
	for _, cp := range comps {
		if _, err := replayPlan(c, cp.Plan, ec); err != nil {
			return fmt.Errorf("replaying %s: %w", cp.Edge.ID, err)
		}
	}
	addEngineCounts(c, st.Snapshot())
	return nil
}

func addEngineCounts(c *client, s engine.StatsSnapshot) {
	c.add("engine.rows_in", float64(s.RowsIn))
	c.add("engine.rows_out", float64(s.RowsOut))
	c.add("engine.service_calls", float64(s.ServiceCalls))
	c.add("engine.service_lookups", float64(s.ServiceCalls+s.ServiceCacheHits))
	c.add("engine.service_cache_hits", float64(s.ServiceCacheHits))
}

// replayPlan executes p bottom-up. Each join runs on copies of its
// inputs already materialized, so its span holds the operator's own
// work; a record-link join also counts the pairs it scores and the pairs
// it outputs.
func replayPlan(c *client, p engine.Plan, ec *engine.ExecCtx) (*engine.Result, error) {
	switch n := p.(type) {
	case *engine.HashJoin:
		l, err := replayPlan(c, n.Left, ec)
		if err != nil {
			return nil, err
		}
		r, err := replayPlan(c, n.Right, ec)
		if err != nil {
			return nil, err
		}
		op := &engine.HashJoin{Left: values(l), Right: values(r), LeftCols: n.LeftCols, RightCols: n.RightCols}
		sp := c.replaySpan("engine", "hash_join")
		defer sp.end()
		return op.Execute(ec)
	case *engine.DependentJoin:
		in, err := replayPlan(c, n.Input, ec)
		if err != nil {
			return nil, err
		}
		op := &engine.DependentJoin{Input: values(in), Svc: n.Svc, InputCols: n.InputCols, Outer: n.Outer}
		sp := c.replaySpan("engine", "dependent_join")
		defer sp.end()
		return op.Execute(ec)
	case *engine.RecordLinkJoin:
		l, err := replayPlan(c, n.Left, ec)
		if err != nil {
			return nil, err
		}
		r, err := replayPlan(c, n.Right, ec)
		if err != nil {
			return nil, err
		}
		scored := 0
		sim := func(a, b table.Tuple) float64 {
			scored++
			return n.Sim(a, b)
		}
		op := &engine.RecordLinkJoin{Left: values(l), Right: values(r), LeftCols: n.LeftCols, RightCols: n.RightCols,
			Sim: sim, Threshold: n.Threshold, BestOnly: n.BestOnly}
		sp := c.replaySpan("engine", "record_link")
		res, err := op.Execute(ec)
		sp.end()
		if err != nil {
			return nil, err
		}
		// The join is inner, so its output rows are the pairs it links
		// (under BestOnly, only each left row's best-scoring matches).
		c.add("linkage.pairs_scored", float64(scored))
		c.add("linkage.pairs_linked", float64(len(res.Rows)))
		return res, nil
	default:
		return p.Execute(ec)
	}
}

func values(r *engine.Result) *engine.Values {
	return &engine.Values{Name: r.Name, Schema_: r.Schema, Rows: r.Rows}
}

// decisionsRecorded is the number of decisions the workspace's log has
// recorded so far (the sequence number of its latest entry).
func decisionsRecorded(ws *workspace.Workspace) int {
	ds := ws.Decisions.Decisions()
	if len(ds) == 0 {
		return 0
	}
	return ds[len(ds)-1].Seq
}

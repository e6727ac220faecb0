package intlearn

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"copycat/internal/engine"
)

func TestTopQueriesCtxCancelledLeaksNoGoroutines(t *testing.T) {
	l, _ := setup(t)
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		ec := engine.NewExecCtx(ctx)
		if _, err := l.TopQueriesCtx(ec, []string{"Shelters", "Contacts"}, 3); !errors.Is(err, context.Canceled) {
			t.Fatalf("iteration %d: want context.Canceled, got %v", i, err)
		}
	}
	// Workers must have joined; allow the runtime a few polls to settle.
	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}

func TestColumnCompletionsCtxCancelled(t *testing.T) {
	l, _ := setup(t)
	base := workspaceValues(l)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ec := engine.NewExecCtx(ctx)
	if comps := l.ColumnCompletionsCtx(ec, base, []string{"Shelters"}); len(comps) != 0 {
		t.Fatalf("cancelled run produced %d completions", len(comps))
	}
	if got := ec.Stats().ServiceCalls.Load(); got != 0 {
		t.Fatalf("cancelled run made %d service calls", got)
	}
	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}

func TestColumnCompletionsParallelMatchesSerial(t *testing.T) {
	l, _ := setup(t)
	base := workspaceValues(l)
	// The compat entry point (parallel pool under the hood) must produce
	// the same ranked candidates on every run — determinism is part of
	// the suggestion UI contract.
	first := l.ColumnCompletionsCtx(nil, base, []string{"Shelters"})
	if len(first) == 0 {
		t.Fatal("no completions")
	}
	for run := 0; run < 3; run++ {
		again := l.ColumnCompletionsCtx(nil, base, []string{"Shelters"})
		if len(again) != len(first) {
			t.Fatalf("run %d: %d completions, want %d", run, len(again), len(first))
		}
		for i := range again {
			if again[i].Edge.ID != first[i].Edge.ID || again[i].Cost != first[i].Cost {
				t.Fatalf("run %d: rank %d is %s, want %s", run, i, again[i].Edge.ID, first[i].Edge.ID)
			}
			if len(again[i].Result.Rows) != len(first[i].Result.Rows) {
				t.Fatalf("run %d: rank %d row count drifted", run, i)
			}
		}
	}
}

func TestTopQueriesCtxDeadline(t *testing.T) {
	l, _ := setup(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // let the deadline expire
	ec := engine.NewExecCtx(ctx)
	if _, err := l.TopQueriesCtx(ec, []string{"Shelters", "Contacts"}, 3); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

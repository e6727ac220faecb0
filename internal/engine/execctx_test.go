package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"copycat/internal/provenance"
	"copycat/internal/table"
)

// slowService is a synthetic service that sleeps per call — a stand-in
// for a slow web endpoint.
type slowService struct {
	delay time.Duration
	calls int
}

func (s *slowService) Name() string              { return "Slow" }
func (s *slowService) InputSchema() table.Schema { return table.NewSchema("K") }
func (s *slowService) OutputSchema() table.Schema {
	return table.NewSchema("V")
}
func (s *slowService) Call(in table.Tuple) ([]table.Tuple, error) {
	s.calls++
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	return []table.Tuple{{table.S("v:" + in[0].Str())}}, nil
}

// keysValues builds a Values plan with n distinct single-column rows.
func keysValues(n int) *Values {
	v := &Values{Name: "keys", Schema_: table.NewSchema("K")}
	for i := 0; i < n; i++ {
		v.Rows = append(v.Rows, provenance.Annotated{
			Row:  table.Tuple{table.S(string(rune('a'+i%26)) + string(rune('0'+i/26)))},
			Prov: provenance.Leaf{ID: provenance.BaseID("keys", i), Source: "keys"},
		})
	}
	return v
}

func TestDeadlineExceededPromptly(t *testing.T) {
	svc := &slowService{delay: 20 * time.Millisecond}
	dj := &DependentJoin{Input: keysValues(200), Svc: svc, InputCols: []int{0}}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := dj.Execute(NewExecCtx(ctx))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	// 200 rows × 20ms would be 4s serially; the deadline must cut in
	// after at most a few calls.
	if el := time.Since(start); el > time.Second {
		t.Fatalf("deadline not honored promptly: took %v", el)
	}
	if svc.calls > 5 {
		t.Fatalf("service called %d times after a 30ms deadline", svc.calls)
	}
}

func TestCancelledContextCallsNoService(t *testing.T) {
	svc := &slowService{}
	dj := &DependentJoin{Input: keysValues(10), Svc: svc, InputCols: []int{0}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled before execution starts
	ec := NewExecCtx(ctx)
	if _, err := dj.Execute(ec); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if got := ec.Stats().ServiceCalls.Load(); got != 0 {
		t.Fatalf("Stats.ServiceCalls = %d, want 0 for a pre-cancelled context", got)
	}
	if svc.calls != 0 {
		t.Fatalf("service invoked %d times under a cancelled context", svc.calls)
	}
}

func TestServiceCacheAcrossExecutions(t *testing.T) {
	svc := &slowService{}
	dj := &DependentJoin{Input: keysValues(8), Svc: svc, InputCols: []int{0}}
	cache := NewServiceCache()
	stats := NewStats()

	first, err := dj.Execute(NewExecCtx(context.Background(), WithStats(stats), WithServiceCache(cache)))
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.ServiceCalls.Load(); got != 8 {
		t.Fatalf("first run: ServiceCalls = %d, want 8", got)
	}
	second, err := dj.Execute(NewExecCtx(context.Background(), WithStats(stats), WithServiceCache(cache)))
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.ServiceCalls.Load(); got != 8 {
		t.Fatalf("second run re-called the service: ServiceCalls = %d, want 8", got)
	}
	if got := stats.ServiceCacheHits.Load(); got != 8 {
		t.Fatalf("second run: ServiceCacheHits = %d, want 8", got)
	}
	if cache.Len() != 8 {
		t.Fatalf("cache holds %d bindings, want 8", cache.Len())
	}

	// Results must be identical with memoization fully disabled.
	bare, err := dj.Execute(NewExecCtx(context.Background(), WithoutServiceMemo()))
	if err != nil {
		t.Fatal(err)
	}
	if len(bare.Rows) != len(first.Rows) || len(bare.Rows) != len(second.Rows) {
		t.Fatalf("row counts differ: cached %d/%d vs uncached %d", len(first.Rows), len(second.Rows), len(bare.Rows))
	}
	for i := range bare.Rows {
		if bare.Rows[i].Row.Key() != first.Rows[i].Row.Key() {
			t.Fatalf("row %d differs between cached and uncached execution", i)
		}
	}
}

func TestRowBudget(t *testing.T) {
	scan := NewScan(shelters())
	if _, err := scan.Execute(NewExecCtx(context.Background(), WithRowBudget(1))); !errors.Is(err, ErrRowBudget) {
		t.Fatalf("want ErrRowBudget, got %v", err)
	}
	if _, err := scan.Execute(NewExecCtx(context.Background(), WithRowBudget(1000))); err != nil {
		t.Fatalf("generous budget should pass: %v", err)
	}
}

func TestRunCompatHelper(t *testing.T) {
	res, err := NewScan(shelters()).Execute(Background())
	if err != nil || len(res.Rows) == 0 {
		t.Fatalf("Run failed: %v", err)
	}
}

func TestNilExecCtxUpgrades(t *testing.T) {
	res, err := NewScan(shelters()).Execute(nil)
	if err != nil || len(res.Rows) == 0 {
		t.Fatalf("nil ExecCtx should execute as background: %v", err)
	}
}

func TestStatsPerOperator(t *testing.T) {
	stats := NewStats()
	ec := NewExecCtx(context.Background(), WithStats(stats))
	sel := &Select{Input: NewScan(shelters()), Pred: func(table.Tuple) bool { return true }, Desc: "all"}
	if _, err := sel.Execute(ec); err != nil {
		t.Fatal(err)
	}
	snap := stats.Snapshot()
	if snap.PerOp["Scan"].Invocations != 1 || snap.PerOp["Select"].Invocations != 1 {
		t.Fatalf("per-op invocations wrong: %+v", snap.PerOp)
	}
	if snap.PerOp["Select"].RowsIn != snap.PerOp["Scan"].RowsOut {
		t.Fatalf("select rows-in %d != scan rows-out %d", snap.PerOp["Select"].RowsIn, snap.PerOp["Scan"].RowsOut)
	}
	if snap.String() == "" {
		t.Fatal("snapshot rendering empty")
	}
}

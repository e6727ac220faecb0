package copycat_test

import (
	"context"
	"io"
	"net/http"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"copycat"
	"copycat/internal/obs"
	"copycat/internal/obs/serve"
)

// liveHeap is the live heap after two collections.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestTracedHostedSessionHeapStaysFlat keeps one traced hosted session
// resident through 10k warm refreshes. Its trace, the host span ring and
// the decision logs are bounded rings; a warm refresh ends one span, so
// they are full by 5k refreshes, and from 5k to 10k the live heap may
// not grow by more than 256 KiB (an unbounded trace grew it by ~530
// KiB over those 5k refreshes). The rings' overwrite
// counters are exported on the host's /metrics and pass the exposition
// lint.
func TestTracedHostedSessionHeapStaysFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("heap growth under the race detector's shadow memory is not the program's")
	}
	host := copycat.NewDemoHost(hostWorldConfig(), copycat.SessionConfig{EnableTracing: true})
	sys, err := host.Create("acme")
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Release()
	if err := seedSystem(sys); err != nil {
		t.Fatal(err)
	}
	refresh := func(n int) {
		for i := 0; i < n; i++ {
			if len(sys.Workspace.RefreshColumnSuggestions()) == 0 {
				t.Fatalf("refresh %d produced no suggestions", i)
			}
		}
	}
	refresh(5000)
	at5k := liveHeap()
	refresh(5000)
	at10k := liveHeap()
	if growth := at10k - at5k; growth > 256<<10 {
		t.Errorf("live heap grew %d KiB from 5k to 10k refreshes (%d → %d KiB)", growth>>10, at5k>>10, at10k>>10)
	}
	tr := sys.Workspace.Trace()
	if tr.Len() != obs.DefaultSpanRingSize || tr.Overwritten() == 0 {
		t.Errorf("trace retains %d spans (%d overwritten), want the bound %d", tr.Len(), tr.Overwritten(), obs.DefaultSpanRingSize)
	}

	ctx, cancel := context.WithCancel(context.Background())
	srv, err := host.Serve(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		cancel()
		srv.Wait()
	}()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := serve.Lint(strings.NewReader(string(body))); err != nil {
		t.Fatalf("metrics lint: %v", err)
	}
	for _, family := range []string{"copycat_spans_overwritten_total", "copycat_decisions_overwritten_total"} {
		m := regexp.MustCompile(`(?m)^` + family + ` (\S+)$`).FindStringSubmatch(string(body))
		if m == nil {
			t.Errorf("/metrics has no %s", family)
			continue
		}
		if v, _ := strconv.ParseFloat(m[1], 64); v <= 0 {
			t.Errorf("%s = %s after 10k refreshes, want > 0", family, m[1])
		}
	}
}

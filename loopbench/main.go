// Command loopbench measures CopyCat's copy → suggest → feedback loop end
// to end and layer by layer. It runs one named workload from a seed for a
// fixed time, checks every operation's outputs against a computation made
// apart from the program, and prints one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// measures the workload untraced and then traced for the same time each,
// replays the inner layers on the same inputs, and prints the per-layer
// metrics. See README.md for the workloads, metrics and checks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// procStart stands in for the process start: package variables are
// initialized before main runs, so setup_s counts runtime start-up too.
var procStart = time.Now()

// workload is one benchmark scenario. setup builds the world and every
// long-lived structure; op runs one closed-loop operation for a client
// and returns an error when the program fails or a check rejects its
// output; finish adds the workload's end-of-run checks and metrics.
type workload interface {
	setup(seed int64) error
	clients() int
	op(c *client) error
	finish(r *result, traced bool)
	close()
}

var workloads = map[string]func() workload{
	"analyst":     func() workload { return &analyst{} },
	"stitch-100x": func() workload { return &stitch{} },
	"fleet":       func() workload { return &fleet{} },
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	problems []string // check failures outside any single operation
}

func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	name := flag.String("workload", "", "workload: analyst, stitch-100x or fleet")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Int("seconds", 10, "measured seconds (per phase with -trace 1)")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "loopbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	res, err := run(*name, mk(), *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loopbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loopbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// workDir is where a run creates its files: the fleet's snapshot store
// (removed at exit) and the traced run's span file.
var workDir = "."

// run sets the workload up, measures it and assembles the result. A
// traced run also writes its spans to loopbench-trace-<workload>.json.
func run(name string, w workload, seed int64, d time.Duration, traced bool) (*result, error) {
	defer w.close()
	if err := w.setup(seed); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	setup := time.Since(procStart)
	res := &result{Correct: true, Metrics: map[string]metric{}}

	plain := measure(w, seed, d, nil)
	var tr *phase
	if traced {
		tr = measure(w, seed, d, newTracer())
	}
	for _, p := range []*phase{plain, tr} {
		if p == nil {
			continue
		}
		res.Attempted += p.ops
		res.Failed += p.failed
		for _, e := range p.errs {
			fmt.Fprintln(os.Stderr, "loopbench: failed op:", e)
		}
	}
	w.finish(res, traced)
	if traced {
		layerMetrics(res, plain, tr)
		if err := tr.tr.writeChrome(filepath.Join(workDir, "loopbench-trace-"+name+".json")); err != nil {
			return nil, err
		}
	} else {
		endToEnd(res, plain)
		res.set("setup_s", setup.Seconds(), "s")
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "loopbench: check failed:", p)
	}
	res.Correct = res.Failed == 0 && len(res.problems) == 0
	if res.Attempted == 0 {
		return nil, fmt.Errorf("no operation completed in %v", d)
	}
	return res, nil
}

// endToEnd fills the metrics a user of the system sees, from the
// untraced phase.
func endToEnd(r *result, p *phase) {
	r.set("op_cpu_ms", p.cpu, "ms")
	r.set("refresh_p50_ms", p.pct("refresh", 0.50), "ms")
	r.set("feedback_p50_ms", p.pct("feedback", 0.50), "ms")
	r.set("heap_mb", liveHeapMiB(), "MiB")
	fmt.Fprintf(os.Stderr, "loopbench: %d ops, %.4g ops/s, op p50 %.4g ms; samples: op %d, refresh %d, feedback %d\n",
		p.ops, p.rate, p.pct("op", 0.50), len(p.lat["op"]), len(p.lat["refresh"]), len(p.lat["feedback"]))
}

// liveHeapMiB is the live heap after full collections.
func liveHeapMiB() float64 { return float64(heapBytes()) / (1 << 20) }

// heapBytes is the live heap after two full collections; the second also
// frees what sync.Pool victim caches kept through the first.
func heapBytes() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// percentile is the nearest-rank q-quantile of samples in milliseconds,
// or 0 for no samples.
func percentile(samples []time.Duration, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return ms(s[i])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mean(samples []time.Duration) float64 {
	if len(samples) == 0 {
		return 0
	}
	var t time.Duration
	for _, d := range samples {
		t += d
	}
	return ms(t) / float64(len(samples))
}

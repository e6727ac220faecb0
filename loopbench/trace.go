package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"copycat/internal/obs"
	"copycat/internal/workspace"
)

// span is one recorded interval. Spans the benchmark opens around its
// own calls have key 0; spans folded in from the program's tracer keep
// their parent link (key/parent, unique across traces) and are placed
// under a benchmark span by time containment when they are roots.
type span struct {
	layer, name string
	start, end  int64 // ns since procStart
	key, parent int64
	replay      bool // a replayed layer call, not part of the live loop
}

// lane holds the spans of one client. Program spans can end on the
// program's worker goroutines, hence the lock.
type lane struct {
	mu    sync.Mutex
	spans []span
}

func (l *lane) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// tracer owns the lanes of a traced phase and routes spans that reach
// the benchmark through callbacks (the session factory and store
// wrappers) to the lane of the goroutine making the call.
type tracer struct {
	mu     sync.Mutex
	lanes  []*lane
	byGo   map[int64]*lane
	traces map[*workspace.Workspace]programTrace
	keys   int64
}

// programTrace is the program's own trace on one workspace: when it was
// enabled and the key offset its span ids are folded under.
type programTrace struct {
	base    int64 // trace epoch, ns since procStart
	keyBase int64
}

func newTracer() *tracer {
	return &tracer{byGo: map[int64]*lane{}, traces: map[*workspace.Workspace]programTrace{}}
}

func (t *tracer) newLane() *lane {
	l := &lane{}
	t.mu.Lock()
	t.lanes = append(t.lanes, l)
	t.mu.Unlock()
	return l
}

// bind routes callback spans from the calling goroutine to l.
func (t *tracer) bind(l *lane) {
	id := goid()
	t.mu.Lock()
	t.byGo[id] = l
	t.mu.Unlock()
}

// laneOfCaller is the lane bound to the calling goroutine, or nil.
func (t *tracer) laneOfCaller() *lane {
	if t == nil {
		return nil
	}
	id := goid()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byGo[id]
}

// goid parses the current goroutine's id from its stack header
// ("goroutine 17 [running]:").
func goid() int64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseInt(string(b), 10, 64)
	return id
}

// follow turns on the program's own tracer for ws (if it is not on yet)
// and sends its spans to l until the next follow. The sink keeps the
// span ring and flight recorder fed, as the workspace's own sink does.
func (t *tracer) follow(ws *workspace.Workspace, l *lane) {
	t.mu.Lock()
	pt, ok := t.traces[ws]
	t.mu.Unlock()
	if !ok || !ws.Tracing() {
		base := time.Since(procStart).Nanoseconds()
		ws.EnableTracing()
		t.mu.Lock()
		t.keys += 1 << 32
		pt = programTrace{base: base, keyBase: t.keys}
		t.traces[ws] = pt
		t.mu.Unlock()
	}
	ring, rec := ws.SpanRing(), ws.Flight()
	ws.Trace().SetSink(func(ev obs.SpanEvent) {
		ring.Publish(ev)
		rec.ObserveSpan(ev)
		s := span{layer: programLayer(ev.Name), name: programName(ev.Name),
			start: pt.base + ev.StartNs, key: pt.keyBase + ev.ID}
		s.end = s.start + ev.DurNs
		if ev.Parent != 0 {
			s.parent = pt.keyBase + ev.Parent
		}
		l.add(s)
	})
}

// forget drops the bookkeeping for a workspace that is gone.
func (t *tracer) forget(ws *workspace.Workspace) {
	t.mu.Lock()
	delete(t.traces, ws)
	t.mu.Unlock()
}

// programLayer maps the program's span names to layers.
func programLayer(name string) string {
	switch {
	case name == "learn.generalize":
		return "structlearn"
	case name == "learn.type":
		return "modellearn"
	case name == "sourcegraph.discover":
		return "sourcegraph"
	case name == "suggest.refresh" || name == "search.queries":
		return "intlearn"
	case name == "rank.mira":
		return "mira"
	default: // execute.query, execute.candidate:*, op.*, svc.call:*
		return "engine"
	}
}

// programName drops the per-candidate suffix of a program span name.
func programName(name string) string {
	if i := strings.IndexByte(name, ':'); i > 0 {
		return name[:i]
	}
	return name
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	n          int
	total, own int64 // summed duration and self time, ns
}

// folded is the result of folding a phase's spans.
type folded struct {
	byName  map[string]*spanStats
	selfOf  map[string]int64 // layer → self time of live spans, ns
	program int              // program spans folded in
}

// fold places every span under its parent (by id for program spans with
// a parent, by time containment otherwise) and computes each span's self
// time: its duration minus the union of its children's intervals.
func (t *tracer) fold() folded {
	out := folded{byName: map[string]*spanStats{}, selfOf: map[string]int64{}}
	for _, l := range t.lanes {
		l.mu.Lock()
		spans := append([]span(nil), l.spans...)
		l.mu.Unlock()
		foldLane(spans, &out)
	}
	return out
}

func foldLane(spans []span, out *folded) {
	byKey := map[int64]int{}
	for i, s := range spans {
		if s.key != 0 {
			byKey[s.key] = i
			out.program++
		}
	}
	parent := make([]int, len(spans))
	var sweep []int
	for i, s := range spans {
		parent[i] = -1
		if p, ok := byKey[s.parent]; ok && s.parent != 0 {
			parent[i] = p
			continue
		}
		sweep = append(sweep, i)
	}
	sort.SliceStable(sweep, func(a, b int) bool {
		x, y := spans[sweep[a]], spans[sweep[b]]
		if x.start != y.start {
			return x.start < y.start
		}
		return x.end > y.end
	})
	var stack []int
	for _, i := range sweep {
		for len(stack) > 0 && spans[stack[len(stack)-1]].end < spans[i].end {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			parent[i] = stack[len(stack)-1]
		}
		stack = append(stack, i)
	}
	children := map[int][][2]int64{}
	for i, p := range parent {
		if p >= 0 {
			children[p] = append(children[p], [2]int64{spans[i].start, spans[i].end})
		}
	}
	for i, s := range spans {
		own := (s.end - s.start) - covered(children[i], s.start, s.end)
		if own < 0 {
			own = 0
		}
		st := out.byName[s.name]
		if st == nil {
			st = &spanStats{}
			out.byName[s.name] = st
		}
		st.n++
		st.total += s.end - s.start
		st.own += own
		if !s.replay {
			out.selfOf[s.layer] += own
		}
	}
}

// covered is the length of the union of intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, x := range iv {
		s, e := max(x[0], lo), min(x[1], hi)
		if e <= s {
			continue
		}
		if curE < 0 || s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// meanMs is the mean duration of the named spans in milliseconds.
func (f folded) meanMs(names ...string) float64 {
	var n int
	var total int64
	for _, name := range names {
		if st := f.byName[name]; st != nil {
			n += st.n
			total += st.total
		}
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n) / 1e6
}

// ownMs is the mean self time of the named spans in milliseconds.
func (f folded) ownMs(name string) float64 {
	st := f.byName[name]
	if st == nil || st.n == 0 {
		return 0
	}
	return float64(st.own) / float64(st.n) / 1e6
}

// writeChrome writes every recorded span as Chrome trace_event JSON
// (chrome://tracing, Perfetto): one thread per client lane, the layer as
// the category.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	}
	w.WriteString(`{"traceEvents":[`)
	first := true
	for i, l := range t.lanes {
		l.mu.Lock()
		for _, s := range l.spans {
			b, err := json.Marshal(event{Name: s.name, Cat: s.layer, Ph: "X",
				Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, Pid: 1, Tid: i + 1})
			if err != nil {
				l.mu.Unlock()
				f.Close()
				return err
			}
			if !first {
				w.WriteByte(',')
			}
			first = false
			w.Write(b)
		}
		l.mu.Unlock()
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"syscall"
	"time"
)

// client is one closed-loop user: it starts its next operation only when
// the previous one has returned. Its samples and spans are its own, so
// clients never contend on the benchmark's bookkeeping.
type client struct {
	id   int
	rng  *rand.Rand
	ops  int
	lane *lane   // spans; nil when the phase is untraced
	tr   *tracer // the phase's tracer; nil when untraced

	lat map[string][]time.Duration
	sum map[string]float64 // counters summed over operations
	cnt map[string]int     // observations behind each sum

	busy        []time.Duration // each operation's time, checks excluded
	excluded    time.Duration   // check and replay time inside the current op
	excludedCPU time.Duration   // process CPU time of the same checks and replays
}

// observe adds a latency sample.
func (c *client) observe(name string, d time.Duration) {
	c.lat[name] = append(c.lat[name], d)
}

// add adds one observation of a counter.
func (c *client) add(name string, v float64) {
	c.sum[name] += v
	c.cnt[name]++
}

// untimed runs f (a check or a layer replay) and keeps its time out of
// the operation's latency.
func (c *client) untimed(f func()) {
	t, cpu := time.Now(), processCPU()
	f()
	c.excluded += time.Since(t)
	c.excludedCPU += processCPU() - cpu
}

// traced reports whether this client records spans.
func (c *client) traced() bool { return c.lane != nil }

// begin opens a span around a call into a layer. End it with end, which
// returns the call's duration whether or not spans are recorded.
func (c *client) begin(layer, name string) open {
	return open{lane: c.lane, layer: layer, name: name, start: time.Now()}
}

// replaySpan opens a span around a replayed layer call: it counts for
// the layer's own metrics but not for the live loop's self times.
func (c *client) replaySpan(layer, name string) open {
	return open{lane: c.lane, layer: layer, name: name, replay: true, start: time.Now()}
}

// open is a started span.
type open struct {
	lane        *lane
	layer, name string
	replay      bool
	start       time.Time
}

func (o open) end() time.Duration {
	end := time.Now()
	if o.lane != nil {
		o.lane.add(span{layer: o.layer, name: o.layer + "." + o.name,
			start: o.start.Sub(procStart).Nanoseconds(), end: end.Sub(procStart).Nanoseconds(), replay: o.replay})
	}
	return end.Sub(o.start)
}

// phase is one measured stretch of a workload, merged over its clients.
type phase struct {
	tr     *tracer
	ops    int
	failed int
	errs   []string
	lat    map[string][]time.Duration
	sum    map[string]float64
	cnt    map[string]int
	rate   float64 // operations per busy second, summed over clients
	cpu    float64 // median process CPU milliseconds per operation
}

// rateBlock is the number of consecutive operations one throughput
// sample spans.
const rateBlock = 10

// blockRate is a client's throughput: the median over blocks of
// rateBlock consecutive operations of the block's operations per second
// of busy time. The median keeps a burst of outside noise from moving
// the figure; a trailing partial block is dropped.
func blockRate(busy []time.Duration) float64 {
	var rates []float64
	for i := 0; i+rateBlock <= len(busy); i += rateBlock {
		var t time.Duration
		for _, d := range busy[i : i+rateBlock] {
			t += d
		}
		rates = append(rates, rateBlock/t.Seconds())
	}
	if len(rates) == 0 {
		var t time.Duration
		for _, d := range busy {
			t += d
		}
		if t == 0 {
			return 0
		}
		return float64(len(busy)) / t.Seconds()
	}
	sort.Float64s(rates)
	return rates[len(rates)/2]
}

// cpuBlock is the number of consecutive operations, counted over all
// clients, that one CPU-time sample spans.
const cpuBlock = 10

// cpuMeter samples the process's CPU time per operation: at every
// cpuBlock-th operation to end, the process CPU time since the previous
// sample, less the CPU time spent in checks and replays, divided by
// cpuBlock. Process CPU time counts every goroutine of the program (the
// parallel candidate workers, the garbage collector) but not the time a
// core spends on other programs or, on a virtual machine, taken by the
// host (steal), so it moves far less with the load of a shared machine
// than wall-clock time does. With two clients, a check of one overlaps
// the other's operation, whose CPU time during the check is left out
// too; the checks of the multi-client workload are key comparisons of
// microseconds, so this is small against an operation.
type cpuMeter struct {
	mu       sync.Mutex
	ops      int
	excluded time.Duration // CPU time of checks and replays so far
	last     time.Duration // CPU time, less excluded, at the last sample
	perOp    []float64     // milliseconds per operation, one per block
}

func newCPUMeter() *cpuMeter { return &cpuMeter{last: processCPU()} }

// done records the end of one operation whose checks and replays took
// excluded CPU time.
func (m *cpuMeter) done(excluded time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.excluded += excluded
	m.ops++
	if m.ops%cpuBlock == 0 {
		now := processCPU() - m.excluded
		m.perOp = append(m.perOp, ms(now-m.last)/cpuBlock)
		m.last = now
	}
}

// median is the median block's CPU milliseconds per operation.
func (m *cpuMeter) median() float64 {
	if len(m.perOp) == 0 {
		return 0
	}
	s := append([]float64(nil), m.perOp...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// processCPU is the user and system CPU time of the whole process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxErrs bounds the failed-operation messages kept for the report.
const maxErrs = 20

// measure runs the workload's clients for d. tr is nil for an untraced
// phase.
func measure(w workload, seed int64, d time.Duration, tr *tracer) *phase {
	cs := make([]*client, w.clients())
	p := &phase{tr: tr, lat: map[string][]time.Duration{}, sum: map[string]float64{}, cnt: map[string]int{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	meter := newCPUMeter()
	start := time.Now()
	for i := range cs {
		c := &client{id: i, rng: rand.New(rand.NewSource(seed*7919 + int64(i))),
			lat: map[string][]time.Duration{}, sum: map[string]float64{}, cnt: map[string]int{}}
		if tr != nil {
			c.lane, c.tr = tr.newLane(), tr
		}
		cs[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			if tr != nil {
				tr.bind(c.lane)
			}
			failed := 0
			var errs []string
			for time.Since(start) < d {
				c.excluded, c.excludedCPU = 0, 0
				t := time.Now()
				err := w.op(c)
				dur := time.Since(t) - c.excluded
				meter.done(c.excludedCPU)
				c.ops++
				c.busy = append(c.busy, dur)
				if err != nil {
					failed++
					if len(errs) < maxErrs {
						errs = append(errs, fmt.Sprintf("client %d op %d: %v", c.id, c.ops, err))
					}
					continue
				}
				c.observe("op", dur)
			}
			mu.Lock()
			p.failed += failed
			p.errs = append(p.errs, errs...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	p.cpu = meter.median()
	for _, c := range cs {
		p.ops += c.ops
		p.rate += blockRate(c.busy)
		for k, v := range c.lat {
			p.lat[k] = append(p.lat[k], v...)
		}
		for k, v := range c.sum {
			p.sum[k] += v
			p.cnt[k] += c.cnt[k]
		}
	}
	return p
}

// pct is the q-quantile of a latency in milliseconds.
func (p *phase) pct(name string, q float64) float64 { return percentile(p.lat[name], q) }

// tailPct is like pct but reports 0 unless at least ten samples lie
// beyond the quantile, so a tail is never read off a handful of samples.
func (p *phase) tailPct(name string, q float64) float64 {
	if float64(len(p.lat[name]))*(1-q) < 10 {
		return 0
	}
	return p.pct(name, q)
}

// perOp is a counter's total divided by the operations of the phase.
func (p *phase) perOp(name string) float64 {
	if p.ops == 0 {
		return 0
	}
	return p.sum[name] / float64(p.ops)
}

// avg is a counter's mean over its observations.
func (p *phase) avg(name string) float64 {
	if p.cnt[name] == 0 {
		return 0
	}
	return p.sum[name] / float64(p.cnt[name])
}

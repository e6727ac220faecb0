package obs

import (
	"sync"
	"time"
)

// SpanEvent is one finished span as published to a live exporter, in
// end order with the trace's internal ids. Live streaming cannot use
// the deterministic export reordering (that requires the whole span
// set); consumers that need diffable output still use WriteJSONL /
// WriteChrome on the completed trace.
type SpanEvent struct {
	Seq     int64  `json:"seq,omitempty"` // ring sequence number from 1; 0 outside a ring
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	Cat     string `json:"cat"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// Ring is the one bounded event store of the observability substrate:
// the span stream, the decision log, a trace's spans and the flight
// recorder's events are all Rings. It keeps the newest max values,
// growing by doubling up to that bound and then overwriting the oldest
// in place. Every value gets a sequence number (the first is 1) and an
// arrival time. Followers read forward from a cursor and wait on a
// channel that closes on the next Publish. Safe for concurrent use; a
// nil *Ring is inert.
type Ring[T any] struct {
	mu          sync.Mutex
	max         int
	now         func() time.Time             // arrival clock; nil stamps no time
	stamp       func(v T, seq, atNs int64) T // writes both into v; runs under mu
	buf         []Entry[T]
	head        int   // index of the oldest entry once buf is full
	last        int64 // sequence number of the newest entry
	overwritten int64
	missed      int64 // values followers skipped by falling behind
	wake        chan struct{}
}

// Entry is one retained value with its arrival time (UnixNano).
type Entry[T any] struct {
	AtNs int64
	V    T
}

// NewRing creates a ring holding the newest size values (at least one),
// stamped on the now clock; stamp, when non-nil, returns each value
// with its sequence number and arrival time written in, to be stored.
func NewRing[T any](size int, now func() time.Time, stamp func(v T, seq, atNs int64) T) *Ring[T] {
	return &Ring[T]{max: max(size, 1), now: now, stamp: stamp}
}

// Publish appends v, overwriting the oldest value when the ring is
// full, and wakes every waiting follower.
func (r *Ring[T]) Publish(v T) { r.publish(v) }

// publish is Publish returning v as stamped.
func (r *Ring[T]) publish(v T) T {
	if r == nil {
		return v
	}
	var at int64
	if r.now != nil {
		at = r.now().UnixNano()
	}
	r.mu.Lock()
	r.last++
	if r.stamp != nil {
		v = r.stamp(v, r.last, at)
	}
	e := Entry[T]{AtNs: at, V: v}
	if len(r.buf) < r.max {
		if len(r.buf) == cap(r.buf) {
			grown := make([]Entry[T], len(r.buf), min(max(2*cap(r.buf), 8), r.max))
			copy(grown, r.buf)
			r.buf = grown
		}
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.head] = e
		if r.head++; r.head == r.max {
			r.head = 0
		}
		r.overwritten++
	}
	if r.wake != nil {
		close(r.wake)
		r.wake = nil
	}
	r.mu.Unlock()
	return v
}

// at returns the i-th retained entry, oldest first (under r.mu).
func (r *Ring[T]) at(i int) *Entry[T] {
	if i += r.head; i >= len(r.buf) {
		i -= len(r.buf)
	}
	return &r.buf[i]
}

// Since returns a copy of the retained values with sequence number >=
// cursor, the cursor to resume from, and a channel that closes on the
// next Publish. Cursor 0 reads from the oldest value; a follower whose
// cursor fell behind resumes there, and what it missed counts in
// Dropped.
func (r *Ring[T]) Since(cursor int64) (vs []T, next int64, wait <-chan struct{}) {
	if r == nil {
		closed := make(chan struct{})
		close(closed)
		return nil, 0, closed
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	first := r.last - int64(len(r.buf)) + 1
	if cursor < first {
		if cursor > 0 {
			r.missed += first - cursor
		}
		cursor = first
	}
	vs = make([]T, 0, max(r.last-cursor+1, 0))
	for i := int(cursor - first); i < len(r.buf); i++ {
		vs = append(vs, r.at(i).V)
	}
	if r.wake == nil {
		r.wake = make(chan struct{})
	}
	return vs, r.last + 1, r.wake
}

// Values copies the retained values, oldest first.
func (r *Ring[T]) Values() []T {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, len(r.buf))
	for i := range out {
		out[i] = r.at(i).V
	}
	return out
}

// Window copies the newest entries that arrived at or after cutoffNs,
// at most limit of them, oldest first (the flight recorder's capture).
func (r *Ring[T]) Window(cutoffNs int64, limit int) []Entry[T] {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	from := len(r.buf)
	for from > 0 && len(r.buf)-from < limit && r.at(from-1).AtNs >= cutoffNs {
		from--
	}
	out := make([]Entry[T], 0, len(r.buf)-from)
	for i := from; i < len(r.buf); i++ {
		out = append(out, *r.at(i))
	}
	return out
}

// Len reports how many values the ring retains.
func (r *Ring[T]) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Cap reports the ring's bound.
func (r *Ring[T]) Cap() int {
	if r == nil {
		return 0
	}
	return r.max
}

// Dropped reports how many values followers missed by falling behind.
func (r *Ring[T]) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.missed
}

// Overwritten reports how many values newer ones have overwritten.
func (r *Ring[T]) Overwritten() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.overwritten
}

// Reset drops every value; sequence numbers keep increasing.
func (r *Ring[T]) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf, r.head = nil, 0
	r.mu.Unlock()
}

// SpanRing is the ring of ended spans behind /trace/stream and the
// flight recorder's span capture.
type SpanRing = Ring[SpanEvent]

// DefaultSpanRingSize bounds a span ring and a trace's retained spans:
// several suggestion refreshes' worth.
const DefaultSpanRingSize = 4096

// NewSpanRing creates a ring holding the most recent `capacity` spans
// (DefaultSpanRingSize when capacity < 1), stamped on the now clock.
func NewSpanRing(capacity int, now func() time.Time) *SpanRing {
	if capacity < 1 {
		capacity = DefaultSpanRingSize
	}
	return NewRing(capacity, now, func(ev SpanEvent, seq, _ int64) SpanEvent {
		ev.Seq = seq
		return ev
	})
}

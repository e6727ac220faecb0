package obs

import (
	"sync"
	"testing"
	"time"

	"copycat/internal/resilience"
)

func TestSpanRingPublishSince(t *testing.T) {
	r := NewSpanRing(4, nil)
	for i := 0; i < 3; i++ {
		r.Publish(SpanEvent{Name: "s", DurNs: int64(i)})
	}
	events, next, _ := r.Since(0)
	if len(events) != 3 || next != 4 {
		t.Fatalf("Since(0) = %d events, next %d", len(events), next)
	}
	for i, ev := range events {
		if ev.Seq != int64(i+1) || ev.DurNs != int64(i) {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
	// Resuming from the cursor returns nothing new.
	if events, _, _ := r.Since(next); len(events) != 0 {
		t.Fatalf("Since(cursor) should be empty, got %d", len(events))
	}
}

func TestSpanRingEviction(t *testing.T) {
	r := NewSpanRing(4, nil)
	for i := 0; i < 10; i++ {
		r.Publish(SpanEvent{DurNs: int64(i)})
	}
	if r.Len() != 4 || r.Cap() != 4 {
		t.Fatalf("len/cap = %d/%d", r.Len(), r.Cap())
	}
	// A cursor older than the retained window resumes at the oldest span.
	events, next, _ := r.Since(0)
	if len(events) != 4 || events[0].Seq != 7 || next != 11 {
		t.Fatalf("Since(0) after eviction = %d events, first seq %d, next %d",
			len(events), events[0].Seq, next)
	}
}

func TestSpanRingWaitWakesOnPublish(t *testing.T) {
	r := NewSpanRing(8, nil)
	_, cursor, wait := r.Since(0)
	done := make(chan SpanEvent, 1)
	go func() {
		<-wait
		events, _, _ := r.Since(cursor)
		done <- events[0]
	}()
	r.Publish(SpanEvent{Name: "wake"})
	select {
	case ev := <-done:
		if ev.Name != "wake" {
			t.Fatalf("got %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("subscriber never woke")
	}
}

func TestSpanRingNil(t *testing.T) {
	var r *SpanRing
	r.Publish(SpanEvent{}) // must not panic
	events, next, wait := r.Since(0)
	if len(events) != 0 || next != 0 || r.Len() != 0 || r.Cap() != 0 {
		t.Fatal("nil ring should read as empty")
	}
	select {
	case <-wait: // nil ring's wait channel is pre-closed: no hang
	default:
		t.Fatal("nil ring wait channel should be closed")
	}
}

func TestTraceSinkPublishesEndedSpans(t *testing.T) {
	clock := resilience.NewVirtualClock()
	tr := NewTrace(clock)
	ring := NewSpanRing(16, nil)
	tr.SetSink(ring.Publish)

	root := tr.Start("refresh", "stage")
	clock.Advance(time.Millisecond)
	child := root.Child("execute", "engine")
	child.SetAttr("candidate", "zip")
	clock.Advance(2 * time.Millisecond)
	child.End()
	root.End()

	events, _, _ := ring.Since(0)
	if len(events) != 2 {
		t.Fatalf("ring has %d events, want 2 (end order)", len(events))
	}
	if events[0].Name != "execute" || events[1].Name != "refresh" {
		t.Fatalf("end order wrong: %q, %q", events[0].Name, events[1].Name)
	}
	if events[0].Parent != events[1].ID {
		t.Fatal("child should reference root's id")
	}
	if events[0].DurNs != (2 * time.Millisecond).Nanoseconds() {
		t.Fatalf("child dur = %d", events[0].DurNs)
	}
	if len(events[0].Attrs) != 1 || events[0].Attrs[0].Key != "candidate" {
		t.Fatalf("attrs = %+v", events[0].Attrs)
	}

	// Removing the sink stops publication; the trace itself still records.
	tr.SetSink(nil)
	tr.Start("quiet", "stage").End()
	if ring.Len() != 2 {
		t.Fatal("sink removal should stop publication")
	}
	if tr.Len() != 3 {
		t.Fatalf("trace len = %d, want 3", tr.Len())
	}

	// Concurrent spans publishing into one ring race-cleanly.
	var wg sync.WaitGroup
	tr.SetSink(ring.Publish)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tr.Start("par", "stage").End()
			}
		}()
	}
	wg.Wait()
	if ring.Len() != 16 {
		t.Fatalf("ring should sit at capacity, len=%d", ring.Len())
	}
}

// TestSpanRingDroppedCountsSlowSubscribers is the spans.dropped
// contract: a subscriber whose cursor fell off the ring resumes at the
// oldest retained span and the miss is counted, while fresh subscribers
// (cursor 0 on an already-wrapped ring) are not counted as losses.
func TestSpanRingDroppedCountsSlowSubscribers(t *testing.T) {
	ring := NewSpanRing(4, nil)
	for i := 0; i < 2; i++ {
		ring.Publish(SpanEvent{Name: "early"})
	}
	_, cursor, _ := ring.Since(0) // subscriber caught up: next wanted is seq 3
	if cursor != 3 {
		t.Fatalf("cursor = %d, want 3", cursor)
	}

	// The ring wraps while the subscriber sleeps: seqs 3..10 are
	// published and only the last 4 (7..10) retained.
	for i := 0; i < 8; i++ {
		ring.Publish(SpanEvent{Name: "burst"})
	}

	// A fresh subscriber starting at 0 is not a loss.
	if events, _, _ := ring.Since(0); len(events) != 4 {
		t.Fatalf("fresh subscriber got %d events, want 4", len(events))
	}
	if got := ring.Dropped(); got != 0 {
		t.Fatalf("fresh subscriber counted as dropped: %d", got)
	}

	// The lagging subscriber resumes at the oldest retained span and its
	// 4 missed spans (seqs 3..6) are counted.
	events, next, _ := ring.Since(cursor)
	if len(events) != 4 || next != 11 {
		t.Fatalf("lagging subscriber got %d events next=%d, want 4 events next=11", len(events), next)
	}
	if events[0].Seq != 7 {
		t.Fatalf("resumed at seq %d, want 7 (oldest retained)", events[0].Seq)
	}
	if got := ring.Dropped(); got != 4 {
		t.Fatalf("Dropped = %d, want 4", got)
	}

	// Losses accumulate across subscribers.
	for i := 0; i < 6; i++ {
		ring.Publish(SpanEvent{Name: "more"})
	}
	ring.Since(next) // next=11, first=13 → 2 more dropped
	if got := ring.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}

	// Nil ring stays inert.
	var nilRing *SpanRing
	if got := nilRing.Dropped(); got != 0 {
		t.Fatalf("nil ring Dropped = %d", got)
	}
}

// TestSpanRingFollowerFromEmptyCountsDrops: a follower that joined an
// empty ring holds cursor 1 (the first sequence number), so when more
// than the ring's capacity is published before its next read, the
// spans it missed are counted rather than mistaken for a fresh start.
func TestSpanRingFollowerFromEmptyCountsDrops(t *testing.T) {
	ring := NewSpanRing(8, nil)
	_, next, _ := ring.Since(0)
	for i := 0; i < ring.Cap()+10; i++ {
		ring.Publish(SpanEvent{Name: "burst"})
	}
	events, _, _ := ring.Since(next)
	if len(events) != ring.Cap() || events[0].Seq != 11 {
		t.Fatalf("follower got %d events from seq %d, want %d from 11", len(events), events[0].Seq, ring.Cap())
	}
	if got := ring.Dropped(); got != 10 {
		t.Fatalf("Dropped = %d, want 10", got)
	}
}

// TestRingOverwritesOldestInPlace checks the one ring's bound and
// counters: it grows by doubling up to its bound, never past it, keeps
// exactly the newest values in order, and counts every overwrite.
func TestRingOverwritesOldestInPlace(t *testing.T) {
	r := NewRing[int](100, nil, nil)
	for i := 1; i <= 250; i++ {
		r.Publish(i)
		if c := cap(r.buf); c > 100 {
			t.Fatalf("after %d publishes the backing array holds %d > bound 100", i, c)
		}
	}
	got := r.Values()
	if len(got) != 100 || got[0] != 151 || got[99] != 250 {
		t.Fatalf("retained %d values %v..%v, want 151..250", len(got), got[0], got[len(got)-1])
	}
	for i := 1; i < len(got); i++ {
		if got[i] != got[i-1]+1 {
			t.Fatalf("values out of order at %d: %v", i, got[i-1:i+1])
		}
	}
	if o := r.Overwritten(); o != 150 {
		t.Fatalf("Overwritten = %d, want 150", o)
	}
	r.Reset()
	if r.Len() != 0 {
		t.Fatal("Reset should drop every value")
	}
	if _, next, _ := r.Since(0); next != 251 {
		t.Fatalf("sequence numbers should survive Reset, next = %d", next)
	}
}

// TestRingWindowNewestWithinCutoff checks the flight recorder's capture
// read: entries at or after the cutoff, at most limit, newest kept.
func TestRingWindowNewestWithinCutoff(t *testing.T) {
	clock := resilience.NewVirtualClock()
	r := NewRing[int](16, clock.Now, nil)
	for i := 0; i < 10; i++ {
		r.Publish(i)
		clock.Advance(time.Second)
	}
	cutoff := clock.Now().Add(-5 * time.Second).UnixNano() // values 5..9
	if w := r.Window(cutoff, 100); len(w) != 5 || w[0].V != 5 || w[0].AtNs < cutoff {
		t.Fatalf("Window(cutoff) = %+v, want values 5..9", w)
	}
	if w := r.Window(0, 3); len(w) != 3 || w[0].V != 7 || w[2].V != 9 {
		t.Fatalf("Window(limit 3) = %+v, want values 7..9", w)
	}
}

// TestRingSteadyStateAllocatesNothing: once a ring is full, publishing
// overwrites in place — a span, a decision or a trace span allocates
// nothing on the way into its ring.
func TestRingSteadyStateAllocatesNothing(t *testing.T) {
	spans := NewSpanRing(64, time.Now)
	log := NewDecisionLog(0, time.Now)
	for i := 0; i < maxDecisions; i++ {
		spans.Publish(SpanEvent{})
		log.Record(Decision{})
	}
	if n := testing.AllocsPerRun(100, func() { spans.Publish(SpanEvent{Name: "x"}) }); n != 0 {
		t.Errorf("SpanRing.Publish allocates %.1f times per span", n)
	}
	if n := testing.AllocsPerRun(100, func() { log.Record(Decision{Candidate: "c"}) }); n != 0 {
		t.Errorf("DecisionLog.Record allocates %.1f times per decision", n)
	}
}

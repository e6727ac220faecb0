package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Action classifies what happened to a candidate at some pipeline stage.
type Action string

// The decision vocabulary. "pruned" candidates never executed (cost
// above the suggestion threshold, compile failure); "dropped" ones
// executed and failed; "empty" ones executed and produced no rows;
// "degraded" ones survived with partial results; "suggested" ones made
// the list at some rank; "outranked" ones lost to an accepted
// alternative; "accepted"/"rejected" record explicit user feedback.
const (
	ActionPruned    Action = "pruned"
	ActionDropped   Action = "dropped"
	ActionEmpty     Action = "empty"
	ActionDegraded  Action = "degraded"
	ActionSuggested Action = "suggested"
	ActionOutranked Action = "outranked"
	ActionAccepted  Action = "accepted"
	ActionRejected  Action = "rejected"
)

// Decision is one entry of the decision log: why a candidate query was
// pruned, degraded, outranked, or kept, at which stage, with the cost
// and rank that drove the call.
type Decision struct {
	Seq       int     `json:"seq"`
	Session   string  `json:"session,omitempty"` // owning session handle ("" single-workspace)
	Stage     string  `json:"stage"`             // e.g. "suggest.columns", "search.steiner"
	Candidate string  `json:"candidate"`         // edge label / target node
	Action    Action  `json:"action"`
	Reason    string  `json:"reason,omitempty"`
	Cost      float64 `json:"cost,omitempty"`
	Rank      int     `json:"rank"` // position in the ranked list; -1 if not ranked
}

// String renders the decision as a single explanation line.
func (d Decision) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] %s: %s", d.Stage, d.Candidate, d.Action)
	if d.Rank >= 0 {
		fmt.Fprintf(&b, " (rank %d)", d.Rank)
	}
	if d.Cost != 0 {
		fmt.Fprintf(&b, " (cost %.2f)", d.Cost)
	}
	if d.Reason != "" {
		fmt.Fprintf(&b, " — %s", d.Reason)
	}
	return b.String()
}

// maxDecisions is a log's default bound: the oldest decision is
// overwritten once it is full, so a long session keeps recent
// explanations.
const maxDecisions = 4096

// DecisionLog records candidate decisions across the session in a
// bounded Ring. Safe for concurrent use (the parallel candidate
// executor records into one shared log). A nil *DecisionLog is inert.
type DecisionLog struct {
	ring    *Ring[Decision]
	mu      sync.Mutex // guards session and sink
	session string
	sink    func(Decision)
}

// NewDecisionLog creates an empty log of the newest `size` decisions
// (4096 when size < 1), stamping arrivals on the now clock (the flight
// recorder's retention window reads them).
func NewDecisionLog(size int, now func() time.Time) *DecisionLog {
	if size < 1 {
		size = maxDecisions
	}
	return &DecisionLog{ring: NewRing(size, now, func(d Decision, seq, _ int64) Decision {
		d.Seq = int(seq)
		return d
	})}
}

// SetSession stamps every subsequently recorded decision with the
// owning session's ID, attributing multi-tenant decision streams. The
// single-workspace facade leaves it empty.
func (l *DecisionLog) SetSession(id string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.session = id
	l.mu.Unlock()
}

// SetSink installs a live observer called with every recorded decision
// after it is stamped (a recorder's pacing, or a host's decision log).
// The sink runs outside the log's locks; nil removes it.
func (l *DecisionLog) SetSink(fn func(Decision)) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.sink = fn
	l.mu.Unlock()
}

// Record appends a decision, stamping its sequence number and the log's
// session ID (unless the decision already carries one).
func (l *DecisionLog) Record(d Decision) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if d.Session == "" {
		d.Session = l.session
	}
	sink := l.sink
	l.mu.Unlock()
	d = l.ring.publish(d)
	if sink != nil {
		sink(d)
	}
}

// Decisions returns a copy of the log, oldest first.
func (l *DecisionLog) Decisions() []Decision {
	if l == nil {
		return nil
	}
	return l.ring.Values()
}

// For returns the decisions whose candidate contains the given
// substring (case-insensitive), oldest first — the ":why <candidate>"
// lookup.
func (l *DecisionLog) For(candidate string) []Decision {
	if l == nil {
		return nil
	}
	needle := strings.ToLower(candidate)
	var out []Decision
	for _, d := range l.ring.Values() {
		if strings.Contains(strings.ToLower(d.Candidate), needle) {
			out = append(out, d)
		}
	}
	return out
}

// Ring exposes the log's storage (flight captures read its window).
func (l *DecisionLog) Ring() *Ring[Decision] {
	if l == nil {
		return nil
	}
	return l.ring
}

// Len reports the number of retained decisions.
func (l *DecisionLog) Len() int {
	if l == nil {
		return 0
	}
	return l.ring.Len()
}

// Reset clears the log; sequence numbers keep increasing.
func (l *DecisionLog) Reset() {
	if l != nil {
		l.ring.Reset()
	}
}

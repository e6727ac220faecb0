// Package mira implements the MIRA online learning algorithm ([7], §4.2)
// as CopyCat uses it: query costs are sums of independent feature weights
// (one feature per source-graph edge), user feedback induces ranking
// constraints between queries, and each update changes weights only on
// the features where the two queries differ — by the minimal amount that
// satisfies the constraint (passive-aggressive).
package mira

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Constraint demands cost(Preferred) + Margin ≤ cost(Other): the user
// accepted Preferred's results (or rejected Other's).
type Constraint struct {
	Preferred []string // feature (edge) IDs of the preferred query
	Other     []string // feature IDs of the dispreferred query
	Margin    float64  // required cost separation (default DefaultMargin)
}

// DefaultMargin separates re-ranked queries enough that small later
// updates don't immediately flip them back.
const DefaultMargin = 0.5

// Learner holds the feature weights. A zero-valued default (see New) is
// the source graph's DefaultCost for unseen features.
type Learner struct {
	mu       sync.RWMutex
	weights  map[string]float64
	def      float64 // weight of a feature never updated
	C        float64 // aggressiveness cap (0 = uncapped)
	MinFloor float64 // weights never drop below this (keeps Steiner costs ≥ 0)
}

// New creates a learner whose unseen features default to def.
func New(def float64) *Learner {
	return &Learner{weights: map[string]float64{}, def: def, MinFloor: 0.01}
}

// SetWeight seeds or overrides a feature's weight directly — used to
// initialize the learner from externally assigned edge costs (e.g. a
// schema matcher's confidence scores, §4.1).
func (l *Learner) SetWeight(f string, w float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.weights[f] = w
}

// Weight returns a feature's current weight.
func (l *Learner) Weight(f string) float64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if w, ok := l.weights[f]; ok {
		return w
	}
	return l.def
}

// Cost sums the weights of a query's features — the additive cost model
// shared with the Steiner machinery.
func (l *Learner) Cost(features []string) float64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	c := 0.0
	for _, f := range features {
		if w, ok := l.weights[f]; ok {
			c += w
		} else {
			c += l.def
		}
	}
	return c
}

// Violated reports whether a constraint is currently violated.
func (l *Learner) Violated(c Constraint) bool {
	margin := c.Margin
	if margin == 0 {
		margin = DefaultMargin
	}
	// Small tolerance: a passive-aggressive update lands exactly on the
	// margin, which must count as satisfied.
	return l.Cost(c.Other)-l.Cost(c.Preferred) < margin-1e-9
}

// term is one nonzero component of a constraint's difference vector φ.
type term struct {
	f string
	v float64
}

// Update applies one passive-aggressive step for the constraint. Only
// features appearing a different number of times in the two queries move
// (§4.2: "It adjusts weights only on edges that differ between the
// graphs"). It appends every feature whose weight it wrote to wrote and
// returns the extended slice, so callers can propagate exactly those
// weights. The bool reports whether the constraint's margin moved; it
// is false for identical queries, for an already-satisfied (passive)
// constraint, and when the MinFloor clamp absorbed the whole step —
// a clamped step still writes weights, so wrote is what to propagate.
func (l *Learner) Update(c Constraint, wrote []string) (bool, []string) {
	margin := c.Margin
	if margin == 0 {
		margin = DefaultMargin
	}
	// φ = count(Other) − count(Preferred) per feature; want w·φ ≥ margin.
	// φ lives in a small stack slice in first-occurrence order (Other's
	// features, then Preferred's), so dot, norm and the write order are
	// the same on every run.
	var buf [16]term
	phi := buf[:0]
	for _, f := range c.Other {
		phi = addTerm(phi, f, 1)
	}
	for _, f := range c.Preferred {
		phi = addTerm(phi, f, -1)
	}
	n := 0
	for _, t := range phi {
		if t.v != 0 {
			phi[n] = t
			n++
		}
	}
	phi = phi[:n]
	if len(phi) == 0 {
		return false, wrote // identical queries cannot be separated
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	dot, norm := 0.0, 0.0
	for _, t := range phi {
		w, ok := l.weights[t.f]
		if !ok {
			w = l.def
		}
		dot += w * t.v
		norm += t.v * t.v
	}
	loss := margin - dot
	if loss <= 0 {
		return false, wrote // already satisfied (passive)
	}
	tau := loss / norm
	if l.C > 0 && tau > l.C {
		tau = l.C
	}
	clamped := false
	newDot := 0.0
	for _, t := range phi {
		w, ok := l.weights[t.f]
		if !ok {
			w = l.def
		}
		w += tau * t.v
		if w < l.MinFloor {
			w = l.MinFloor
			clamped = true
		}
		l.weights[t.f] = w
		wrote = append(wrote, t.f)
		newDot += w * t.v
	}
	// The MinFloor clamp can absorb the whole step, leaving the
	// constraint as violated as before. Reporting true then would be
	// phantom progress: UpdateBatch would spin through its entire epoch
	// budget re-applying a no-op. Only claim a change when the margin
	// actually moved.
	if clamped && newDot <= dot+1e-12 {
		return false, wrote
	}
	return true, wrote
}

// addTerm adds d to f's component of φ, appending f on first occurrence.
func addTerm(phi []term, f string, d float64) []term {
	for i := range phi {
		if phi[i].f == f {
			phi[i].v += d
			return phi
		}
	}
	return append(phi, term{f, d})
}

// UpdateBatch cycles through constraints until none is violated or the
// epoch budget runs out; it returns the number of updates applied.
func (l *Learner) UpdateBatch(cs []Constraint, epochs int) int {
	updates := 0
	for e := 0; e < epochs; e++ {
		changed := false
		for _, c := range cs {
			if moved, _ := l.Update(c, nil); moved {
				updates++
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return updates
}

// Snapshot returns a copy of all explicitly learned weights.
func (l *Learner) Snapshot() map[string]float64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make(map[string]float64, len(l.weights))
	for f, w := range l.weights {
		out[f] = w
	}
	return out
}

// String lists learned weights deterministically (for logs and tests).
func (l *Learner) String() string {
	snap := l.Snapshot()
	keys := make([]string, 0, len(snap))
	for f := range snap {
		keys = append(keys, f)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("mira{")
	for i, f := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%.3f", f, snap[f])
	}
	b.WriteString("}")
	return b.String()
}

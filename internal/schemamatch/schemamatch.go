// Package schemamatch implements the approximate attribute matcher the
// paper names as the next step for association discovery (§4.1: "we
// would like to incorporate approximate attribute matchings, such as
// those from a schema matching tool [29]. Such associations are
// uncertain, and hence would be initialized with an edge weight that is
// derived from the schema matcher's confidence score").
//
// The matcher combines three classic signals (à la Rahm & Bernstein's
// survey): column-name similarity, value-overlap between column
// instances, and value-shape similarity — producing a confidence in
// [0,1] per attribute pair, which the source graph converts into an
// initial edge cost.
package schemamatch

import (
	"math"
	"sort"
	"strings"

	"copycat/internal/linkage"
	"copycat/internal/table"
	"copycat/internal/tokenizer"
)

// Match is one proposed attribute correspondence.
type Match struct {
	LeftCol, RightCol string
	Confidence        float64
	// Why breaks the confidence into its signals, for explanations.
	Why Signals
}

// Signals are the component scores of a match.
type Signals struct {
	Name    float64 // column-name similarity
	Overlap float64 // instance value overlap (Jaccard)
	Shape   float64 // value-shape distribution similarity
}

// Weights for combining signals; name matching dominates only when
// instances are unavailable.
const (
	wName    = 0.3
	wOverlap = 0.4
	wShape   = 0.3
)

// MinConfidence is the default threshold below which matches are not
// reported.
const MinConfidence = 0.45

// MatchRelations proposes attribute correspondences between two
// relations, best-first, keeping only matches at or above minConf
// (pass MinConfidence for the default behaviour).
func MatchRelations(a, b *table.Relation, minConf float64) []Match {
	var out []Match
	colsA := columnSummaries(a)
	colsB := columnSummaries(b)
	for i, ca := range colsA {
		for j, cb := range colsB {
			sig := Signals{
				Name:    nameSim(a.Schema[i].Name, b.Schema[j].Name),
				Overlap: valueOverlap(ca.values, cb.values),
				Shape:   shapeSim(ca.shapes, cb.shapes),
			}
			conf := wName*sig.Name + wOverlap*sig.Overlap + wShape*sig.Shape
			// Same declared kind is a prerequisite; a mismatch halves
			// the confidence rather than running on raw luck.
			if a.Schema[i].Kind != b.Schema[j].Kind {
				conf /= 2
			}
			if conf >= minConf {
				out = append(out, Match{
					LeftCol: a.Schema[i].Name, RightCol: b.Schema[j].Name,
					Confidence: conf, Why: sig,
				})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		if out[i].LeftCol != out[j].LeftCol {
			return out[i].LeftCol < out[j].LeftCol
		}
		return out[i].RightCol < out[j].RightCol
	})
	return out
}

// columnSummary caches per-column instance data.
type columnSummary struct {
	values map[string]bool
	shapes map[string]float64 // shape key → fraction of values
}

func columnSummaries(r *table.Relation) []columnSummary {
	out := make([]columnSummary, len(r.Schema))
	for i := range r.Schema {
		out[i].values = map[string]bool{}
		out[i].shapes = map[string]float64{}
	}
	if len(r.Rows) == 0 {
		return out
	}
	for _, row := range r.Rows {
		for i := range r.Schema {
			if i >= len(row) || row[i].IsNull() {
				continue
			}
			t := norm(row[i].Text())
			out[i].values[t] = true
			out[i].shapes[tokenizer.ShapeOf(t).Key()]++
		}
	}
	for i := range out {
		total := 0.0
		for _, n := range out[i].shapes {
			total += n
		}
		if total > 0 {
			for k := range out[i].shapes {
				out[i].shapes[k] /= total
			}
		}
	}
	return out
}

func norm(s string) string { return strings.Join(strings.Fields(strings.ToLower(s)), " ") }

// nameSim compares column names: exact (case/sep-insensitive) is 1;
// otherwise a blend of token Jaccard and Jaro-Winkler.
func nameSim(a, b string) float64 {
	na, nb := splitIdent(a), splitIdent(b)
	if na == nb && na != "" {
		return 1
	}
	j := linkage.JaccardTokens(na, nb)
	jw := linkage.JaroWinkler(na, nb)
	if jw > j {
		return jw
	}
	return j
}

// splitIdent lowercases and splits identifier styles: "ZipCode",
// "zip_code", "zip-code" all become "zip code".
func splitIdent(s string) string {
	var b strings.Builder
	prevLower := false
	for _, r := range s {
		switch {
		case r == '_' || r == '-' || r == ' ':
			b.WriteByte(' ')
			prevLower = false
			continue
		case r >= 'A' && r <= 'Z':
			if prevLower {
				b.WriteByte(' ')
			}
			b.WriteRune(r - 'A' + 'a')
			prevLower = false
		default:
			b.WriteRune(r)
			prevLower = r >= 'a' && r <= 'z'
		}
	}
	return strings.Join(strings.Fields(b.String()), " ")
}

// valueOverlap is Jaccard overlap of the distinct value sets.
func valueOverlap(a, b map[string]bool) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter := 0
	for v := range a {
		if b[v] {
			inter++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// shapeSim is 1 − total-variation distance between shape distributions.
// The distance is summed in sorted key order, so the result does not
// depend on map iteration order, and the result is clamped at 0 against
// rounding (disjoint distributions can sum to just over 2).
func shapeSim(a, b map[string]float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	keys := make([]string, 0, len(a)+len(b))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	dist := 0.0
	for _, k := range keys {
		dist += math.Abs(a[k] - b[k])
	}
	return max(1-dist/2, 0)
}

// CostFor converts a matcher confidence into a source-graph edge cost:
// full confidence maps to cost 0.5 (better than the default 1.0), the
// threshold maps to just under the suggestion cutoff — so uncertain
// matches are proposed last and vanish with a single rejection.
func CostFor(confidence float64) float64 {
	// Linear map: conf 1.0 → 0.5, conf MinConfidence → 1.9.
	span := (1.9 - 0.5) / (1 - MinConfidence)
	c := 1.9 - (confidence-MinConfidence)*span
	if c < 0.5 {
		c = 0.5
	}
	return c
}

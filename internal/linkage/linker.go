package linkage

import (
	"fmt"

	"copycat/internal/engine"
	"copycat/internal/table"
)

// Feature is one similarity heuristic usable by a learned linker.
type Feature struct {
	Name string
	Fn   func(a, b string) float64
}

// DefaultFeatures is the predefined heuristic library the linker learns
// to combine.
func DefaultFeatures() []Feature {
	return []Feature{
		{Name: "levenshtein", Fn: LevenshteinSim},
		{Name: "jarowinkler", Fn: JaroWinkler},
		{Name: "jaccard", Fn: JaccardTokens},
		{Name: "abbrev", Fn: AbbrevSim},
		{Name: "name", Fn: NameSim},
	}
}

// LabeledPair is one training example for the linker.
type LabeledPair struct {
	A, B  string
	Match bool
}

// Linker scores string pairs with a learned convex combination of
// features ("CopyCat learns the best combination of heuristics for this
// case of record linking", Example 1).
type Linker struct {
	Features  []Feature
	Weights   []float64
	Bias      float64
	Threshold float64
}

// NewLinker creates a linker with uniform weights over the features.
func NewLinker(features ...Feature) *Linker {
	if len(features) == 0 {
		features = DefaultFeatures()
	}
	w := make([]float64, len(features))
	for i := range w {
		w[i] = 1 / float64(len(features))
	}
	return &Linker{Features: features, Weights: w, Threshold: 0.5}
}

// vector computes the feature values for a pair.
func (l *Linker) vector(a, b string) []float64 {
	v := make([]float64, len(l.Features))
	for i, f := range l.Features {
		v[i] = f.Fn(a, b)
	}
	return v
}

// Score returns the weighted similarity of a pair, clamped to [0,1]. It
// adds Bias + Σ wᵢ·fᵢ in feature order, as Train does over vector, without
// materializing the vector.
func (l *Linker) Score(a, b string) float64 {
	s := l.Bias
	for i, f := range l.Features {
		s += l.Weights[i] * f.Fn(a, b)
	}
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// IsMatch applies the threshold.
func (l *Linker) IsMatch(a, b string) bool { return l.Score(a, b) >= l.Threshold }

// Train runs passive-aggressive perceptron epochs over the labeled pairs:
// when a pair is misclassified (score on the wrong side of the threshold
// by less than the margin), the weights move toward/away from the pair's
// feature vector just enough to fix it. It returns the number of updates.
func (l *Linker) Train(pairs []LabeledPair, epochs int) int {
	const margin = 0.05
	updates := 0
	for e := 0; e < epochs; e++ {
		changed := false
		for _, p := range pairs {
			v := l.vector(p.A, p.B)
			s := l.Bias
			for i := range v {
				s += l.Weights[i] * v[i]
			}
			var want float64
			if p.Match {
				want = l.Threshold + margin
				if s >= want {
					continue
				}
			} else {
				want = l.Threshold - margin
				if s <= want {
					continue
				}
			}
			// Minimal (passive-aggressive) additive update: w += τ·v, with
			// τ chosen so the pair lands exactly on the wanted side.
			norm := 1.0 // bias contributes 1
			for _, x := range v {
				norm += x * x
			}
			tau := (want - s) / norm
			for i := range v {
				l.Weights[i] += tau * v[i]
			}
			l.Bias += tau
			updates++
			changed = true
		}
		if !changed {
			break
		}
	}
	return updates
}

// Accuracy evaluates the linker on labeled pairs.
func (l *Linker) Accuracy(pairs []LabeledPair) float64 {
	if len(pairs) == 0 {
		return 0
	}
	ok := 0
	for _, p := range pairs {
		if l.IsMatch(p.A, p.B) == p.Match {
			ok++
		}
	}
	return float64(ok) / float64(len(pairs))
}

// TupleSimilarity adapts the linker to the engine's record-link join: the
// restricted column tuples are compared pairwise and averaged.
func (l *Linker) TupleSimilarity() engine.Similarity {
	return func(a, b table.Tuple) float64 {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n == 0 {
			return 0
		}
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += l.Score(a[i].Text(), b[i].Text())
		}
		return sum / float64(n)
	}
}

// String summarizes the learned weights.
func (l *Linker) String() string {
	s := "Linker{"
	for i, f := range l.Features {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s=%.3f", f.Name, l.Weights[i])
	}
	return s + fmt.Sprintf(", bias=%.3f, θ=%.2f}", l.Bias, l.Threshold)
}

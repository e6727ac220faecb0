package linkage

// The reference kernels: the straightforward string-similarity library
// (rune slices, map token sets, strings.ToLower) that the allocation-free
// kernels in similarity.go must reproduce bit for bit. The equivalence
// tests in kernels_test.go compare every kernel and Linker.Score to these.

import (
	"strings"
)

// refLevenshtein returns the edit distance between two strings (runes).
func refLevenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = refMin3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

func refMin3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// refLevenshteinSim normalizes edit distance to a [0,1] similarity.
func refLevenshteinSim(a, b string) float64 {
	la, lb := len([]rune(a)), len([]rune(b))
	if la == 0 && lb == 0 {
		return 1
	}
	max := la
	if lb > max {
		max = lb
	}
	return 1 - float64(refLevenshtein(a, b))/float64(max)
}

// refJaro returns the refJaro similarity of two strings.
func refJaro(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 && len(rb) == 0 {
		return 1
	}
	if len(ra) == 0 || len(rb) == 0 {
		return 0
	}
	window := len(ra)
	if len(rb) > window {
		window = len(rb)
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	matchA := make([]bool, len(ra))
	matchB := make([]bool, len(rb))
	matches := 0
	for i := range ra {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > len(rb) {
			hi = len(rb)
		}
		for j := lo; j < hi; j++ {
			if !matchB[j] && ra[i] == rb[j] {
				matchA[i] = true
				matchB[j] = true
				matches++
				break
			}
		}
	}
	if matches == 0 {
		return 0
	}
	// Transpositions.
	trans := 0
	j := 0
	for i := range ra {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			trans++
		}
		j++
	}
	m := float64(matches)
	return (m/float64(len(ra)) + m/float64(len(rb)) + (m-float64(trans)/2)/m) / 3
}

// refJaroWinkler boosts refJaro similarity for shared prefixes (p=0.1, max 4).
func refJaroWinkler(a, b string) float64 {
	j := refJaro(a, b)
	prefix := 0
	ra, rb := []rune(a), []rune(b)
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

// refJaccardTokens is token-set Jaccard overlap (case-insensitive).
func refJaccardTokens(a, b string) float64 {
	sa, sb := refTokenSet(a), refTokenSet(b)
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	if len(sa) == 0 || len(sb) == 0 {
		return 0
	}
	inter := 0
	for t := range sa {
		if sb[t] {
			inter++
		}
	}
	return float64(inter) / float64(len(sa)+len(sb)-inter)
}

func refTokenSet(s string) map[string]bool {
	out := map[string]bool{}
	for _, t := range strings.Fields(strings.ToLower(s)) {
		out[strings.Trim(t, ".,;:()")] = true
	}
	delete(out, "")
	return out
}

// refAbbrevSim is an abbreviation-aware token similarity: tokens match if
// equal, if one expands to the other ("HS" ≈ "High School"), or if one is
// an initial of the other ("N." ≈ "North"). It returns the fraction of
// matched tokens over the longer token sequence.
func refAbbrevSim(a, b string) float64 {
	ta, tb := refExpandTokens(a), refExpandTokens(b)
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	if len(ta) > len(tb) {
		ta, tb = tb, ta
	}
	used := make([]bool, len(tb))
	matched := 0
	for _, x := range ta {
		for j, y := range tb {
			if used[j] {
				continue
			}
			if refTokensAlike(x, y) {
				used[j] = true
				matched++
				break
			}
		}
	}
	return float64(matched) / float64(len(tb))
}

// refExpandTokens lowercases, strips punctuation, and expands known
// abbreviations into their multi-word forms.
func refExpandTokens(s string) []string {
	var out []string
	for _, t := range strings.Fields(strings.ToLower(s)) {
		t = strings.Trim(t, ".,;:()")
		if t == "" {
			continue
		}
		if exp, ok := abbrevTable[t]; ok {
			out = append(out, strings.Fields(exp)...)
			continue
		}
		out = append(out, t)
	}
	return out
}

func refTokensAlike(a, b string) bool {
	if a == b {
		return true
	}
	// Initialism: "n" matches "north".
	if len(a) == 1 && strings.HasPrefix(b, a) {
		return true
	}
	if len(b) == 1 && strings.HasPrefix(a, b) {
		return true
	}
	// Small typo tolerance for words ≥ 5 runes.
	if len(a) >= 5 && len(b) >= 5 && refLevenshtein(a, b) <= 1 {
		return true
	}
	return false
}

// refNameSim is the predefined-library name matcher: the best of the
// abbreviation-aware, Jaccard, and Jaro-Winkler similarities. It handles
// the contact-spreadsheet perturbations (abbreviations, dropped words,
// typos) the demo scenario requires.
func refNameSim(a, b string) float64 {
	best := refAbbrevSim(a, b)
	if j := refJaccardTokens(a, b); j > best {
		best = j
	}
	if jw := refJaroWinkler(strings.ToLower(a), strings.ToLower(b)); jw > best {
		best = jw
	}
	return best
}

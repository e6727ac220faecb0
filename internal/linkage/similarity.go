// Package linkage implements CopyCat's record-linking substrate (§1's
// contact-matching example; §2.2: "the SCP system can attempt to learn a
// record linking function from a set of examples — or, in some cases, use
// a function from a predefined library"). It provides the predefined
// string-similarity library — edit distance, Jaro-Winkler, token Jaccard,
// abbreviation-aware matching — and a Linker that learns a weighted
// combination of those heuristics from labeled example pairs.
//
// The kernels run once per scored pair of a record-link join, so they
// work in stack buffers sized for names and addresses (runes, lower-cased
// bytes, token lists) and fall back to the heap only for longer inputs;
// a short ASCII pair allocates nothing. Their results are bit-identical
// to the straightforward formulation (rune slices, map token sets,
// strings.ToLower) kept as the test oracle.
package linkage

import (
	"bytes"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Stack buffer capacities: runes per string, lower-cased bytes per
// string, and tokens per string. Longer inputs spill to the heap through
// append or make; results do not depend on these sizes.
const (
	stackRunes  = 64
	stackBytes  = 128
	stackTokens = 16
)

// Levenshtein returns the edit distance between two strings (runes).
func Levenshtein(a, b string) int {
	var ba, bb [stackRunes]rune
	return levenshtein(appendRunes(ba[:0], a), appendRunes(bb[:0], b))
}

func levenshtein(ra, rb []rune) int {
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	var buf [2 * (stackRunes + 1)]int
	n := len(rb) + 1
	rows := buf[:]
	if 2*n > len(buf) {
		rows = make([]int, 2*n)
	}
	prev, cur := rows[:n], rows[n:2*n]
	for j := range prev {
		prev[j] = j
	}
	for i, ca := range ra {
		cur[0] = i + 1
		for j, cb := range rb {
			cost := 1
			if ca == cb {
				cost = 0
			}
			cur[j+1] = min(prev[j+1]+1, cur[j]+1, prev[j]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// LevenshteinSim normalizes edit distance to a [0,1] similarity.
func LevenshteinSim(a, b string) float64 {
	var ba, bb [stackRunes]rune
	ra, rb := appendRunes(ba[:0], a), appendRunes(bb[:0], b)
	if len(ra) == 0 && len(rb) == 0 {
		return 1
	}
	return 1 - float64(levenshtein(ra, rb))/float64(max(len(ra), len(rb)))
}

// Jaro returns the Jaro similarity of two strings.
func Jaro(a, b string) float64 {
	var ba, bb [stackRunes]rune
	return jaro(appendRunes(ba[:0], a), appendRunes(bb[:0], b))
}

func jaro(ra, rb []rune) float64 {
	if len(ra) == 0 && len(rb) == 0 {
		return 1
	}
	if len(ra) == 0 || len(rb) == 0 {
		return 0
	}
	window := max(len(ra), len(rb))/2 - 1
	if window < 0 {
		window = 0
	}
	var bufA, bufB [stackRunes]bool
	matchA, matchB := falses(bufA[:], len(ra)), falses(bufB[:], len(rb))
	matches := 0
	for i, r := range ra {
		lo := max(i-window, 0)
		hi := min(i+window+1, len(rb))
		if lo >= hi {
			continue
		}
		seg := rb[lo:hi]
		used := matchB[lo:hi]
		used = used[:len(seg)]
		for k, c := range seg {
			if c == r && !used[k] {
				matchA[i] = true
				used[k] = true
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

// JaroWinkler boosts Jaro similarity for shared prefixes (p=0.1, max 4).
func JaroWinkler(a, b string) float64 {
	var ba, bb [stackRunes]rune
	return jaroWinkler(appendRunes(ba[:0], a), appendRunes(bb[:0], b))
}

func jaroWinkler(ra, rb []rune) float64 {
	j := jaro(ra, rb)
	prefix := 0
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

// JaccardTokens is token-set Jaccard overlap (case-insensitive).
func JaccardTokens(a, b string) float64 {
	var la, lb [stackBytes]byte
	var ta, tb [stackTokens]token
	return jaccard(lowerText(la[:0], ta[:0], a), lowerText(lb[:0], tb[:0], b))
}

// jaccard is the Jaccard overlap of two texts' tokens taken as sets.
func jaccard(a, b text) float64 {
	na, nb := a.distinct(), b.distinct()
	if na == 0 && nb == 0 {
		return 1
	}
	if na == 0 || nb == 0 {
		return 0
	}
	inter := 0
	for i := range a.toks {
		if w := a.word(i); !a.has(i, w) && b.has(len(b.toks), w) {
			inter++
		}
	}
	return float64(inter) / float64(na+nb-inter)
}

// abbrevTable maps common institutional abbreviations to their expansions;
// AbbrevSim consults it symmetrically.
var abbrevTable = map[string]string{
	"hs": "high school", "ms": "middle school", "elem": "elementary",
	"ctr": "center", "comm": "community", "rec": "recreation",
	"st": "street", "ave": "avenue", "dr": "drive", "rd": "road",
	"blvd": "boulevard", "ter": "terrace",
}

// abbrevText holds the words of every expansion in abbrevTable, and
// abbrevWords maps each abbreviation to its words' tokens in it.
var abbrevText, abbrevWords = func() ([]byte, map[string][]token) {
	var buf []byte
	words := make(map[string][]token, len(abbrevTable))
	for k, exp := range abbrevTable {
		for _, w := range strings.Fields(exp) {
			words[k] = append(words[k], token{lo: len(buf), hi: len(buf) + len(w), dict: true})
			buf = append(buf, w...)
		}
	}
	return buf, words
}()

// AbbrevSim is an abbreviation-aware token similarity: tokens match if
// equal, if one expands to the other ("HS" ≈ "High School"), or if one is
// an initial of the other ("N." ≈ "North"). It returns the fraction of
// matched tokens over the longer token sequence.
func AbbrevSim(a, b string) float64 {
	var la, lb [stackBytes]byte
	var ta, tb [stackTokens]token
	return abbrev(lowerText(la[:0], ta[:0], a), lowerText(lb[:0], tb[:0], b))
}

// abbrev is AbbrevSim over two lower-cased texts.
func abbrev(a, b text) float64 {
	var ea, eb [stackTokens]token
	xa, xb := a.expand(ea[:0]), b.expand(eb[:0])
	if len(xa.toks) == 0 && len(xb.toks) == 0 {
		return 1
	}
	if len(xa.toks) == 0 || len(xb.toks) == 0 {
		return 0
	}
	if len(xa.toks) > len(xb.toks) {
		xa, xb = xb, xa
	}
	var buf [stackTokens]bool
	used := falses(buf[:], len(xb.toks))
	matched := 0
	for i := range xa.toks {
		x := xa.word(i)
		for j := range xb.toks {
			if used[j] {
				continue
			}
			if tokensAlike(x, xb.word(j)) {
				used[j] = true
				matched++
				break
			}
		}
	}
	return float64(matched) / float64(len(xb.toks))
}

// A token is a word of a text: a span of its lower-cased bytes, or of
// abbrevText for a word of an abbreviation's expansion. Spans rather than
// subslices keep the token lists free of pointers, so the byte buffers
// they index can stay on the stack.
type token struct {
	lo, hi int
	dict   bool
}

// text is a lower-cased string and its tokens.
type text struct {
	low  []byte
	toks []token
}

// lowerText lower-cases s into lowBuf and tokenizes it into tokBuf.
func lowerText(lowBuf []byte, tokBuf []token, s string) text {
	low := appendLower(lowBuf, s)
	return text{low: low, toks: appendTokens(tokBuf, low)}
}

// word returns the bytes of token i.
func (x text) word(i int) []byte {
	t := x.toks[i]
	if t.dict {
		return abbrevText[t.lo:t.hi]
	}
	return x.low[t.lo:t.hi]
}

// has reports whether any of the first n tokens spells w.
func (x text) has(n int, w []byte) bool {
	for i := 0; i < n; i++ {
		if bytes.Equal(x.word(i), w) {
			return true
		}
	}
	return false
}

// distinct counts the different words among the tokens.
func (x text) distinct() int {
	n := 0
	for i := range x.toks {
		if !x.has(i, x.word(i)) {
			n++
		}
	}
	return n
}

// expand returns the text with known abbreviations replaced by the words
// of their expansions, its tokens appended to dst.
func (x text) expand(dst []token) text {
	for i, t := range x.toks {
		if words, ok := abbrevWords[string(x.word(i))]; ok {
			dst = append(dst, words...)
			continue
		}
		dst = append(dst, t)
	}
	return text{low: x.low, toks: dst}
}

func tokensAlike(a, b []byte) bool {
	if bytes.Equal(a, b) {
		return true
	}
	// Initialism: "n" matches "north".
	if len(a) == 1 && bytes.HasPrefix(b, a) {
		return true
	}
	if len(b) == 1 && bytes.HasPrefix(a, b) {
		return true
	}
	// Small typo tolerance for words of ≥ 5 bytes.
	return len(a) >= 5 && len(b) >= 5 && withinOneEdit(a, b)
}

// withinOneEdit reports whether the rune sequences of a and b are at
// Levenshtein distance ≤ 1: equal length with at most one substitution,
// or one insertion into the shorter.
func withinOneEdit(a, b []byte) bool {
	var ba, bb [stackRunes]rune
	ra, rb := appendRunesBytes(ba[:0], a), appendRunesBytes(bb[:0], b)
	if len(ra) > len(rb) {
		ra, rb = rb, ra
	}
	switch len(rb) - len(ra) {
	case 0:
		diff := 0
		for i := range ra {
			if ra[i] != rb[i] {
				if diff++; diff > 1 {
					return false
				}
			}
		}
		return true
	case 1:
		i := 0
		for i < len(ra) && ra[i] == rb[i] {
			i++
		}
		for ; i < len(ra); i++ {
			if ra[i] != rb[i+1] {
				return false
			}
		}
		return true
	}
	return false
}

// NameSim is the predefined-library name matcher: the best of the
// abbreviation-aware, Jaccard, and Jaro-Winkler similarities (the last
// case-insensitive). It handles the contact-spreadsheet perturbations
// (abbreviations, dropped words, typos) the demo scenario requires.
func NameSim(a, b string) float64 {
	var la, lb [stackBytes]byte
	var ta, tb [stackTokens]token
	xa, xb := lowerText(la[:0], ta[:0], a), lowerText(lb[:0], tb[:0], b)
	best := abbrev(xa, xb)
	if j := jaccard(xa, xb); j > best {
		best = j
	}
	var ra, rb [stackRunes]rune
	if jw := jaroWinkler(appendRunesBytes(ra[:0], xa.low), appendRunesBytes(rb[:0], xb.low)); jw > best {
		best = jw
	}
	return best
}

// appendRunes appends the runes of s, decoded as []rune(s) decodes them.
func appendRunes(dst []rune, s string) []rune {
	for _, r := range s {
		dst = append(dst, r)
	}
	return dst
}

// appendRunesBytes appends the runes of b, decoded as []rune(string(b))
// decodes them.
func appendRunesBytes(dst []rune, b []byte) []rune {
	for len(b) > 0 {
		r, size := rune(b[0]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRune(b)
		}
		dst = append(dst, r)
		b = b[size:]
	}
	return dst
}

// appendLower appends s lower-cased exactly as strings.ToLower(s) spells
// it: ASCII bytes map A–Z directly; from the first non-ASCII byte on,
// each rune goes through unicode.ToLower and an invalid byte becomes
// U+FFFD.
func appendLower(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			for _, r := range s[i:] {
				dst = utf8.AppendRune(dst, unicode.ToLower(r))
			}
			return dst
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// appendTokens appends the fields of a lower-cased text, split on Unicode
// white space as strings.Fields splits, each trimmed of ".,;:()" at both
// ends; fields that trim to nothing are dropped.
func appendTokens(dst []token, low []byte) []token {
	start := -1
	for i := 0; i < len(low); {
		c, size := low[i], 1
		var space bool
		if c < utf8.RuneSelf {
			space = c == ' ' || '\t' <= c && c <= '\r'
		} else {
			var r rune
			r, size = utf8.DecodeRune(low[i:])
			space = unicode.IsSpace(r)
		}
		if space {
			if start >= 0 {
				dst = appendTrimmed(dst, low, start, i)
				start = -1
			}
		} else if start < 0 {
			start = i
		}
		i += size
	}
	if start >= 0 {
		dst = appendTrimmed(dst, low, start, len(low))
	}
	return dst
}

func appendTrimmed(dst []token, low []byte, lo, hi int) []token {
	for lo < hi && isTrimmed(low[lo]) {
		lo++
	}
	for lo < hi && isTrimmed(low[hi-1]) {
		hi--
	}
	if lo == hi {
		return dst
	}
	return append(dst, token{lo: lo, hi: hi})
}

func isTrimmed(c byte) bool {
	switch c {
	case '.', ',', ';', ':', '(', ')':
		return true
	}
	return false
}

// falses returns n false flags: the first n of buf, which must be all
// false, when it is large enough.
func falses(buf []bool, n int) []bool {
	if n > len(buf) {
		return make([]bool, n)
	}
	return buf[:n]
}

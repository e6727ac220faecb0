package linkage

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"copycat/internal/webworld"
)

// kernelWords feeds the random string generator: plain and mixed-case
// ASCII, abbreviation-table words with and without trailing periods,
// initials, punctuation-only tokens, and Unicode letters whose lower case
// changes byte length (İ → i, K (Kelvin) → k) or is not ASCII (É, Σ, Ǆ).
var kernelWords = []string{
	"north", "North", "NORTH", "high", "School", "school", "creek", "Creek",
	"Elementary", "Elem", "elem.", "HS", "hs", "Ms", "Ctr", "ctr.", "Comm",
	"Rec", "St.", "St", "Ave", "Dr", "Rd.", "Blvd", "Ter", "center",
	"recreation", "Ramblewood", "Ramblewod", "Pioneer", "Armory", "Sunset",
	"N.", "S", "n", "(Annex)", "...", "(", "):", ",;", "-", "500", "a",
	"Café", "CAFÉ", "ÉCOLE", "École", "Straße", "STRASSE", "İstanbul",
	"\u212aelvin", "ΣΟΦΙΑ", "σοφία", "Ǆemal", "日本", "naïve", "\xffbad",
}

// kernelSpaces are the separators between words: ASCII and Unicode white
// space (no-break, ideographic, next-line, thin), all of which
// strings.Fields splits on.
var kernelSpaces = []string{" ", " ", " ", "  ", "\t", "\n", "\u00a0", "\u3000", "\u0085", "\u2009"}

// randomName draws a string of up to maxWords words.
func randomName(rng *rand.Rand, maxWords int) string {
	n := rng.Intn(maxWords + 1)
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 || rng.Intn(8) == 0 {
			b.WriteString(kernelSpaces[rng.Intn(len(kernelSpaces))])
		}
		w := kernelWords[rng.Intn(len(kernelWords))]
		if rng.Intn(6) == 0 {
			w = mixCase(rng, w)
		}
		b.WriteString(w)
	}
	if rng.Intn(8) == 0 {
		b.WriteString(kernelSpaces[rng.Intn(len(kernelSpaces))])
	}
	return b.String()
}

func mixCase(rng *rand.Rand, s string) string {
	rs := []rune(s)
	for i, r := range rs {
		if rng.Intn(2) == 0 {
			rs[i] = []rune(strings.ToUpper(string(r)))[0]
		} else {
			rs[i] = []rune(strings.ToLower(string(r)))[0]
		}
	}
	return string(rs)
}

// typo applies one random edit (substitute, insert, delete, transpose)
// to s.
func typo(rng *rand.Rand, s string) string {
	rs := []rune(s)
	if len(rs) == 0 {
		return "x"
	}
	i := rng.Intn(len(rs))
	switch rng.Intn(4) {
	case 0:
		rs[i] = rune('a' + rng.Intn(26))
	case 1:
		rs = append(rs[:i], append([]rune{rune('a' + rng.Intn(26))}, rs[i:]...)...)
	case 2:
		rs = append(rs[:i], rs[i+1:]...)
	default:
		if i+1 < len(rs) {
			rs[i], rs[i+1] = rs[i+1], rs[i]
		}
	}
	return string(rs)
}

// kernelPairs returns seeded pairs: related (one typo, case change,
// abbreviation swap), unrelated, empty, and longer than every stack
// buffer (> 64 runes, > 128 bytes, > 16 tokens).
func kernelPairs(seed int64, n int) [][2]string {
	rng := rand.New(rand.NewSource(seed))
	out := [][2]string{{"", ""}, {"", "North HS"}, {"N. High", ""}, {"...", "()"}}
	for len(out) < n {
		maxWords := 5
		if rng.Intn(10) == 0 {
			maxWords = 40
		}
		a := randomName(rng, maxWords)
		var b string
		switch rng.Intn(5) {
		case 0:
			b = typo(rng, a)
		case 1:
			b = mixCase(rng, a)
		case 2:
			b = randomName(rng, maxWords)
		case 3:
			b = strings.NewReplacer("High School", "HS", "Street", "St.", "North", "N.").Replace(a)
		default:
			b = a + kernelSpaces[rng.Intn(len(kernelSpaces))] + randomName(rng, 2)
		}
		out = append(out, [2]string{a, b}, [2]string{b, a})
	}
	return out
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// TestKernelsMatchReference checks every kernel against the reference
// formulation bit for bit on seeded random pairs.
func TestKernelsMatchReference(t *testing.T) {
	kernels := []struct {
		name     string
		got, ref func(a, b string) float64
	}{
		{"LevenshteinSim", LevenshteinSim, refLevenshteinSim},
		{"Jaro", Jaro, refJaro},
		{"JaroWinkler", JaroWinkler, refJaroWinkler},
		{"JaccardTokens", JaccardTokens, refJaccardTokens},
		{"AbbrevSim", AbbrevSim, refAbbrevSim},
		{"NameSim", NameSim, refNameSim},
	}
	pairs := kernelPairs(1, 4000)
	long := 0
	for _, p := range pairs {
		a, b := p[0], p[1]
		if len([]rune(a)) > stackRunes || len(a) > stackBytes || len(strings.Fields(a)) > stackTokens {
			long++
		}
		if got, want := Levenshtein(a, b), refLevenshtein(a, b); got != want {
			t.Fatalf("Levenshtein(%q, %q) = %d, reference %d", a, b, got, want)
		}
		for _, k := range kernels {
			if got, want := k.got(a, b), k.ref(a, b); !sameBits(got, want) {
				t.Fatalf("%s(%q, %q) = %v, reference %v", k.name, a, b, got, want)
			}
		}
	}
	if long == 0 {
		t.Fatal("no pair exceeds a stack buffer; the heap fallback went untested")
	}
}

// TestTokensAlikeMatchesReference covers the typo rule directly: short
// words and their one- and two-edit variants, Unicode included.
func TestTokensAlikeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		a := strings.ToLower(kernelWords[rng.Intn(len(kernelWords))])
		b := typo(rng, a)
		if rng.Intn(3) == 0 {
			b = typo(rng, b)
		}
		if got, want := tokensAlike([]byte(a), []byte(b)), refTokensAlike(a, b); got != want {
			t.Fatalf("tokensAlike(%q, %q) = %v, reference %v", a, b, got, want)
		}
	}
}

// refScore is Linker.Score over the reference kernels: the feature vector
// first, then Bias + Σ wᵢ·vᵢ in order, clamped.
func refScore(l *Linker, a, b string) float64 {
	ref := map[string]func(a, b string) float64{
		"levenshtein": refLevenshteinSim, "jarowinkler": refJaroWinkler,
		"jaccard": refJaccardTokens, "abbrev": refAbbrevSim, "name": refNameSim,
	}
	v := make([]float64, len(l.Features))
	for i, f := range l.Features {
		v[i] = ref[f.Name](a, b)
	}
	s := l.Bias
	for i := range v {
		s += l.Weights[i] * v[i]
	}
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// TestLinkerScoreMatchesReference checks Score bit for bit under uniform,
// trained and random weights, on random pairs and on every Org × Name
// pair of the demo world.
func TestLinkerScoreMatchesReference(t *testing.T) {
	w := webworld.Generate(webworld.DefaultConfig())
	trained := NewLinker()
	var train []LabeledPair
	for _, c := range w.Contacts {
		train = append(train,
			LabeledPair{A: c.Org, B: w.Shelters[c.ShelterID].Name, Match: true},
			LabeledPair{A: c.Org, B: w.Shelters[(c.ShelterID+7)%len(w.Shelters)].Name, Match: false})
	}
	trained.Train(train, 30)
	random := NewLinker()
	rng := rand.New(rand.NewSource(3))
	for i := range random.Weights {
		random.Weights[i] = rng.Float64()*2 - 0.5
	}
	random.Bias = rng.Float64() - 0.5

	pairs := kernelPairs(4, 1000)
	for _, c := range w.Contacts {
		for _, s := range w.Shelters {
			pairs = append(pairs, [2]string{c.Org, s.Name})
		}
	}
	for _, l := range []*Linker{NewLinker(), trained, random} {
		for _, p := range pairs {
			if got, want := l.Score(p[0], p[1]), refScore(l, p[0], p[1]); !sameBits(got, want) {
				t.Fatalf("%s: Score(%q, %q) = %v, reference %v", l, p[0], p[1], got, want)
			}
		}
	}
}

// TestLinkerScoreAllocationFree: scoring a short ASCII pair allocates
// nothing.
func TestLinkerScoreAllocationFree(t *testing.T) {
	l := NewLinker()
	pairs := [][2]string{
		{"North High School", "N. High School"},
		{"Pioneer Recreation Center", "Pioneer Rec Ctr"},
		{"500 Ramblewood Dr", "500 Ramblewod Drive"},
		{"", "Creek Elementary"},
	}
	for _, p := range pairs {
		if n := testing.AllocsPerRun(100, func() { l.Score(p[0], p[1]) }); n != 0 {
			t.Errorf("Score(%q, %q) allocates %.0f times per call", p[0], p[1], n)
		}
	}
}

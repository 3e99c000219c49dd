package tokenize

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestWords(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"River Park", []string{"river", "park"}},
		{"773 731-0380", []string{"773", "731", "0380"}},
		{"Oil on canvas", []string{"oil", "on", "canvas"}},
		{"", nil},
		{"  --  ", nil},
		{"CamelCase", []string{"camelcase"}},
		{"Brandon, MN", []string{"brandon", "mn"}},
	}
	for _, c := range cases {
		got := Words(c.in)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Words(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// referenceWords is Words as first written, one rune at a time; the byte
// walk of AppendWords must agree with it on every input.
func referenceWords(s string) []string {
	var out []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for _, r := range s {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			cur.WriteRune(unicode.ToLower(r))
		default:
			flush()
		}
	}
	flush()
	return out
}

// checkWords fails t unless Words and AppendWords onto a non-empty dst
// agree with referenceWords on s.
func checkWords(t *testing.T, s string) {
	t.Helper()
	want := referenceWords(s)
	if got := Words(s); !reflect.DeepEqual(got, want) {
		t.Fatalf("Words(%q) = %q, reference %q", s, got, want)
	}
	dst := []string{"kept"}
	if got := AppendWords(dst, s); !reflect.DeepEqual(got, append(dst, want...)) {
		t.Fatalf("AppendWords(dst, %q) = %q, want dst + %q", s, got, want)
	}
}

func TestWordsMatchesReference(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"river park 42", []string{"river", "park", "42"}},
		{"River PARK, mN", []string{"river", "park", "mn"}},
		{"Café au lait", []string{"café", "au", "lait"}},
		{"İstanbul", []string{"istanbul"}},
		{"Straße", []string{"straße"}},
		{"5\u212A", []string{"5k"}}, // Kelvin sign lowers to ASCII k
		{"room ٣٤٥", []string{"room", "٣٤٥"}},
		{"ab\xffcd \xc3", []string{"ab", "cd"}}, // invalid UTF-8 separates
		{"abcé def", []string{"abcé", "def"}},   // a word cut at a non-ASCII letter
		{"ab—Cd", []string{"ab", "cd"}},
		// datagen's dirty-cell pools: unicode, mixed types, empty.
		{"jalapeño", []string{"jalapeño"}},
		{"Zürich", []string{"zürich"}},
		{"北京", []string{"北京"}},
		{"Köln smörgåsbord naïve", []string{"köln", "smörgåsbord", "naïve"}},
		{"Москва", []string{"москва"}},
		{"🦉 owl", []string{"owl"}},
		{"12px one hundred", []string{"12px", "one", "hundred"}},
		{"1.2.3", []string{"1", "2", "3"}},
		{"#REF!", []string{"ref"}},
		{"NaN-ish", []string{"nan", "ish"}},
		{"", nil},
	}
	for _, c := range cases {
		if got := referenceWords(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("referenceWords(%q) = %q, want %q", c.in, got, c.want)
		}
		checkWords(t, c.in)
	}
}

// TestAppendWordsLowercaseASCIIAllocs: lowercase ASCII words are substrings
// of the input, so appending them to a buffer with room allocates nothing.
func TestAppendWordsLowercaseASCIIAllocs(t *testing.T) {
	buf := make([]string, 0, 8)
	if n := testing.AllocsPerRun(10, func() { buf = AppendWords(buf[:0], "river park 773 731-0380") }); n != 0 {
		t.Errorf("AppendWords allocated %v times, want 0", n)
	}
}

func FuzzWords(f *testing.F) {
	for _, s := range []string{"River Park", "773 731-0380", "Zürich", "5\u212A", "ab\xffcd", "İstanbul", "🦉 owl", ""} {
		f.Add(s)
	}
	f.Fuzz(checkWords)
}

func TestTermFreq(t *testing.T) {
	tf := TermFreq([]string{"a", "b", "a", "a"})
	if tf["a"] != 3 || tf["b"] != 1 {
		t.Errorf("TermFreq = %v", tf)
	}
}

func TestCorpusIDF(t *testing.T) {
	var c Corpus
	c.AddDocument([]string{"common", "rare1"})
	c.AddDocument([]string{"common", "rare2"})
	c.AddDocument([]string{"common"})
	if c.NumDocs() != 3 {
		t.Fatalf("NumDocs = %d", c.NumDocs())
	}
	if c.IDF("common") >= c.IDF("rare1") {
		t.Errorf("IDF(common)=%v should be < IDF(rare1)=%v", c.IDF("common"), c.IDF("rare1"))
	}
	if c.IDF("unseen") <= c.IDF("rare1") {
		t.Errorf("IDF(unseen)=%v should be > IDF(rare1)=%v", c.IDF("unseen"), c.IDF("rare1"))
	}
}

func TestCorpusIDFEmptyCorpus(t *testing.T) {
	var c Corpus
	if got := c.IDF("anything"); got != 1 {
		t.Errorf("IDF on empty corpus = %v, want 1 (ln(1)+1)", got)
	}
}

func TestTFIDFScoring(t *testing.T) {
	var c Corpus
	c.AddDocument([]string{"park", "city"})
	c.AddDocument([]string{"park", "museum"})
	scores := c.TFIDF([]string{"park", "museum", "museum"})
	if scores["museum"] <= scores["park"] {
		t.Errorf("rarer+more frequent token should outscore: %v", scores)
	}
}

func TestTopKDeterministicAndBounded(t *testing.T) {
	var c Corpus
	c.AddDocument([]string{"a", "b", "c", "d"})
	tokens := []string{"a", "b", "c", "d", "a"}
	top2 := c.TopK(tokens, 2)
	if len(top2) != 2 {
		t.Fatalf("TopK(2) returned %d tokens", len(top2))
	}
	// "a" has tf=2 so it must come first.
	if top2[0] != "a" {
		t.Errorf("TopK[0] = %q, want a", top2[0])
	}
	// Ties among b,c,d broken lexicographically.
	if top2[1] != "b" {
		t.Errorf("TopK[1] = %q, want b (lexicographic tie-break)", top2[1])
	}
	// k <= 0 means no limit.
	all := c.TopK(tokens, 0)
	if len(all) != 4 {
		t.Errorf("TopK(0) = %v, want all 4 distinct tokens", all)
	}
}

func TestTopKStableAcrossCalls(t *testing.T) {
	var c Corpus
	c.AddDocument([]string{"x", "y", "z"})
	tokens := []string{"z", "y", "x"}
	first := c.TopK(tokens, 3)
	for i := 0; i < 10; i++ {
		if got := c.TopK(tokens, 3); !reflect.DeepEqual(got, first) {
			t.Fatalf("TopK nondeterministic: %v vs %v", got, first)
		}
	}
}

// Property: Words output contains no uppercase letters and no empty tokens.
func TestWordsProperty(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Words(s) {
			if tok == "" {
				return false
			}
			for _, r := range tok {
				if r >= 'A' && r <= 'Z' {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: sum of TermFreq counts equals the token count.
func TestTermFreqTotalProperty(t *testing.T) {
	f := func(raw []string) bool {
		tf := TermFreq(raw)
		total := 0
		for _, n := range tf {
			total += n
		}
		return total == len(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRemoveDocumentRestoresState(t *testing.T) {
	docs := [][]string{
		{"park", "city", "park"},
		{"city", "country", "year"},
		{"park", "year"},
	}
	// Build the full corpus, then remove the middle document and compare
	// against a corpus that never saw it.
	var full Corpus
	for _, d := range docs {
		full.AddDocument(d)
	}
	full.RemoveDocument(docs[1])

	var fresh Corpus
	fresh.AddDocument(docs[0])
	fresh.AddDocument(docs[2])

	if full.NumDocs() != fresh.NumDocs() {
		t.Fatalf("NumDocs = %d, want %d", full.NumDocs(), fresh.NumDocs())
	}
	for _, tok := range []string{"park", "city", "country", "year", "never-seen"} {
		if got, want := full.IDF(tok), fresh.IDF(tok); got != want {
			t.Errorf("IDF(%q) = %v, want %v", tok, got, want)
		}
	}
	// Zero-count entries must be deleted, not kept at zero.
	count := 0
	full.DocFreqs(func(string, int) { count++ })
	if count != 3 { // park, city, year
		t.Errorf("docFreq entries = %d, want 3", count)
	}
}

func TestRemoveDocumentOnEmptyCorpus(t *testing.T) {
	var c Corpus
	c.RemoveDocument([]string{"a"}) // must not underflow or panic
	if c.NumDocs() != 0 {
		t.Errorf("NumDocs = %d", c.NumDocs())
	}
}

func TestCorpusRestore(t *testing.T) {
	var c Corpus
	c.Restore(2, map[string]int{"a": 2, "b": 1, "dead": 0})
	if c.NumDocs() != 2 {
		t.Errorf("NumDocs = %d", c.NumDocs())
	}
	var fresh Corpus
	fresh.AddDocument([]string{"a", "b"})
	fresh.AddDocument([]string{"a"})
	for _, tok := range []string{"a", "b", "dead"} {
		if got, want := c.IDF(tok), fresh.IDF(tok); got != want {
			t.Errorf("IDF(%q) = %v, want %v", tok, got, want)
		}
	}
}

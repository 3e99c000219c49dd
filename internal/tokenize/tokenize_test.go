package tokenize

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
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

// TestCorpusMerge splits random documents at random points across k
// corpora and merges them, into the zero value and into the first part:
// either way the result is the corpus that added every document in turn —
// its document frequencies, count, IDF and TopK with its lexicographic
// ties. Removing the last part's documents from the merge then leaves the
// corpus of the documents before them.
func TestCorpusMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vocab := []string{"park", "city", "year", "river", "owl", "oak", "elm", "bay", "73", "h:name"}
	for trial := 0; trial < 40; trial++ {
		docs := make([][]string, rng.Intn(30))
		for i := range docs {
			for n := rng.Intn(12); n > 0; n-- {
				docs[i] = append(docs[i], vocab[rng.Intn(len(vocab))])
			}
		}
		var want Corpus
		for _, d := range docs {
			want.AddDocument(d)
		}
		k := 1 + rng.Intn(5)
		cuts := []int{0}
		for i := 1; i < k; i++ {
			cuts = append(cuts, rng.Intn(len(docs)+1))
		}
		sort.Ints(cuts)
		cuts = append(cuts, len(docs))
		parts := make([]*Corpus, k)
		for i := range parts {
			parts[i] = &Corpus{}
			for _, d := range docs[cuts[i]:cuts[i+1]] {
				parts[i].AddDocument(d)
			}
		}
		var zero Corpus
		first := parts[0].Clone()
		for i, p := range parts {
			zero.Merge(p)
			if i > 0 {
				first.Merge(p)
			}
		}
		for name, got := range map[string]*Corpus{"zero value": &zero, "first part": first} {
			checkSameCorpus(t, fmt.Sprintf("trial %d, %d parts, into the %s", trial, k, name), got, &want, vocab)
		}

		last := docs[cuts[k-1]:]
		for i := len(last) - 1; i >= 0; i-- {
			zero.RemoveDocument(last[i])
		}
		var before Corpus
		for _, d := range docs[:cuts[k-1]] {
			before.AddDocument(d)
		}
		checkSameCorpus(t, fmt.Sprintf("trial %d, after removing the last part", trial), &zero, &before, vocab)
	}
}

// checkSameCorpus holds got to want: counts, IDF over vocab and TopK.
func checkSameCorpus(t *testing.T, what string, got, want *Corpus, vocab []string) {
	t.Helper()
	if got.NumDocs() != want.NumDocs() {
		t.Errorf("%s: NumDocs = %d, want %d", what, got.NumDocs(), want.NumDocs())
	}
	if g, w := docFreqs(got), docFreqs(want); !reflect.DeepEqual(g, w) {
		t.Errorf("%s: DocFreqs = %v, want %v", what, g, w)
	}
	for _, tok := range append(vocab, "never-seen") {
		if g, w := got.IDF(tok), want.IDF(tok); g != w {
			t.Errorf("%s: IDF(%q) = %v, want %v", what, tok, g, w)
		}
	}
	query := append(append([]string{}, vocab...), "park", "park", "owl", "never-seen")
	for _, k := range []int{0, 1, 3, 7} {
		if g, w := got.TopK(query, k), want.TopK(query, k); !reflect.DeepEqual(g, w) {
			t.Errorf("%s: TopK(_, %d) = %v, want %v", what, k, g, w)
		}
	}
}

// docFreqs is c's document frequencies as a map.
func docFreqs(c *Corpus) map[string]int {
	out := map[string]int{}
	c.DocFreqs(func(tok string, df int) { out[tok] = df })
	return out
}

// TestAddDocumentAllocs: once a document's tokens are in the corpus, adding
// it again allocates nothing, whatever its repeats.
func TestAddDocumentAllocs(t *testing.T) {
	var c Corpus
	doc := Words("river park river 773 oak park owl river")
	c.AddDocument(doc)
	if n := testing.AllocsPerRun(100, func() { c.AddDocument(doc) }); n != 0 {
		t.Errorf("AddDocument of a seen document allocated %v times, want 0", n)
	}
	// AllocsPerRun adds the document once more than it is told, to warm up.
	if got, want := int(c.docFreq["river"].df), 1+101; got != want || c.NumDocs() != want {
		t.Errorf("df(river) = %d in %d documents, want %d in %d", got, c.NumDocs(), want, want)
	}
}

// TestCorpusOpWraps runs documents across the wrap of the corpus's call
// number, over restored counts (stamped 0): no stamp left from before the
// wrap may pass for the current call, so every document still counts each
// distinct token once.
func TestCorpusOpWraps(t *testing.T) {
	docs := [][]string{{"a", "b", "a"}, {"b", "c"}, {"a", "c", "c", "d"}, {"a", "d"}, {"b", "b"}}
	var want, got Corpus
	want.Restore(4, map[string]int{"a": 2, "b": 1, "c": 3, "d": 1})
	got.Restore(4, map[string]int{"a": 2, "b": 1, "c": 3, "d": 1})
	got.op = math.MaxUint32 - 2
	for _, d := range docs {
		want.AddDocument(d)
		got.AddDocument(d)
	}
	got.RemoveDocument(docs[1])
	want.RemoveDocument(docs[1])
	checkSameCorpus(t, "across the wrap", &got, &want, []string{"a", "b", "c", "d"})
	if got.op > 4 {
		t.Errorf("op = %d after the wrap, want it restarted", got.op)
	}
}

// Package tokenize provides the text substrate under every embedding model
// in the reproduction: a word tokenizer, document-frequency statistics,
// TF-IDF scoring, and the top-K representative-token selection the paper
// uses to fit column values into a language model's 512-token input budget
// (§6.2.3, following DeepJoin/Starmie/Doduo).
package tokenize

import (
	"maps"
	"math"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Words splits s into lowercase word tokens. Letters and digits form words;
// everything else separates them. Numeric runs are kept as single tokens so
// values like "773 731-0380" produce stable tokens.
func Words(s string) []string { return AppendWords(nil, s) }

// AppendWords appends the tokens of Words(s) to dst. An ASCII word that is
// already lowercase is a substring of s, not a copy, so the tokens keep s
// alive as long as they are held; a word with capitals costs one
// strings.ToLower. From the first non-ASCII byte on, the rest of s (with
// the word it interrupts) takes the rune-by-rune Unicode path.
func AppendWords(dst []string, s string) []string {
	start, upper := -1, false // start of the current word, -1 between words
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= utf8.RuneSelf:
			if start < 0 {
				start = i
			}
			return appendUnicodeWords(dst, s[start:])
		case 'a' <= c && c <= 'z' || '0' <= c && c <= '9':
		case 'A' <= c && c <= 'Z':
			upper = true
		default:
			if start >= 0 {
				dst = appendWord(dst, s[start:i], upper)
			}
			start, upper = -1, false
			continue
		}
		if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		dst = appendWord(dst, s[start:], upper)
	}
	return dst
}

func appendWord(dst []string, w string, upper bool) []string {
	if upper {
		w = strings.ToLower(w)
	}
	return append(dst, w)
}

// appendUnicodeWords is AppendWords for text that may hold any rune.
func appendUnicodeWords(dst []string, s string) []string {
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			dst = append(dst, cur.String())
			cur.Reset()
		}
	}
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			cur.WriteRune(unicode.ToLower(r))
		} else {
			flush()
		}
	}
	flush()
	return dst
}

// TermFreq counts token occurrences in tokens.
func TermFreq(tokens []string) map[string]int {
	tf := make(map[string]int, len(tokens))
	for _, t := range tokens {
		tf[t]++
	}
	return tf
}

// Corpus accumulates document frequencies across a set of documents (in our
// setting, a document is usually one column's value set). The zero value is
// ready to use.
type Corpus struct {
	docFreq map[string]count
	numDocs int
	// op numbers the AddDocument and RemoveDocument calls. A token's count
	// records the last call that moved it, so a call counts each distinct
	// token once without a set of the tokens it has seen.
	op uint32
}

// count is one token's document frequency and the corpus op that last moved
// it; every stored op is at most the corpus's own, and a merged or restored
// count carries 0. Both halves are 32 bits, so a count is the size of the
// int it replaces: a frequency is bounded by the columns a lake holds.
type count struct {
	df int32
	op uint32
}

// nextOp numbers a new AddDocument or RemoveDocument call. When the number
// wraps, every stamp is cleared first, so none can match a later call.
func (c *Corpus) nextOp() {
	if c.op == math.MaxUint32 {
		for t, n := range c.docFreq {
			c.docFreq[t] = count{df: n.df}
		}
		c.op = 0
	}
	c.op++
}

// AddDocument records the distinct tokens of one document.
func (c *Corpus) AddDocument(tokens []string) {
	if c.docFreq == nil {
		c.docFreq = make(map[string]count)
	}
	c.nextOp()
	for _, t := range tokens {
		n, ok := c.docFreq[t]
		switch {
		case !ok:
			// A token may be a substring of a cell (AppendWords); the key
			// must not keep that cell alive after its table is removed.
			c.docFreq[strings.Clone(t)] = count{df: 1, op: c.op}
		case n.op != c.op:
			c.docFreq[t] = count{df: n.df + 1, op: c.op}
		}
	}
	c.numDocs++
}

// RemoveDocument reverses a prior AddDocument of the same token multiset:
// document frequencies of the distinct tokens are decremented (entries
// reaching zero are deleted, so the corpus state is identical to one built
// without the document) and the document count drops by one. Removing a
// document that was never added corrupts the statistics; callers own that
// invariant.
func (c *Corpus) RemoveDocument(tokens []string) {
	if c.numDocs == 0 {
		return
	}
	c.nextOp()
	for _, t := range tokens {
		n, ok := c.docFreq[t]
		switch {
		case !ok || n.op == c.op:
		case n.df > 1:
			c.docFreq[t] = count{df: n.df - 1, op: c.op}
		default:
			delete(c.docFreq, t)
		}
	}
	c.numDocs--
}

// Merge adds other's documents to c, as if every document added to other
// had been added to c too; other is left as it is. Frequencies are
// integers, so merging any split of a document set, in any order, yields
// the corpus that added the whole set one document at a time. The tokens
// new to c are copied into one allocation: a corpus merged from parts holds
// its keys in one block a part, not one a token scattered among whatever
// else the parts' builders allocated, and no key pins a part.
func (c *Corpus) Merge(other *Corpus) {
	if len(other.docFreq) > 0 && c.docFreq == nil {
		c.docFreq = make(map[string]count, len(other.docFreq))
	}
	size := 0
	for t := range other.docFreq {
		if _, ok := c.docFreq[t]; !ok {
			size += len(t)
		}
	}
	var keys strings.Builder
	keys.Grow(size)
	for t, n := range other.docFreq {
		m, ok := c.docFreq[t]
		if !ok {
			// A Builder only appends, so each key stays a view of the
			// bytes written for it.
			at := keys.Len()
			keys.WriteString(t)
			t = keys.String()[at:]
		}
		m.df += n.df
		c.docFreq[t] = m
	}
	c.numDocs += other.numDocs
}

// Clone returns a corpus with its own document-frequency map, so
// AddDocument/RemoveDocument on the clone leave the original untouched
// (copy-on-write index shadows depend on this).
func (c *Corpus) Clone() *Corpus {
	cp := &Corpus{numDocs: c.numDocs, op: c.op}
	if c.docFreq != nil {
		cp.docFreq = maps.Clone(c.docFreq)
	}
	return cp
}

// NumDocs returns the number of documents added.
func (c *Corpus) NumDocs() int { return c.numDocs }

// DocFreqs calls fn for every (token, document frequency) pair in
// unspecified order; index codecs sort the tokens themselves.
func (c *Corpus) DocFreqs(fn func(token string, df int)) {
	for t, n := range c.docFreq {
		fn(t, int(n.df))
	}
}

// Restore replaces the corpus state wholesale; it is the loading-side dual
// of DocFreqs, used by index codecs. A negative numDocs or frequency is
// silently clamped to zero, and a frequency above math.MaxInt32 to that.
func (c *Corpus) Restore(numDocs int, docFreq map[string]int) {
	if numDocs < 0 {
		numDocs = 0
	}
	c.numDocs = numDocs
	c.docFreq = make(map[string]count, len(docFreq))
	for t, df := range docFreq {
		if df > 0 {
			c.docFreq[t] = count{df: int32(min(df, math.MaxInt32))}
		}
	}
}

// IDF returns the smoothed inverse document frequency of token, defined as
// ln((1+N)/(1+df)) + 1 (the scikit-learn smoothing used by the baselines the
// paper builds on).
func (c *Corpus) IDF(token string) float64 {
	df := int(c.docFreq[token].df)
	return math.Log(float64(1+c.numDocs)/float64(1+df)) + 1
}

// TFIDF scores every token in tokens against the corpus.
func (c *Corpus) TFIDF(tokens []string) map[string]float64 {
	tf := TermFreq(tokens)
	out := make(map[string]float64, len(tf))
	for tok, f := range tf {
		out[tok] = float64(f) * c.IDF(tok)
	}
	return out
}

// TopK returns up to k tokens from tokens ranked by descending TF-IDF score,
// breaking ties lexicographically so the selection is deterministic. This is
// the "most representative tokens" selection of §6.2.3.
func (c *Corpus) TopK(tokens []string, k int) []string {
	scores := c.TFIDF(tokens)
	uniq := make([]string, 0, len(scores))
	for tok := range scores {
		uniq = append(uniq, tok)
	}
	sort.Slice(uniq, func(i, j int) bool {
		si, sj := scores[uniq[i]], scores[uniq[j]]
		if si != sj {
			return si > sj
		}
		return uniq[i] < uniq[j]
	})
	if k > 0 && len(uniq) > k {
		uniq = uniq[:k]
	}
	return uniq
}

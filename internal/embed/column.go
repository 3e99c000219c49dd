package embed

import (
	"dust/internal/table"
	"dust/internal/tokenize"
	"dust/internal/vector"
)

// TokenBudget is the maximum number of representative tokens a column-level
// encoder feeds into the model, mirroring the 512-token input limit of the
// paper's language models (§6.2.3). Only a column past it is encoded against
// a corpus; any other column's vector depends on the column alone.
const TokenBudget = 512

// ColumnEncoder embeds one table column into a vector. Name labels the
// encoder in experiment output; Fingerprint is its identity (differently
// configured models share a Name): equal fingerprints, equal bits.
//
// EncodeColumn takes the corpus (document frequencies across the columns
// being aligned, for TF-IDF token selection) lazily and calls it only when
// the vector depends on it; nil means no selection. pure reports that it was
// not called: v is then a function of (Fingerprint, col) alone, and
// align.EmbedColumns keeps it. v is a fresh allocation.
type ColumnEncoder interface {
	Name() string
	Dim() int
	Fingerprint() string
	EncodeColumn(col *table.Column, corpus func() *tokenize.Corpus) (v vector.Vec, pure bool)
}

// CellLevel embeds each cell value independently and averages the cell
// embeddings (the paper's "Cell-level" serialization variant).
type CellLevel struct {
	Model *Encoder
}

// Name returns "cell/<model>".
func (c CellLevel) Name() string { return "cell/" + c.Model.Name() }

// Dim returns the model dimension.
func (c CellLevel) Dim() int { return c.Model.Dim() }

// Fingerprint returns "cell/<model fingerprint>".
func (c CellLevel) Fingerprint() string { return "cell/" + c.Model.Fingerprint() }

// EncodeColumn implements ColumnEncoder; cells are encoded one by one, so no
// budget applies and the corpus is never consulted.
func (c CellLevel) EncodeColumn(col *table.Column, _ func() *tokenize.Corpus) (vector.Vec, bool) {
	acc := make(vector.Vec, c.Model.Dim())
	n := 0
	for _, v := range col.Values {
		if v == table.Null {
			continue
		}
		vector.AddScaled(acc, c.Model.EncodeText(v), 1)
		n++
	}
	if n == 0 {
		// An all-null column still needs a stable location in space.
		return c.Model.EncodeTokens(nil), true
	}
	return vector.Normalize(acc), true
}

// ColumnLevel concatenates the column's values into one pseudo-sentence,
// selects the TokenBudget most representative tokens by TF-IDF, and encodes
// them in a single model call (the paper's "Column-level" variant, which
// Table 1 shows dominates cell-level for language models).
type ColumnLevel struct {
	Model *Encoder
}

// Name returns "column/<model>".
func (c ColumnLevel) Name() string { return "column/" + c.Model.Name() }

// Dim returns the model dimension.
func (c ColumnLevel) Dim() int { return c.Model.Dim() }

// Fingerprint returns "column/<model fingerprint>".
func (c ColumnLevel) Fingerprint() string { return "column/" + c.Model.Fingerprint() }

// EncodeColumn implements ColumnEncoder.
func (c ColumnLevel) EncodeColumn(col *table.Column, corpus func() *tokenize.Corpus) (vector.Vec, bool) {
	tokens, pure := budgetTokens(col, corpus)
	return c.Model.EncodeTokens(tokens), pure
}

// budgetTokens returns ColumnTokens(col), cut to the TokenBudget most
// representative by corpus() when there are more and a corpus is on offer;
// pure reports that corpus was not called.
func budgetTokens(col *table.Column, corpus func() *tokenize.Corpus) (tokens []string, pure bool) {
	tokens = ColumnTokens(col)
	if corpus == nil || len(tokens) <= TokenBudget {
		return tokens, true
	}
	return corpus().TopK(tokens, TokenBudget), false
}

// ColumnTokens tokenizes every non-null value of a column, including the
// header (tagged so it cannot collide with values). Header tokens are
// repeated: language models attend strongly to the header when judging a
// column's meaning, and two columns with disjoint value instances (e.g.
// two supervisor columns naming different people) must still be able to
// align on header semantics alone.
func ColumnTokens(col *table.Column) []string { return AppendColumnTokens(nil, col) }

// AppendColumnTokens appends the tokens of ColumnTokens(col) to dst.
func AppendColumnTokens(dst []string, col *table.Column) []string {
	for _, t := range tokenize.Words(col.Name) {
		// The "H:" prefix marks a column-context header token: the encoder
		// gives it a strong synonym-class weight and keeps it out of the
		// bigram stream (see Encoder.EncodeTokens). Emitted three times so
		// header semantics survive even for small columns.
		ht := "H:" + t
		dst = append(dst, ht, ht, ht)
	}
	for _, v := range col.Values {
		if v == table.Null {
			continue
		}
		dst = tokenize.AppendWords(dst, v)
	}
	return dst
}

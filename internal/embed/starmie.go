package embed

import (
	"dust/internal/table"
	"dust/internal/tokenize"
	"dust/internal/vector"
)

// StarmieEncoder simulates Starmie's contextualized column embeddings:
// each column's embedding mixes its own content with the context of the
// entire table (Starmie's contrastive pre-training captures "the context of
// the entire table", paper §2). That table-context contamination is exactly
// why Table 1 shows Starmie embeddings aligning columns poorly — columns
// from the same table end up close together regardless of semantics — and
// the simulator reproduces it with an explicit context weight.
type StarmieEncoder struct {
	Model *Encoder
	// ContextWeight is the fraction of each column embedding taken by the
	// whole-table context vector. Starmie's contextualization is strong;
	// 0.5 reproduces the Table 1 failure mode.
	ContextWeight float64
}

// NewStarmie returns the Starmie simulator over a RoBERTa-sim base with the
// default context weight. Starmie fine-tunes RoBERTa contrastively, which
// removes the raw model's anisotropy — so the base here runs with the
// anisotropy knob near zero; what remains (and what Table 1 exposes) is the
// table-context contamination.
func NewStarmie() StarmieEncoder {
	return StarmieEncoder{
		Model:         NewRoBERTa(WithAnisotropy(0.05)),
		ContextWeight: 0.5,
	}
}

// Name identifies the encoder in experiment output.
func (s StarmieEncoder) Name() string { return "starmie" }

// Dim returns the embedding dimension.
func (s StarmieEncoder) Dim() int { return s.Model.Dim() }

// WithHotSet returns a copy of s whose encodes read h, a set made by a
// counter of s.Model, for a vector their token-vector table does not hold,
// before deriving it: the same bits, fewer derivations. A nil h returns s.
func (s StarmieEncoder) WithHotSet(h *HotSet) StarmieEncoder {
	s.Model = s.Model.withHotSet(h)
	return s
}

// EncodeTableColumns embeds every column of t with table-context mixing.
// Every returned vector is L2-normalised: unit length, or all-zero when the
// column and its table context carry nothing to encode. The Starmie index
// stores them as emitted and scores a pair by its plain dot product on the
// strength of that. The corpus is taken lazily, as by
// ColumnEncoder.EncodeColumn: it is called only for a column over TokenBudget.
// The vectors are capacity-capped rows of one allocation.
func (s StarmieEncoder) EncodeTableColumns(t *table.Table, corpus func() *tokenize.Corpus) []vector.Vec {
	dim := s.Dim()
	cols := make([][]string, t.NumCols())
	for i := range t.Columns {
		cols[i], _ = budgetTokens(&t.Columns[i], corpus)
	}
	block := make([]float64, t.NumCols()*dim)
	s.EncodeColumnTokensInto(block, cols)
	out := make([]vector.Vec, t.NumCols())
	for i := range out {
		out[i] = block[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return out
}

// EncodeColumnTokensInto writes over block, as NumCols x Dim row-major
// float64s, the vectors of a table whose columns feed the model cols, one
// token list a column: each column is encoded into its row and then mixed
// with the table context in place, so an index build allocates no vector of
// its own per column. cols[i] = ColumnTokens(&t.Columns[i]), cut by
// CutToBudget, gives EncodeTableColumns' vectors under a corpus of t's own
// columns.
func (s StarmieEncoder) EncodeColumnTokensInto(block []float64, cols [][]string) {
	dim := s.Dim()
	rows := make([]vector.Vec, len(cols))
	for i, tokens := range cols {
		rows[i] = block[i*dim : (i+1)*dim : (i+1)*dim]
		s.Model.EncodeTokensInto(rows[i], tokens)
	}
	if len(rows) == 0 {
		return
	}
	ctx := vector.Mean(rows)
	for _, v := range rows {
		for j, c := range v {
			v[j] = float64((1-s.ContextWeight)*c) + float64(s.ContextWeight*ctx[j])
		}
		vector.NormalizeInPlace(v)
	}
}

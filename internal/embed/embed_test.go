package embed

import (
	"math"
	"testing"

	"dust/internal/table"
	"dust/internal/tokenize"
	"dust/internal/vector"
)

func TestEncodersDeterministic(t *testing.T) {
	for _, mk := range []func(...Option) *Encoder{NewFastText, NewGlove, NewBERT, NewRoBERTa, NewSBERT} {
		e := mk()
		a := e.EncodeText("River Park USA")
		b := e.EncodeText("River Park USA")
		if vector.Euclidean(a, b) != 0 {
			t.Errorf("%s: same input produced different embeddings", e.Name())
		}
	}
}

func TestEncodersUnitNorm(t *testing.T) {
	e := NewRoBERTa()
	v := e.EncodeText("some text here")
	if math.Abs(vector.Norm(v)-1) > 1e-9 {
		t.Errorf("embedding norm = %v, want 1", vector.Norm(v))
	}
	empty := e.EncodeTokens(nil)
	if math.Abs(vector.Norm(empty)-1) > 1e-9 {
		t.Errorf("empty-input embedding norm = %v, want 1", vector.Norm(empty))
	}
}

func TestContentGeometry(t *testing.T) {
	// Without anisotropy, shared-vocabulary texts must be much more similar
	// than disjoint-vocabulary texts.
	e := NewFastText()
	park1 := e.EncodeText("River Park Fresno USA")
	park2 := e.EncodeText("River Park Chicago USA")
	painting := e.EncodeText("Oil on canvas 2006")
	simPark := vector.Cosine(park1, park2)
	simCross := vector.Cosine(park1, painting)
	if simPark <= simCross+0.2 {
		t.Errorf("shared-vocab similarity %v not clearly above cross-topic %v", simPark, simCross)
	}
}

func TestAnisotropyInflatesCosine(t *testing.T) {
	// BERT-sim: any two texts look similar in cosine space (the Fig. 6
	// coin-toss phenomenon) ...
	bert := NewBERT()
	a := bert.EncodeText("River Park Fresno USA")
	b := bert.EncodeText("Northern Lake Oil on canvas")
	if sim := vector.Cosine(a, b); sim < 0.75 {
		t.Errorf("BERT-sim cross-topic cosine = %v, want anisotropy-inflated > 0.75", sim)
	}
	// ... while the word models keep unrelated texts far apart.
	ft := NewFastText()
	a2 := ft.EncodeText("River Park Fresno USA")
	b2 := ft.EncodeText("Northern Lake Oil on canvas")
	if sim := vector.Cosine(a2, b2); sim > 0.6 {
		t.Errorf("FastText cross-topic cosine = %v, want < 0.6", sim)
	}
}

func TestAnisotropyPreservesRelativeEuclidean(t *testing.T) {
	// The shared component must not destroy relative euclidean structure:
	// same-topic columns stay closer than cross-topic columns even for the
	// anisotropic models (this is what keeps Table 1 alignment working).
	e := NewRoBERTa()
	park1 := e.EncodeText("river park west lawn hyde park park park")
	park2 := e.EncodeText("chippewa park lawler park river park")
	paint := e.EncodeText("oil canvas mixed media 91 121 centimeters")
	dSame := vector.Euclidean(park1, park2)
	dCross := vector.Euclidean(park1, paint)
	if dSame >= dCross {
		t.Errorf("euclidean same-topic %v >= cross-topic %v", dSame, dCross)
	}
}

func TestWithOptions(t *testing.T) {
	e := NewBERT(WithDim(32), WithAnisotropy(0), WithNoise(0))
	if e.Dim() != 32 {
		t.Errorf("Dim = %d, want 32", e.Dim())
	}
	v := e.EncodeText("hello world")
	if len(v) != 32 {
		t.Errorf("embedding len = %d, want 32", len(v))
	}
}

func TestTupleTokensTagHeaders(t *testing.T) {
	toks := TupleTokens([]string{"Park"}, []string{"park"})
	if len(toks) != 2 || toks[0] != "h:park" || toks[1] != "park" {
		t.Errorf("TupleTokens = %v, want [h:park park]", toks)
	}
}

func TestEncodeTupleSensitiveToValues(t *testing.T) {
	e := NewSBERT()
	h := []string{"Park Name", "Country"}
	a := e.EncodeTuple(h, []string{"River Park", "USA"})
	b := e.EncodeTuple(h, []string{"River Park", "USA"})
	c := e.EncodeTuple(h, []string{"Hyde Park", "UK"})
	if vector.Euclidean(a, b) != 0 {
		t.Error("identical tuples embedded differently")
	}
	if vector.Euclidean(a, c) == 0 {
		t.Error("different tuples embedded identically")
	}
}

func TestCellLevelColumnEncoder(t *testing.T) {
	col := &table.Column{Name: "Country", Values: []string{"USA", "USA", "UK"}}
	enc := CellLevel{Model: NewFastText()}
	// The corpus is never asked for: cells are encoded one by one.
	noCorpus := func() *tokenize.Corpus { t.Error("CellLevel called the corpus"); return nil }
	v, pure := enc.EncodeColumn(col, noCorpus)
	if !pure {
		t.Error("CellLevel vector reported corpus-dependent")
	}
	if len(v) != enc.Dim() {
		t.Fatalf("dim = %d, want %d", len(v), enc.Dim())
	}
	if enc.Name() != "cell/fasttext" {
		t.Errorf("Name = %q", enc.Name())
	}
	if want := "cell/" + enc.Model.Fingerprint(); enc.Fingerprint() != want {
		t.Errorf("Fingerprint = %q, want %q", enc.Fingerprint(), want)
	}
	// All-null column still embeds.
	nullCol := &table.Column{Name: "x", Values: []string{table.Null, table.Null}}
	nv, _ := enc.EncodeColumn(nullCol, nil)
	if math.Abs(vector.Norm(nv)-1) > 1e-9 {
		t.Error("all-null column embedding not unit norm")
	}
}

func TestColumnLevelUsesBudget(t *testing.T) {
	// Build a column whose token count exceeds the budget and check the
	// encoder still produces a stable vector.
	vals := make([]string, 0, 600)
	for i := 0; i < 600; i++ {
		vals = append(vals, "value"+string(rune('a'+i%26))+"x"+string(rune('a'+(i/26)%26)))
	}
	col := &table.Column{Name: "big", Values: vals}
	var corpus tokenize.Corpus
	corpus.AddDocument(ColumnTokens(col))
	enc := ColumnLevel{Model: NewRoBERTa()}
	asked := 0
	lazy := func() *tokenize.Corpus { asked++; return &corpus }
	v1, pure1 := enc.EncodeColumn(col, lazy)
	v2, _ := enc.EncodeColumn(col, lazy)
	if vector.Euclidean(v1, v2) != 0 {
		t.Error("column-level encoding nondeterministic")
	}
	if pure1 || asked != 2 {
		t.Errorf("over-budget column: pure=%v after %d corpus calls, want false and one call an encode", pure1, asked)
	}
	// Without a corpus there is no selection, and nothing was consulted.
	if all, pure := enc.EncodeColumn(col, nil); !pure || vector.Euclidean(all, v1) == 0 {
		t.Errorf("nil corpus: pure=%v, same vector as the budgeted one=%v", pure, vector.Euclidean(all, v1) == 0)
	}
	// Within budget the corpus is not asked for and the vector is the
	// column's alone — what lets align.EmbedColumns keep it.
	small := &table.Column{Name: "big", Values: vals[:100]}
	asked = 0
	s1, pure := enc.EncodeColumn(small, lazy)
	s2, _ := enc.EncodeColumn(small, nil)
	if !pure || asked != 0 || vector.Euclidean(s1, s2) != 0 {
		t.Errorf("within-budget column: pure=%v, %d corpus calls, corpus moved the vector=%v", pure, asked, vector.Euclidean(s1, s2) != 0)
	}
}

// TestColumnEncoderFingerprintIsFull: Name is a label two differently
// configured encoders share; Fingerprint tells them apart.
func TestColumnEncoderFingerprintIsFull(t *testing.T) {
	a := ColumnLevel{Model: NewRoBERTa()}
	b := ColumnLevel{Model: NewRoBERTa(WithAnisotropy(0.05))}
	if a.Name() != b.Name() {
		t.Fatalf("names differ: %q vs %q", a.Name(), b.Name())
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Errorf("fingerprints equal across anisotropy: %q", a.Fingerprint())
	}
	if c := (CellLevel{Model: a.Model}); c.Fingerprint() == a.Fingerprint() {
		t.Errorf("cell- and column-level share fingerprint %q", c.Fingerprint())
	}
}

func TestColumnLevelSeparatesTopics(t *testing.T) {
	parks1 := &table.Column{Name: "Park Name", Values: []string{"River Park", "West Lawn Park", "Hyde Park"}}
	parks2 := &table.Column{Name: "Park Name", Values: []string{"Chippewa Park", "Lawler Park", "River Park"}}
	paint := &table.Column{Name: "Painting", Values: []string{"Northern Lake", "Memory Landscape 2"}}
	enc := ColumnLevel{Model: NewRoBERTa()}
	p1, _ := enc.EncodeColumn(parks1, nil)
	p2, _ := enc.EncodeColumn(parks2, nil)
	pt, _ := enc.EncodeColumn(paint, nil)
	if vector.Euclidean(p1, p2) >= vector.Euclidean(p1, pt) {
		t.Errorf("same-topic columns farther (%v) than cross-topic (%v)",
			vector.Euclidean(p1, p2), vector.Euclidean(p1, pt))
	}
}

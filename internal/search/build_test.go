package search

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"dust/internal/datagen"
	"dust/internal/embed"
	"dust/internal/lake"
	"dust/internal/table"
	"dust/internal/tokenize"
	"dust/internal/vector"
)

// TestStarmieBuildMatchesReference holds the one-pass build to a plain
// two-pass reference: over a dirty lake with over-budget tables in
// different chunks (and a table without columns), the build at every
// worker count must store the blocks, codes and big flags, and the corpus,
// of a reference that counts every column in lake order first and then
// encodes each table with EncodeTableColumns against the whole corpus —
// with its own hot set (NewStarmieWithEncoder), with none, with one counted
// over the whole lake and with one counted over another lake. An index
// grown from an empty lake by AddTable, one table at a time, must save the
// same bytes.
func TestStarmieBuildMatchesReference(t *testing.T) {
	l := lake.New("build-test")
	for i, tbl := range dirtyLakeSpec(90).Generate().Tables() {
		if i%40 == 5 {
			l.MustAdd(bigTable(fmt.Sprintf("zz_big_%d", i), int64(11+i)))
		}
		l.MustAdd(tbl)
	}
	l.MustAdd(table.New("zz_nocols"))
	l.MustAdd(bigTable("zz_big_last", 14))

	enc := embed.NewStarmie()
	ref := &tokenize.Corpus{}
	var wantBig []bool
	for _, tbl := range l.Tables() {
		big := false
		for i := range tbl.Columns {
			tokens := embed.ColumnTokens(&tbl.Columns[i])
			ref.AddDocument(tokens)
			big = big || len(tokens) > embed.TokenBudget
		}
		wantBig = append(wantBig, big)
	}
	if !wantBig[5] || !wantBig[len(wantBig)-1] {
		t.Fatal("the lake has no over-budget table where the test put one")
	}
	var wantBlocks [][]float64
	var wantCodes []vector.CodeBlock
	for _, tbl := range l.Tables() {
		var block []float64
		for _, v := range enc.EncodeTableColumns(tbl, func() *tokenize.Corpus { return ref }) {
			block = append(block, v...)
		}
		code := vector.NewCodeBlock(tbl.NumCols(), enc.Dim())
		code.Quantize(block, enc.Dim())
		wantBlocks, wantCodes = append(wantBlocks, block), append(wantCodes, code)
	}

	grown := NewStarmieWithEncoder(lake.New("build-test"), enc)
	for _, tbl := range l.Tables() {
		grown.lake.MustAdd(tbl)
		if err := grown.AddTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	want := saveStarmie(t, grown)

	own := hotSet(enc, l.Tables(), 2)
	defer own.Release()
	other := hotSet(enc, datagen.LakeSpec{Seed: 3, Tables: 40, Rows: 30}.Generate().Tables(), 2)
	defer other.Release()
	if own == nil || other == nil {
		t.Fatal("a sample made no hot set; the variants prove nothing")
	}
	builds := []struct {
		name  string
		build func(workers int) *Starmie
	}{
		{"sampled hot set", func(w int) *Starmie { return NewStarmieWithEncoder(l, enc, WithWorkers(w)) }},
		{"no hot set", func(w int) *Starmie { return buildStarmie(l, enc, nil, applyOptions([]Option{WithWorkers(w)})) }},
		{"hot set of the whole lake", func(w int) *Starmie { return buildStarmie(l, enc, own, applyOptions([]Option{WithWorkers(w)})) }},
		{"hot set of another lake", func(w int) *Starmie { return buildStarmie(l, enc, other, applyOptions([]Option{WithWorkers(w)})) }},
	}
	for _, workers := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprint(workers), func(t *testing.T) {
			for _, b := range builds {
				s := b.build(workers)
				if s.corpus.NumDocs() != ref.NumDocs() {
					t.Errorf("%s: corpus NumDocs = %d, want %d", b.name, s.corpus.NumDocs(), ref.NumDocs())
				}
				if got, want := docFreqs(s.corpus), docFreqs(ref); !maps.Equal(got, want) {
					t.Errorf("%s: corpus holds %d document frequencies, want %d, or they differ", b.name, len(got), len(want))
				}
				for i, e := range s.idx.entries {
					if e.t != l.Tables()[i] {
						t.Fatalf("%s: entry %d is %q, want %q", b.name, i, e.t.Name, l.Tables()[i].Name)
					}
					if e.big != wantBig[i] {
						t.Errorf("%s: %s: big = %v, want %v", b.name, e.t.Name, e.big, wantBig[i])
					}
					if !sameBits(e.block, wantBlocks[i]) {
						t.Errorf("%s: %s: block differs from the reference encoding", b.name, e.t.Name)
					}
					if !slices.Equal(e.code.K, wantCodes[i].K) || !sameScale(e.code.S, wantCodes[i].S) {
						t.Errorf("%s: %s: codes differ from the reference block's", b.name, e.t.Name)
					}
				}
				if !bytes.Equal(saveStarmie(t, s), want) {
					t.Errorf("%s: Save bytes differ from those of the index grown by AddTable", b.name)
				}
			}
		})
	}
}

// TestBuildHotSetDerivations pins what the hot set saves and that it lives
// only for the build. A 2 000 x 20 lake with the benchmark's knobs reads
// ≈ 690 k token, class, bigram and noise vectors; at two workers the build
// derived 209–215 k of them without a hot set and 82–83 k with one (the
// 2 000 x 12 shape: 122–134 k against 61–63 k; the benchmark's wide lake,
// 8 000 x 12: 528–531 k against ≈ 162 k). The bound is half the lower
// measurement without one. TokenVectorBytes is the same before and after a
// build: the set's 4 MB are counted while the build runs and released as it
// returns.
func TestBuildHotSetDerivations(t *testing.T) {
	spec, err := datagen.ParseLakeSpec("tables=2000,rows=20,seed=7,zipf=1.5,parents=11,fk=0.3,null=0.01")
	if err != nil {
		t.Fatal(err)
	}
	l := spec.Generate()
	NewStarmie(l, WithWorkers(2)) // brings the spare tables a two-worker build takes into being
	b0 := embed.TokenVectorBytes()
	_, m0 := embed.TokenVectorStats()
	NewStarmie(l, WithWorkers(2))
	_, m1 := embed.TokenVectorStats()
	if b1 := embed.TokenVectorBytes(); b1 != b0 {
		t.Errorf("TokenVectorBytes = %d after the build, %d before", b1, b0)
	}
	const before = 209_000
	t.Logf("%d derivations", m1-m0)
	if m1-m0 > before/2 {
		t.Errorf("the build derived %d token vectors, want at most %d, half of the %d before the hot set", m1-m0, before/2, before)
	}
}

// docFreqs is c's document frequencies as a map.
func docFreqs(c *tokenize.Corpus) map[string]int {
	out := map[string]int{}
	c.DocFreqs(func(tok string, df int) { out[tok] = df })
	return out
}

// sameBits reports whether two blocks are bit-identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

package search

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"dust/internal/embed"
	"dust/internal/lake"
	"dust/internal/table"
	"dust/internal/tokenize"
	"dust/internal/vector"
)

// TestStarmieBuildMatchesReference holds the one-pass build to a plain
// two-pass reference: over a dirty lake with over-budget tables in
// different chunks (and a table without columns), NewStarmie at every
// worker count must store the blocks, codes and big flags, and the corpus,
// of a reference that counts every column in lake order first and then
// encodes each table with EncodeTableColumns against the whole corpus. An
// index grown from an empty lake by AddTable, one table at a time, must
// save the same bytes.
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

	for _, workers := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprint(workers), func(t *testing.T) {
			s := NewStarmieWithEncoder(l, enc, WithWorkers(workers))
			if s.corpus.NumDocs() != ref.NumDocs() {
				t.Errorf("corpus NumDocs = %d, want %d", s.corpus.NumDocs(), ref.NumDocs())
			}
			if got, want := docFreqs(s.corpus), docFreqs(ref); !maps.Equal(got, want) {
				t.Errorf("corpus holds %d document frequencies, want %d, or they differ", len(got), len(want))
			}
			for i, e := range s.idx.entries {
				if e.t != l.Tables()[i] {
					t.Fatalf("entry %d is %q, want %q", i, e.t.Name, l.Tables()[i].Name)
				}
				if e.big != wantBig[i] {
					t.Errorf("%s: big = %v, want %v", e.t.Name, e.big, wantBig[i])
				}
				if !sameBits(e.block, wantBlocks[i]) {
					t.Errorf("%s: block differs from the reference encoding", e.t.Name)
				}
				if !slices.Equal(e.code.K, wantCodes[i].K) || !sameScale(e.code.S, wantCodes[i].S) {
					t.Errorf("%s: codes differ from the reference block's", e.t.Name)
				}
			}
			if !bytes.Equal(saveStarmie(t, s), want) {
				t.Error("Save bytes differ from those of the index grown by AddTable")
			}
		})
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

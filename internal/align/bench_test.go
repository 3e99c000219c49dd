package align

import (
	"sync"
	"testing"

	"dust/internal/datagen"
	"dust/internal/embed"
	"dust/internal/table"
)

// benchUniverse is the alignment input of one balanced-workload search: a
// generated query and the ten lake tables a search keeps, 40 rows each.
func benchUniverse() (*table.Table, []*table.Table) {
	spec := datagen.LakeSpec{Seed: 7, Tables: 60, Rows: 40}
	tabs := make([]*table.Table, 10)
	for i := range tabs {
		tabs[i] = spec.Table(i)
	}
	return spec.Query(0), tabs
}

var benchCols []Column

// BenchmarkEmbedColumns is the micro view of the traced benchmark's
// align.embed_columns_p50_ms, with the pipeline's column encoder over the query
// and ten tables: cold embeds table objects the memo has never seen (every
// lake column is encoded, none read back — a request's worst case), warm the
// same objects again (only the query's columns are encoded — what the traced
// replay measures), overbudget a warm universe in which one 600-token column
// forces the corpus pass and its own TF-IDF selection on every request.
func BenchmarkEmbedColumns(b *testing.B) {
	enc := embed.ColumnLevel{Model: embed.NewRoBERTa()}
	q, tabs := benchUniverse()
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			_, fresh := benchUniverse()
			b.StartTimer()
			benchCols = EmbedColumns(q, fresh, enc)
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchCols = EmbedColumns(q, tabs, enc)
		}
	})
	b.Run("overbudget", func(b *testing.B) {
		big := &table.Table{Name: "big", Columns: []table.Column{{Name: "Description", Values: words(0, 600)}}}
		withBig := append([]*table.Table{big}, tabs...)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchCols = EmbedColumns(q, withBig, enc)
		}
	})
}

// TestEmbedColumnsConcurrentEncodeTokens: requests embed their universes side
// by side in a server, more of them than the encode kernel has token-vector
// tables; each must get the bits a lone request gets.
func TestEmbedColumnsConcurrentEncodeTokens(t *testing.T) {
	q, tabs := benchUniverse()
	enc := embed.ColumnLevel{Model: embed.NewRoBERTa()}
	want := EmbedColumns(q, tabs, enc)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if msg := diffBits(EmbedColumns(q, tabs, enc), want); msg != "" {
				t.Errorf("differs from the sequential embedding: %s", msg)
			}
		}()
	}
	wg.Wait()
}

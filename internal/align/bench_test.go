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
// align.embed_columns_p50_ms: corpus pass plus one encode per column of the
// query and ten tables, with the pipeline's column encoder.
func BenchmarkEmbedColumns(b *testing.B) {
	q, tabs := benchUniverse()
	enc := embed.ColumnLevel{Model: embed.NewRoBERTa()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchCols = EmbedColumns(q, tabs, enc)
	}
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
			got := EmbedColumns(q, tabs, enc)
			if len(got) != len(want) {
				t.Errorf("universe of %d columns, want %d", len(got), len(want))
				return
			}
			for i := range got {
				for j := range got[i].Vec {
					if got[i].Vec[j] != want[i].Vec[j] {
						t.Errorf("column %d (%s.%s) differs from the sequential embedding", i, got[i].Table, got[i].Name)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

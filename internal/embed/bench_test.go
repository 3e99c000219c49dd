package embed

import (
	"fmt"
	"testing"

	"dust/internal/table"
	"dust/internal/vector"
)

var benchSink vector.Vec

// benchColumn is a lake-shaped column: a two-word header and rows values
// drawn with repeats from a vocabulary of about a third as many words.
func benchColumn(rows int) *table.Column {
	col := &table.Column{Name: "Park Name"}
	for i := 0; i < rows; i++ {
		col.Values = append(col.Values, fmt.Sprintf("name%d park%d", (i*i)%(rows/3+1), i%7))
	}
	return col
}

// benchStreams are the three stream shapes a search feeds the kernel: one
// unioned tuple, and a column of the balanced (40 rows) and the tall (120
// rows) lake.
func benchStreams() map[string][]string {
	return map[string][]string{
		"tuple": TupleTokens(
			[]string{"Park Name", "Supervisor", "City", "Country"},
			[]string{"River Park", "Vera Onate", "Fresno", "USA"}),
		"column40":  ColumnTokens(benchColumn(40)),
		"column120": ColumnTokens(benchColumn(120)),
	}
}

// BenchmarkEncodeTokens is the micro view of the traced benchmark's
// align.embed_columns_p50_ms (column40, column120) and
// model.encode_tuples_p50_ms (tuple): one warm call of the encode kernel per
// iteration at the served dimension, under each body the host can run. It
// reports the vectors derived per call and the call's time per derived vector.
func BenchmarkEncodeTokens(b *testing.B) {
	enc := NewRoBERTa()
	streams := benchStreams()
	for _, name := range []string{"tuple", "column40", "column120"} {
		tokens := streams[name]
		run := func(b *testing.B) {
			b.ReportAllocs()
			_, m0 := TokenVectorStats()
			for i := 0; i < b.N; i++ {
				benchSink = enc.EncodeTokens(tokens)
			}
			_, m1 := TokenVectorStats()
			b.ReportMetric(float64(m1-m0)/float64(b.N), "misses/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(m1-m0), "ns/derived")
		}
		b.Run(name+"/"+vector.CosineKernel(), run)
		if vector.CosineKernel() != "generic" {
			restore := vector.ForceGenericKernel()
			b.Run(name+"/generic", run)
			restore()
		}
	}
}

// BenchmarkEncodeTokensParallel is run with -cpu 1,2,8: with more goroutines
// encoding than tables exist (one per processor at start-up), the surplus
// calls take the one-slot table, and bytes per call must stay in the
// kilobytes instead of jumping by a table's half megabyte.
func BenchmarkEncodeTokensParallel(b *testing.B) {
	enc := NewRoBERTa()
	tokens := benchStreams()["tuple"]
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			enc.EncodeTokens(tokens)
		}
	})
}

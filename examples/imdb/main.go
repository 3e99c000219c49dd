// IMDB: the paper's §6.6 case study. Over a movie data lake, it compares
// how many NEW values each method adds to the query table's columns as k
// grows — Starmie's similarity ranking keeps re-retrieving rows the query
// already has, while DUST maximizes novel content.
package main

import (
	"fmt"
	"log"

	"dust"
	"dust/internal/datagen"
	"dust/internal/experiments/baselines"
	"dust/internal/table"
)

func main() {
	b := datagen.IMDB()
	q := b.Queries[0]
	fmt.Printf("query: %s (%d rows); lake: %d movie tables\n\n", q.Name, q.NumRows(), b.Lake.Len())

	pipe := dust.New(b.Lake)
	starmie := baselines.NewTupleSearch(b.Lake.Tables(), 0)

	fmt.Printf("%-4s %-10s %-14s %-14s\n", "k", "method", "new titles", "new languages")
	for _, k := range []int{10, 20, 30} {
		// DUST pipeline.
		res, err := pipe.Search(q, k)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-4d %-10s %-14d %-14d\n", k, "dust",
			countNew(q, res.Tuples, 0), countNew(q, res.Tuples, 3))

		// Starmie tuple search (similarity ranking).
		hits := starmie.TopK(q, k)
		st := table.New("starmie", q.Headers()...)
		for _, h := range hits {
			row := make(table.Tuple, q.NumCols())
			for i := 0; i < q.NumCols() && i < h.Table.NumCols(); i++ {
				row[i] = h.Table.Cell(h.Row, i)
			}
			st.MustAppendRow(row...)
		}
		fmt.Printf("%-4d %-10s %-14d %-14d\n", k, "starmie",
			countNew(q, st, 0), countNew(q, st, 3))
	}
	fmt.Println("\n(columns: 0 = Title, 3 = Language; see dustbench -exp fig8 for the full sweep)")
}

// countNew counts distinct values in column col of result that are absent
// from the query's column col.
func countNew(q, result *table.Table, col int) int {
	have := map[string]bool{}
	for _, v := range q.Columns[col].Values {
		have[v] = true
	}
	added := map[string]bool{}
	for _, v := range result.Columns[col].Values {
		if v != table.Null && !have[v] {
			added[v] = true
		}
	}
	return len(added)
}

package experiments

import (
	"dust/internal/datagen"
	"dust/internal/experiments/baselines"
	"dust/internal/search"
	"dust/internal/table"
)

// unionInRankOrder implements the §6.6 baseline protocol: (bag-)union the
// ranked output tables with the query schema, using the benchmark's
// origin ground truth for column correspondence, until at least k tuples
// are collected; then take the first k (SQL LIMIT k). With dedup=true the
// set-union variants (D3L-D / Starmie-D) drop duplicate tuples first.
func unionInRankOrder(b *datagen.Benchmark, q *table.Table, ranked []search.Scored, k int, dedup bool) *table.Table {
	qOrigins := b.Origins[q.Name]
	out := table.New("union", q.Headers()...)
	seen := map[string]bool{}
	for _, hit := range ranked {
		t := hit.Table
		tOrigins := b.Origins[t.Name]
		// Map each query column to the table's column with equal origin.
		colMap := make([]int, q.NumCols())
		for qi := range colMap {
			colMap[qi] = -1
			for ci := range tOrigins {
				if qi < len(qOrigins) && tOrigins[ci] == qOrigins[qi] {
					colMap[qi] = ci
					break
				}
			}
		}
		for r := 0; r < t.NumRows(); r++ {
			row := make(table.Tuple, q.NumCols())
			for qi, ci := range colMap {
				if ci >= 0 {
					row[qi] = t.Cell(r, ci)
				} else {
					row[qi] = table.Null
				}
			}
			if dedup {
				key := rowKey(row)
				if seen[key] {
					continue
				}
				seen[key] = true
			}
			out.MustAppendRow(row...)
		}
		if out.NumRows() >= k {
			break
		}
	}
	if out.NumRows() > k {
		limited, _ := out.Select("union", firstN(k))
		return limited
	}
	return out
}

func rowKey(row table.Tuple) string {
	key := ""
	for _, c := range row {
		key += c + "\x1f"
	}
	return key
}

func firstN(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// newValues counts how many distinct values a result adds to one query
// column (values not already present in the query).
func newValues(q, result *table.Table, col int) int {
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

// Fig8 reproduces the IMDB case study: the number of novel values each
// method adds to the query's Title, Language, and Filming Location columns
// as k grows, for D3L, D3L-D, Starmie, Starmie-D, and DUST.
func Fig8(cfg Config) *Report {
	dustModel, _, _, _ := Models()
	b := benchIMDB()
	q := b.Queries[0]

	kValues := []int{10, 20, 30, 40, 50}
	if cfg.Quick {
		kValues = []int{10, 30}
	}
	starmie := search.NewStarmie(b.Lake)
	d3l := baselines.NewD3L(b.Lake, 0)
	pipe := pipelineFor(b, dustModel)

	cols := []string{"Title", "Language", "Filming Location"}
	colIdx := make([]int, len(cols))
	for i, c := range cols {
		colIdx[i] = q.ColumnIndex(c)
		if colIdx[i] < 0 {
			// Header may have been renamed during generation; fall back to
			// position (movies schema order: Title=0, Language=3, Loc=4).
			colIdx[i] = []int{0, 3, 4}[i]
		}
	}

	r := &Report{
		Title:   "Fig. 8 — IMDB case study: novel values added per column",
		Columns: []string{"k", "Method", cols[0], cols[1], cols[2]},
	}
	type method struct {
		name string
		run  func(k int) *table.Table
	}
	methods := []method{
		{"d3l", func(k int) *table.Table {
			return unionInRankOrder(b, q, d3l.TopK(q, 0), k, false)
		}},
		{"d3l-d", func(k int) *table.Table {
			return unionInRankOrder(b, q, d3l.TopK(q, 0), k, true)
		}},
		{"starmie", func(k int) *table.Table {
			return unionInRankOrder(b, q, search.TopK(starmie, q, 0), k, false)
		}},
		{"starmie-d", func(k int) *table.Table {
			return unionInRankOrder(b, q, search.TopK(starmie, q, 0), k, true)
		}},
		{"dust", func(k int) *table.Table {
			res, err := pipe.Search(q, k)
			if err != nil {
				return table.New("empty", q.Headers()...)
			}
			return res.Tuples
		}},
	}

	dustTitles := map[int]int{}
	starmieDTitles := map[int]int{}
	for _, k := range kValues {
		for _, m := range methods {
			result := m.run(k)
			row := []string{d(k), m.name}
			for ci, qi := range colIdx {
				n := newValues(q, result, qi)
				row = append(row, d(n))
				if ci == 0 {
					switch m.name {
					case "dust":
						dustTitles[k] = n
					case "starmie-d":
						starmieDTitles[k] = n
					}
				}
			}
			r.AddRow(row...)
		}
	}
	kMax := kValues[len(kValues)-1]
	r.Note("paper shape: DUST adds ~25%% more unique titles than Starmie-D; D3L and Starmie add similar counts")
	r.Note("shape dust >= starmie-d on titles at k=%d: %s (%d vs %d)", kMax,
		passFail(dustTitles[kMax] >= starmieDTitles[kMax]), dustTitles[kMax], starmieDTitles[kMax])
	return r
}

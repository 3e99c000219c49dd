package baselines

import (
	"dust/internal/datagen"
	"dust/internal/search"
	"dust/internal/table"
)

// MAP computes Mean Average Precision of a table ranking against a
// benchmark's unionability ground truth, retrieving k results per query
// with topK — a ranker's TopK method, or search.TopK bound to a Searcher
// (§6.5.2). k <= 0 scores topK's full ranking, so each query's average
// precision is taken over all of its unionable tables.
func MAP(topK func(q *table.Table, k int) []search.Scored, b *datagen.Benchmark, k int) float64 {
	if len(b.Queries) == 0 {
		return 0
	}
	var sum float64
	for _, q := range b.Queries {
		truth := map[string]bool{}
		for _, n := range b.Unionable[q.Name] {
			truth[n] = true
		}
		if len(truth) == 0 {
			continue
		}
		hits := 0
		var ap float64
		for i, sc := range topK(q, k) {
			if truth[sc.Table.Name] {
				hits++
				ap += float64(hits) / float64(i+1)
			}
		}
		denom := len(truth)
		if k > 0 {
			denom = min(denom, k)
		}
		sum += ap / float64(denom)
	}
	return sum / float64(len(b.Queries))
}

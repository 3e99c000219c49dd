package baselines

import (
	"context"
	"sort"

	"dust/internal/embed"
	"dust/internal/par"
	"dust/internal/table"
	"dust/internal/vector"
)

// ScoredTuple is a tuple-level search hit.
type ScoredTuple struct {
	Table *table.Table
	Row   int
	Score float64
}

// TupleSearch adapts Starmie to tuple retrieval the way the paper does for
// the Table 3 baseline: "we index each tuple in the data lake as a separate
// table and search for the top-k tables" (§6.5.1). Each tuple is embedded
// with the Starmie base model; a tuple's score is its maximum similarity to
// any query tuple, so the top of the ranking is dominated by tuples most
// similar to — often identical to — the query's own rows, which is exactly
// the redundancy phenomenon DUST addresses. Like D3L it is an evaluation
// object: built once, asked for rankings.
type TupleSearch struct {
	enc     *embed.Encoder
	workers int
	tuples  []ScoredTuple // score unused at index time
	vecs    []vector.Vec
}

// NewTupleSearch indexes every tuple of the given tables with at most
// workers goroutines (<= 0: the GOMAXPROCS default). Embedding runs as one
// parallel map over the flattened (headers, row) work list so the full
// worker budget applies even when the lake is many small tables.
func NewTupleSearch(tables []*table.Table, workers int) *TupleSearch {
	ts := &TupleSearch{enc: embed.NewRoBERTa(), workers: workers}
	type job struct {
		headers []string
		row     []string
	}
	var jobs []job
	for _, t := range tables {
		headers := t.Headers()
		for r := 0; r < t.NumRows(); r++ {
			ts.tuples = append(ts.tuples, ScoredTuple{Table: t, Row: r})
			jobs = append(jobs, job{headers, t.Row(r)})
		}
	}
	ts.vecs = par.Map(ts.workers, len(jobs), func(i int) vector.Vec {
		return ts.enc.EncodeTuple(jobs[i].headers, jobs[i].row)
	})
	return ts
}

// Name identifies the baseline in experiment output.
func (ts *TupleSearch) Name() string { return "starmie-tuples" }

// Len returns the number of indexed tuples.
func (ts *TupleSearch) Len() int { return len(ts.tuples) }

// TopK returns the k indexed tuples most similar to the query table's
// tuples, ranked by their best similarity to any query tuple; k <= 0
// returns the full ranking. The query's tuples are embedded once, and
// per-tuple scores are written by tuple index, so the stable sort sees the
// same input for every worker count.
func (ts *TupleSearch) TopK(query *table.Table, k int) []ScoredTuple {
	headers := query.Headers()
	rows := make([][]string, query.NumRows())
	for r := range rows {
		rows[r] = query.Row(r)
	}
	qVecs, _ := ts.enc.EncodeTupleBatch(context.Background(), headers, rows, ts.workers) // never cancelled, so no error
	out := make([]ScoredTuple, len(ts.tuples))
	par.For(ts.workers, len(out), func(i int) {
		tu := ts.tuples[i]
		for _, qv := range qVecs {
			if sim := vector.Cosine(qv, ts.vecs[i]); sim > tu.Score {
				tu.Score = sim
			}
		}
		out[i] = tu
	})
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

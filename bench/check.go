package main

import (
	"encoding/json"
	"fmt"
	"slices"

	"dust"
	"dust/internal/diversify"
	"dust/internal/embed"
	"dust/internal/model"
	"dust/internal/table"
	"dust/internal/vector"
)

// searchResponse is the wire form of a 200 from POST /search.
type searchResponse struct {
	Cached     bool      `json:"cached"`
	Tables     []string  `json:"tables"`
	Pool       int       `json:"pool"`
	Tuples     tableWire `json:"tuples"`
	Provenance []struct {
		Table string `json:"table"`
		Row   int    `json:"row"`
	} `json:"provenance"`
}

// answer is what the benchmark keeps of one checked 200: who served it and
// the quality of its tuples.
type answer struct {
	searchResponse
	avgDiversity float64
	novel, total int // tuples that copy no query row, and all tuples
}

// checker validates search answers and scores their quality. Answers repeat
// (a closed loop cycles a pool over an unchanging lake), so results are
// kept by response body.
type checker struct {
	in   *inputs
	enc  model.TupleEncoder
	seen map[string]*answer
}

func newChecker(in *inputs) *checker {
	// The pipeline's default tuple encoder (dust.New), so avg_diversity is
	// measured in the space the served diversifier worked in.
	return &checker{in: in, enc: embed.NewRoBERTa(embed.WithAnisotropy(0.05)),
		seen: map[string]*answer{}}
}

// check validates one 200 body for query q: at most k tuples in the query's
// schema, each with provenance naming a row of a lake table that holds the
// tuple's cells.
func (c *checker) check(q *query, body []byte) (*answer, error) {
	key := fmt.Sprintf("%d\x00%s", q.index, body)
	if a, ok := c.seen[key]; ok {
		return a, nil
	}
	a := &answer{}
	if err := json.Unmarshal(body, &a.searchResponse); err != nil {
		return nil, fmt.Errorf("query %d: bad response: %v", q.index, err)
	}
	rows := a.Tuples.Rows
	switch {
	case len(rows) == 0 || len(rows) > topK:
		return nil, fmt.Errorf("query %d: %d tuples for k=%d", q.index, len(rows), topK)
	case len(a.Provenance) != len(rows):
		return nil, fmt.Errorf("query %d: %d tuples but %d provenance entries", q.index, len(rows), len(a.Provenance))
	case !slices.Equal(a.Tuples.Headers, q.Headers):
		return nil, fmt.Errorf("query %d: tuples have schema %q, query has %q", q.index, a.Tuples.Headers, q.Headers)
	}
	for i, row := range rows {
		p := a.Provenance[i]
		src := c.in.lakeTable(p.Table)
		if src == nil || p.Row < 0 || p.Row >= src.NumRows() {
			return nil, fmt.Errorf("query %d: tuple %d names %s row %d, which the lake does not hold", q.index, i, p.Table, p.Row)
		}
		if len(row) != len(q.Headers) {
			return nil, fmt.Errorf("query %d: tuple %d has %d cells for %d columns", q.index, i, len(row), len(q.Headers))
		}
		srcRow := src.Row(p.Row)
		for _, cell := range row {
			if cell != table.Null && !slices.Contains(srcRow, cell) {
				return nil, fmt.Errorf("query %d: tuple %d cell %q is not in %s row %d", q.index, i, cell, p.Table, p.Row)
			}
		}
		if !slices.ContainsFunc(q.Rows, func(qr []string) bool { return slices.Equal(qr, row) }) {
			a.novel++
		}
	}
	a.total = len(rows)
	eq := model.EncodeBatch(c.enc, q.Headers, q.Rows, 1)
	et := model.EncodeBatch(c.enc, q.Headers, rows, 1)
	a.avgDiversity = diversify.AverageDiversity(eq, et, vector.CosineDistance)
	c.seen[key] = a
	return a, nil
}

// sameResult reports whether a served answer equals the in-process result:
// same unionable tables, same pool size, same tuples with the same
// provenance, in the same order.
func sameResult(a *answer, want *dust.Result) error {
	switch {
	case !slices.Equal(a.Tables, want.UnionableTables):
		return fmt.Errorf("served tables %v, in-process %v", a.Tables, want.UnionableTables)
	case a.Pool != want.Unioned.NumRows():
		return fmt.Errorf("served pool %d, in-process %d", a.Pool, want.Unioned.NumRows())
	case len(a.Tuples.Rows) != want.Tuples.NumRows():
		return fmt.Errorf("served %d tuples, in-process %d", len(a.Tuples.Rows), want.Tuples.NumRows())
	}
	for i, row := range a.Tuples.Rows {
		p, wp := a.Provenance[i], want.Provenance[i]
		if !slices.Equal(row, []string(want.Tuples.Row(i))) || p.Table != wp.Table || p.Row != wp.Row {
			return fmt.Errorf("tuple %d: served %v from %s/%d, in-process %v from %s/%d",
				i, row, p.Table, p.Row, want.Tuples.Row(i), wp.Table, wp.Row)
		}
	}
	return nil
}

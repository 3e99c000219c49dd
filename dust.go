// Package dust is the public API of the DUST reproduction: Diverse
// Unionable Tuple Search over data lakes (Khatiwada, Shraga, Miller,
// EDBT 2026). Given a query table, a Pipeline discovers unionable tables in
// a lake, aligns their columns holistically to the query schema,
// outer-unions them into unionable tuples, embeds every tuple, and returns
// the k tuples that are most diverse with respect to the query table and
// each other (Algorithm 1 of the paper).
//
// The building blocks live in internal packages and are assembled here:
//
//	lk, _ := lake.Load("my-lake-dir")     // or build one in memory
//	p := dust.New(lk)                     // defaults: Starmie search + DUST diversifier
//	res, err := p.Search(queryTable, 50)  // 50 diverse unionable tuples
//
// The zero-config pipeline uses simulated pre-trained encoders; production
// use fine-tunes a tuple model first (cmd/dusttrain) and installs it with
// WithTupleEncoder.
package dust

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dust/internal/align"
	"dust/internal/diversify"
	"dust/internal/embed"
	"dust/internal/lake"
	"dust/internal/model"
	"dust/internal/par"
	"dust/internal/search"
	"dust/internal/table"
	"dust/internal/vector"
)

// Pipeline wires the four stages of Algorithm 1. Construct with New and
// customize with the With* options.
type Pipeline struct {
	lake        *lake.Lake
	searcher    search.Searcher
	columnEnc   embed.ColumnEncoder
	tupleEnc    model.TupleEncoder
	diversifier *diversify.DUST
	topTables   int
	workers     int
	workersSet  bool
	// epoch counts index mutations (AddTable/RemoveTable) over the
	// pipeline's lifetime; see Epoch in persist.go. Serving layers key
	// result caches by it.
	epoch uint64
}

// Option customizes a Pipeline.
type Option func(*Pipeline)

// WithSearcher replaces the table union searcher (default: Starmie-like).
// The searcher must satisfy the whole search.Searcher contract — the
// pipeline calls all of it, unconditionally — and stays the live index:
// the pipeline queries and mutates s itself, not a copy (except that an
// explicit WithWorkers queries through s.QueryWorkers(n), a view sharing
// s's index).
func WithSearcher(s search.Searcher) Option { return func(p *Pipeline) { p.searcher = s } }

// WithTupleEncoder replaces the tuple embedding model (default: a
// content-dominant pre-trained simulator; install a fine-tuned
// model.Model for the paper's full setup).
func WithTupleEncoder(e model.TupleEncoder) Option { return func(p *Pipeline) { p.tupleEnc = e } }

// defaultTopTables is how many unionable tables the search stage retrieves
// unless WithTopTables says otherwise.
const defaultTopTables = 10

// WithTopTables sets how many unionable tables the search stage retrieves
// before alignment (default: 10). n <= 0 keeps the default: a pipeline
// always unions a bounded number of tables, never the whole lake.
func WithTopTables(n int) Option {
	return func(p *Pipeline) {
		if n > 0 {
			p.topTables = n
		}
	}
}

// WithShards does nothing: the index is one over the whole lake, saved as
// one file. It is kept for the benchmark, whose sharded layer still builds
// its pipeline with it, and so checks the one index against itself.
func WithShards(int) Option { return func(*Pipeline) {} }

// WithWorkers bounds the parallelism of each pipeline stage — lake
// indexing, query scoring, tuple embedding, and the diversifier's distance
// kernels — and the number of queries SearchBatch serves concurrently.
// n <= 0 (the default) derives the bound from GOMAXPROCS; n == 1 forces
// the sequential path. A searcher supplied via WithSearcher is re-bounded
// to n as well. Results are bit-identical for every setting.
func WithWorkers(n int) Option {
	return func(p *Pipeline) { p.workers, p.workersSet = n, true }
}

// New builds a Pipeline over a lake with the paper's default configuration.
func New(l *lake.Lake, opts ...Option) *Pipeline {
	p := &Pipeline{
		lake:        l,
		columnEnc:   embed.ColumnLevel{Model: embed.NewRoBERTa()},
		tupleEnc:    embed.NewRoBERTa(embed.WithAnisotropy(0.05)),
		diversifier: diversify.NewDUST(),
		topTables:   defaultTopTables,
	}
	for _, o := range opts {
		o(p)
	}
	if p.searcher == nil {
		// Built after the options so the default index honours WithWorkers.
		p.searcher = search.NewStarmie(l, search.WithWorkers(p.workers))
	} else if p.workersSet {
		// An explicit WithWorkers also re-bounds a supplied searcher's
		// query-time scoring; without it the searcher keeps its own bound.
		p.searcher = p.searcher.QueryWorkers(p.workers)
	}
	return p
}

// Result is the output of one diverse unionable tuple search.
type Result struct {
	// Tuples holds the k diverse tuples in the query's schema.
	Tuples *table.Table
	// Provenance names the source lake table and row of each result tuple.
	Provenance []table.Provenance
	// UnionableTables lists the lake tables the search stage retrieved.
	UnionableTables []string
	// Unioned is the full set of unionable tuples before diversification
	// (the outer union of the aligned tables).
	Unioned *table.Table
	// UnionedProvenance is index-aligned with Unioned's rows.
	UnionedProvenance []table.Provenance
}

// Search runs Algorithm 1: discover unionable tables, align and
// outer-union them, embed all tuples, and return k diverse ones.
func (p *Pipeline) Search(query *table.Table, k int) (*Result, error) {
	return p.SearchContext(context.Background(), query, k)
}

// SearchContext is Search with a cancellation path: once ctx is cancelled
// or its deadline passes, the pipeline abandons the remaining work — the
// candidate scan, tuple embedding, and the stage boundaries all check ctx —
// and returns an error wrapping ctx.Err() instead of running the query to
// completion. Long-running servers use it to bound per-request latency and
// to stop doing work for clients that have gone away.
func (p *Pipeline) SearchContext(ctx context.Context, query *table.Table, k int) (*Result, error) {
	if query == nil || query.NumCols() == 0 {
		return nil, fmt.Errorf("dust: empty query table")
	}
	if k <= 0 {
		return nil, fmt.Errorf("dust: k must be positive, got %d", k)
	}

	// Line 3: D' <- SearchTables(Q, D).
	hits, err := search.TopKCtx(ctx, p.searcher, query, p.topTables)
	if err != nil {
		return nil, fmt.Errorf("dust: search: %w", err)
	}
	tables := make([]*table.Table, 0, len(hits))
	names := make([]string, 0, len(hits))
	for _, h := range hits {
		tables = append(tables, h.Table)
		names = append(names, h.Table.Name)
	}
	if len(tables) == 0 {
		return nil, fmt.Errorf("dust: no unionable tables found for %s", query.Name)
	}

	// Line 5: T <- AlignColumns(Q, D').
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("dust: align: %w", err)
	}
	tr := search.TraceFrom(ctx)
	tAlign := time.Now()
	cols := align.EmbedColumns(query, tables, p.columnEnc)
	res := align.HolisticWorkers(cols, p.workers)
	headers, mappings, err := res.Mappings(query, tables)
	if err != nil {
		return nil, fmt.Errorf("dust: align: %w", err)
	}
	unioned, prov, err := table.OuterUnion(query.Name+"_unionable", headers, mappings)
	if err != nil {
		return nil, fmt.Errorf("dust: union: %w", err)
	}
	// Drop rows that aligned on too little: a mostly-null tuple has a
	// degenerate embedding that looks maximally "diverse" while carrying
	// almost no information for the query schema. Outer union legitimately
	// pads missing columns (paper §3.3), so the bar is one third of the
	// schema, falling back to any-non-null if nothing clears it.
	keep := coverageRows(unioned, 1.0/3)
	if len(keep) == 0 {
		keep = coverageRows(unioned, 0)
	}
	unioned, prov = filterRows(unioned, prov, keep)
	tr.AddAlign(tAlign)
	if unioned.NumRows() == 0 {
		return nil, fmt.Errorf("dust: alignment produced no unionable tuples for %s", query.Name)
	}

	// Line 7: embed query and data lake tuples, in parallel batches. The
	// tuple embedding joins the query encoding under the trace's encode
	// stage: both derive representations, neither retrieves or ranks.
	tEmbed := time.Now()
	eq, err := model.EncodeBatchContext(ctx, p.tupleEnc, headers, tableRows(query), p.workers)
	if err != nil {
		return nil, fmt.Errorf("dust: embed: %w", err)
	}
	et, err := model.EncodeBatchContext(ctx, p.tupleEnc, headers, tableRows(unioned), p.workers)
	if err != nil {
		return nil, fmt.Errorf("dust: embed: %w", err)
	}
	tr.AddEncode(tEmbed)
	groups := make([]int, unioned.NumRows())
	groupIDs := map[string]int{}
	for i := range groups {
		g, ok := groupIDs[prov[i].Table]
		if !ok {
			g = len(groupIDs)
			groupIDs[prov[i].Table] = g
		}
		groups[i] = g
	}

	// Line 8: F <- DiversifyTuples(EQ, ET, k).
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("dust: diversify: %w", err)
	}
	tDiv := time.Now()
	idx := p.diversifier.Select(diversify.Problem{
		Query: eq, Tuples: et, Groups: groups, K: k, Dist: vector.CosineDistance,
		Workers: p.workers,
	})
	tr.AddDiversify(tDiv)

	out := table.New(query.Name+"_diverse", headers...)
	outProv := make([]table.Provenance, 0, len(idx))
	for _, i := range idx {
		if err := out.AppendRow(unioned.Row(i)); err != nil {
			return nil, err
		}
		outProv = append(outProv, prov[i])
	}
	return &Result{
		Tuples:            out,
		Provenance:        outProv,
		UnionableTables:   names,
		Unioned:           unioned,
		UnionedProvenance: prov,
	}, nil
}

// SearchBatch serves many queries against the same lake concurrently over
// a bounded worker pool of WithWorkers size (the pool suits the irregular
// per-query cost better than static chunking). The worker budget shifts
// from data parallelism to query parallelism: each query's alignment,
// embedding, diversification, and scoring kernels run sequentially so the
// batch as a whole stays within the WithWorkers bound instead of
// multiplying it. Results are index-aligned with queries; a query that
// fails leaves a nil slot and contributes its error — wrapped with the
// query's position and name — to the joined error. Each result is identical
// to what a lone Search call would return.
func (p *Pipeline) SearchBatch(queries []*table.Table, k int) ([]*Result, error) {
	return p.SearchBatchContext(context.Background(), queries, k)
}

// SearchBatchContext is SearchBatch with a cancellation path: once ctx is
// cancelled, queries not yet started fail immediately and queries in flight
// abandon their remaining stages (see SearchContext), each contributing an
// error wrapping ctx.Err() to the joined error. Already-completed results
// keep their slots.
func (p *Pipeline) SearchBatchContext(ctx context.Context, queries []*table.Table, k int) ([]*Result, error) {
	inner := p.QueryBound(1)
	results := make([]*Result, len(queries))
	errs := make([]error, len(queries))
	pool := par.NewPool(p.workers)
	defer pool.Close()
	for i := range queries {
		i := i
		pool.Submit(func() {
			res, err := inner.SearchContext(ctx, queries[i], k)
			if err != nil {
				name := "<nil>"
				if queries[i] != nil {
					name = queries[i].Name
				}
				err = fmt.Errorf("query %d (%s): %w", i, name, err)
			}
			results[i], errs[i] = res, err
		})
	}
	pool.Wait()
	return results, errors.Join(errs...)
}

// ConfigTag returns a stable tag of the pipeline's query-shaping
// configuration: searcher, column encoder, tuple encoder, and diversifier
// names plus the top-tables bound. Two pipelines with equal tags, equal
// epochs, and the same lake rank any query identically, which is what lets
// a serving cache key results by (query fingerprint, k, tag, epoch).
func (p *Pipeline) ConfigTag() string {
	return fmt.Sprintf("%s|%s|%s|%s|%d",
		p.searcher.Name(), p.columnEnc.Name(), p.tupleEnc.Name(), p.diversifier.Name(), p.topTables)
}

// QueryBound returns a pipeline view sharing this pipeline's lake, index,
// and encoders whose per-query parallelism — alignment, embedding,
// diversification, and candidate scoring — is bounded to n workers.
// Concurrent servers use it so per-query fan-out does not multiply their
// request-level concurrency; SearchBatch builds its inner per-query
// pipeline with it. The returned
// pipeline is for querying only: it shares mutable index state with the
// receiver, so do not call AddTable/RemoveTable on it (Clone exists for
// that).
func (p *Pipeline) QueryBound(n int) *Pipeline {
	c := *p
	c.workers = n
	c.workersSet = true
	c.searcher = p.searcher.QueryWorkers(n)
	return &c
}

// Degraded returns the query view a server answers an overloaded request
// from: the same frozen index and encoders, retrieving half the tables
// (max(1, topTables/2)), so alignment, embedding and diversification all
// work on about half the pool. ConfigTag carries topTables, so the view's
// cache lines never mix with the receiver's; a pipeline retrieving one
// table already has nothing cheaper, and its view's tag equals its own.
// The view is for querying only — never mutate it.
func (p *Pipeline) Degraded() *Pipeline {
	c := *p
	c.topTables = max(1, p.topTables/2)
	return &c
}

// PrepareANN does nothing and reports true: the exact scan is the one
// retriever, and Degraded needs nothing built. It is kept for the
// benchmark, which calls it before timing the degraded view.
func (p *Pipeline) PrepareANN() bool { return true }

// Close releases nothing: a pipeline holds no goroutines, files or other
// long-lived resources, and keeps serving after Close. It stays so that
// callers written to close a pipeline keep compiling.
func (p *Pipeline) Close() {}

// IndexBytes returns the zero search.IndexFootprint: the exact scan keeps
// no structure beside its column blocks. It is kept for the benchmark,
// which reports it as search.index_bytes.
func (p *Pipeline) IndexBytes() search.IndexFootprint { return search.IndexFootprint{} }

// tableRows collects a table's rows for batch encoding.
func tableRows(t *table.Table) [][]string {
	rows := make([][]string, t.NumRows())
	for i := range rows {
		rows[i] = t.Row(i)
	}
	return rows
}

// coverageRows returns the indices of rows whose fraction of non-null
// cells is at least minCoverage (and always at least one non-null cell).
func coverageRows(t *table.Table, minCoverage float64) []int {
	var keep []int
	for i := 0; i < t.NumRows(); i++ {
		filled := 0
		for j := 0; j < t.NumCols(); j++ {
			if t.Cell(i, j) != table.Null {
				filled++
			}
		}
		if filled > 0 && float64(filled) >= minCoverage*float64(t.NumCols()) {
			keep = append(keep, i)
		}
	}
	return keep
}

// filterRows projects a table and its provenance onto the kept rows.
func filterRows(t *table.Table, prov []table.Provenance, keep []int) (*table.Table, []table.Provenance) {
	if len(keep) == t.NumRows() {
		return t, prov
	}
	out, err := t.Select(t.Name, keep)
	if err != nil {
		// keep indices come from coverageRows and are always valid.
		panic(err)
	}
	np := make([]table.Provenance, len(keep))
	for i, r := range keep {
		np[i] = prov[r]
	}
	return out, np
}

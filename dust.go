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
// The zero-config pipeline uses simulated pre-trained encoders; the paper's
// fine-tuned tuple model (cmd/dusttrain) is installed with WithTupleEncoder.
package dust

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"dust/internal/align"
	"dust/internal/diversify"
	"dust/internal/embed"
	"dust/internal/lake"
	"dust/internal/model"
	"dust/internal/par"
	"dust/internal/region"
	"dust/internal/search"
	"dust/internal/table"
	"dust/internal/vector"
)

// Pipeline runs Algorithm 1 — SearchTables, AlignColumns, tuple embedding
// and DiversifyTuples — as the six search.Stage spans. Construct with New
// and customize with the With* options.
type Pipeline struct {
	searcher    search.Searcher
	columnEnc   embed.ColumnEncoder
	tupleEnc    model.TupleEncoder
	diversifier *diversify.DUST
	topTables   int
	workers     int
	workersSet  bool
	// epoch counts the mutations (WithTable/WithoutTable) between the
	// pipeline first built and this one; see Epoch in persist.go. Serving
	// layers stamp their answers with it.
	epoch uint64
}

// Option customizes a Pipeline.
type Option func(*Pipeline)

// WithSearcher replaces the table union searcher (default: Starmie-like).
// The searcher must satisfy the whole search.Searcher contract — the
// pipeline calls all of it, unconditionally — and the pipeline searches
// s.Lake(), not the lake New was given. The pipeline queries s itself, or,
// under an explicit WithWorkers, s.QueryWorkers(n), a view sharing s's
// index.
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
	return p.SearchRequest(ctx, p.Prepare(query), k)
}

// Request is one search of a query table: the table, its preparation
// (search.PreparedQuery), encoded the first time a revalidation or the
// search scores it, and the search's Trace. A preparation is a function of
// its own table and the encoder, so one Request serves the pipeline that
// prepared it, its views (QueryBound, Degraded) and its successors, and its
// query is encoded at most once across them. A Request serves one call at
// a time.
type Request struct {
	// Trace holds each stage's wall time and the scan's exits.
	Trace search.Trace
	query *table.Table
	pq    search.PreparedQuery
}

// Prepare returns a Request for query; nothing is encoded yet.
func (p *Pipeline) Prepare(query *table.Table) *Request { return &Request{query: query} }

// prepared is r's preparation, encoded by s the first time it is asked for.
func (r *Request) prepared(s search.Searcher) search.PreparedQuery {
	if r.pq == nil {
		r.pq = s.Prepare(r.query)
	}
	return r.pq
}

// SearchRequest is SearchContext for a prepared request: its stages are
// timed into r.Trace, and the search scores r's preparation, encoding it
// only if no revalidation has.
func (p *Pipeline) SearchRequest(ctx context.Context, r *Request, k int) (*Result, error) {
	query := r.query
	if query == nil || query.NumCols() == 0 {
		return nil, fmt.Errorf("dust: empty query table")
	}
	if k <= 0 {
		return nil, fmt.Errorf("dust: k must be positive, got %d", k)
	}
	var (
		tables   []*table.Table
		names    []string
		cols     []align.Column
		headers  []string
		mappings []table.Mapping
		unioned  *table.Table
		prov     []table.Provenance
		eq, et   []vector.Vec
		scratch  *region.Region // et's memory, when the encoder writes rows in place
		res      *Result
		err      error
	)
	defer func() {
		if scratch != nil {
			scratch.Release()
		}
	}()

	// Line 3: D' <- SearchTables(Q, D).
	r.stage(ctx, &err, search.StageTopK, func() error {
		hits, err := p.searcher.TopKPrepared(ctx, r.prepared(p.searcher), p.topTables, &r.Trace)
		if err != nil {
			return err
		}
		if len(hits) == 0 {
			return fmt.Errorf("no unionable tables found for %s", query.Name)
		}
		tables, names = make([]*table.Table, len(hits)), make([]string, len(hits))
		for i, h := range hits {
			tables[i], names[i] = h.Table, h.Table.Name
		}
		return nil
	})

	// Line 5: T <- AlignColumns(Q, D'): embed every column, then cluster
	// them holistically into one mapping per table.
	r.stage(ctx, &err, search.StageEmbedColumns, func() error {
		cols = align.EmbedColumns(query, tables, p.columnEnc)
		return nil
	})
	r.stage(ctx, &err, search.StageHolistic, func() error {
		var err error
		headers, mappings, err = align.HolisticWorkers(cols, p.workers).Mappings(query, tables)
		return err
	})

	// Outer-union the aligned tables, then drop rows that aligned on too
	// little: a mostly-null tuple has a degenerate embedding that looks
	// maximally "diverse" while carrying almost no information for the
	// query schema. Outer union legitimately pads missing columns (paper
	// §3.3), so the bar is one third of the schema, falling back to
	// any-non-null if nothing clears it.
	r.stage(ctx, &err, search.StageOuterUnion, func() error {
		var err error
		if unioned, prov, err = table.OuterUnion(query.Name+"_unionable", headers, mappings); err != nil {
			return err
		}
		keep := coverageRows(unioned, 1.0/3)
		if len(keep) == 0 {
			keep = coverageRows(unioned, 0)
		}
		if unioned, prov = filterRows(unioned, prov, keep); unioned.NumRows() == 0 {
			return fmt.Errorf("alignment produced no unionable tuples for %s", query.Name)
		}
		return nil
	})

	// Line 7: embed query and data lake tuples, in parallel batches.
	r.stage(ctx, &err, search.StageEncodeTuples, func() error {
		var err error
		if eq, err = model.EncodeBatchContext(ctx, p.tupleEnc, headers, tableRows(query), p.workers); err != nil {
			return err
		}
		et, scratch, err = encodePool(ctx, p.tupleEnc, headers, unioned, p.workers)
		return err
	})

	// Line 8: F <- DiversifyTuples(EQ, ET, k), each tuple grouped by its
	// source table.
	r.stage(ctx, &err, search.StageDiversify, func() error {
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
		idx := p.diversifier.Select(diversify.Problem{
			Query: eq, Tuples: et, Groups: groups, K: k, Dist: vector.CosineDistance,
			Workers: p.workers,
		})
		res = &Result{
			Tuples:            table.New(query.Name+"_diverse", headers...),
			Provenance:        make([]table.Provenance, 0, len(idx)),
			UnionableTables:   names,
			Unioned:           unioned,
			UnionedProvenance: prov,
		}
		for _, i := range idx {
			if err := res.Tuples.AppendRow(unioned.Row(i)); err != nil {
				return err
			}
			res.Provenance = append(res.Provenance, prov[i])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// stage runs body as stage st of r's search under ctx unless *err already
// holds an earlier stage's failure: it checks ctx first, adds body's wall
// time to r.Trace, and leaves either error in *err, wrapped with the
// stage's name.
func (r *Request) stage(ctx context.Context, err *error, st search.Stage, body func() error) {
	if *err != nil {
		return
	}
	e := ctx.Err()
	if e == nil {
		t0 := time.Now()
		e = body()
		r.Trace.Add(st, time.Since(t0))
	}
	if e != nil {
		*err = fmt.Errorf("dust: %s: %w", st, e)
	}
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
// names plus the top-tables bound. Two pipelines with equal tags over the
// same table set answer any query identically, which is what lets a
// serving cache key results by (query fingerprint, k, tag) and, for an
// answer from an older epoch of the same lineage, ask Revalidate whether
// the table set has moved it.
func (p *Pipeline) ConfigTag() string {
	return fmt.Sprintf("%s|%s|%s|%s|%d",
		p.searcher.Name(), p.columnEnc.Name(), p.tupleEnc.Name(), p.diversifier.Name(), p.topTables)
}

// Staleness is Revalidate's verdict on an answer from an older epoch.
type Staleness int

const (
	// Current: a search at the pipeline's epoch gives the same answer.
	Current Staleness = iota
	// TableRemoved: a table of the answer was removed since.
	TableRemoved
	// Outranked: a table added since ranks among the answer's tables.
	Outranked
)

// Revalidate reports whether an answer that a pipeline of p's lineage and
// config tag computed for r's query at an older epoch is still what p
// computes. tables is that answer's ranked table list, never empty (a
// search that ranks no table fails); removed and added name every table
// removed and added since that epoch, in any order and with repeats.
//
// The answer is a function of the query and its ranked tables alone:
// alignment, the union, tuple embedding and diversification read nothing
// else. So it stands when the ranking does. It does when no table of it
// was removed (a name that is still there holds the same table, since a
// table changes only by a removal and an add), every score is what it was
// (a stored vector, like the query's, is a function of its own table, so
// no mutation of another table moves a score), and every table added since
// and still indexed ranks after the answer's last table. A table that was
// there at the older epoch and is not in the answer ranked after it then
// and still does. A ranking shorter than topTables held the whole lake, so
// any table added since joins it. Only a table that must be scored needs
// r's preparation, encoded then if nothing has yet, and one score per table
// added since.
func (p *Pipeline) Revalidate(r *Request, tables, removed, added []string) Staleness {
	for _, name := range removed {
		if slices.Contains(tables, name) {
			return TableRemoved
		}
	}
	names := []string{tables[len(tables)-1]}
	for _, name := range added {
		if p.Lake().Get(name) != nil && !slices.Contains(names, name) {
			names = append(names, name)
		}
	}
	switch {
	case len(names) == 1:
		return Current
	case len(tables) < p.topTables:
		return Outranked
	}
	scored, err := p.searcher.ScoreTables(r.prepared(p.searcher), names)
	if err != nil {
		// The log disagrees with the index: an answer table is gone.
		return TableRemoved
	}
	for _, s := range scored[1:] {
		if search.HitOrder(s, scored[0]) < 0 {
			return Outranked
		}
	}
	return Current
}

// QueryBound returns a pipeline view sharing this pipeline's lake, index,
// and encoders whose per-query parallelism — alignment, embedding,
// diversification, and candidate scoring — is bounded to n workers.
// Concurrent servers use it so per-query fan-out does not multiply their
// request-level concurrency; SearchBatch builds its inner per-query
// pipeline with it. Like every pipeline it is never written: its
// WithTable/WithoutTable successors keep its bound and leave it, and the
// receiver, as they were.
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
// Like every pipeline the view is never written; a successor of it
// retrieves half the tables too.
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

// tuplePool lists the scratch regions of the pool's tuple vectors for the
// next searches (region.Pool).
var tuplePool region.Pool

// encodePool embeds the unioned pool's tuples. A batch-capable encoder
// (model.BatchTupleEncoder) writes them into a region taken from
// tuplePool, outside the collected heap, which the caller releases once
// nothing reads the vectors; any other encoder returns heap vectors and a
// nil region. On an error nothing is left to release.
func encodePool(ctx context.Context, enc model.TupleEncoder, headers []string, pool *table.Table, workers int) ([]vector.Vec, *region.Region, error) {
	rows := tableRows(pool)
	re, ok := enc.(model.BatchTupleEncoder)
	if !ok {
		vs, err := model.EncodeBatchContext(ctx, enc, headers, rows, workers)
		return vs, nil, err
	}
	dim := re.Dim()
	buf := tuplePool.Take(8 * len(rows) * dim)
	dst := region.View[float64](buf.Bytes(), len(rows)*dim)
	if err := re.EncodeTupleRows(ctx, headers, rows, workers, dst); err != nil {
		buf.Release()
		return nil, nil, err
	}
	return embed.SplitRows(dst, dim), buf, nil
}

// tableRows collects a table's rows for batch encoding, over one backing
// slice of cells.
func tableRows(t *table.Table) [][]string {
	n, w := t.NumRows(), t.NumCols()
	cells := make([]string, n*w)
	rows := make([][]string, n)
	for i := range rows {
		rows[i] = cells[i*w : (i+1)*w : (i+1)*w]
	}
	for j, c := range t.Columns {
		for i, v := range c.Values {
			cells[i*w+j] = v
		}
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

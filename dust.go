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
	diversifier diversify.Algorithm
	topTables   int
	workers     int
	workersSet  bool
	retrieval   search.Mode
	shards      int
	oversample  float64
	efSearch    int
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
// the pipeline queries, tunes and mutates s itself, not a copy (except
// that an explicit WithWorkers queries through s.QueryWorkers(n), a view
// sharing s's index).
func WithSearcher(s search.Searcher) Option { return func(p *Pipeline) { p.searcher = s } }

// WithTupleEncoder replaces the tuple embedding model (default: a
// content-dominant pre-trained simulator; install a fine-tuned
// model.Model for the paper's full setup).
func WithTupleEncoder(e model.TupleEncoder) Option { return func(p *Pipeline) { p.tupleEnc = e } }

// WithDiversifier replaces the diversification algorithm (default: DUST).
func WithDiversifier(a diversify.Algorithm) Option { return func(p *Pipeline) { p.diversifier = a } }

// WithTopTables sets how many unionable tables the search stage retrieves
// before alignment (default: 10).
func WithTopTables(n int) Option { return func(p *Pipeline) { p.topTables = n } }

// WithRetriever selects the candidate-generation backend of the searcher's
// staged query plan (default search.Exact, the seed behavior). search.ANN
// switches Starmie to approximate retrieval — HNSW over its column
// embeddings — whose candidates are re-scored exactly, so query latency
// tracks the candidate pool instead of the lake size. DUST itself only
// needs a candidate pool of unionable tuples before diversification, which
// is what makes the approximate stage safe for the pipeline's quality. A
// Mode value the search package does not define makes New panic.
func WithRetriever(m search.Mode) Option { return func(p *Pipeline) { p.retrieval = m } }

// WithShards partitions the default Starmie index into n hash-assigned
// parts (search.WithShards): each part has its own HNSW graph under
// search.ANN and its own saved file set, while one corpus and one exact
// scan cover the whole lake, so exact-mode results are bit-identical to
// the unsharded pipeline. Under search.ANN every part's graph nominates
// candidates for the one exact re-rank. n <= 1 keeps the single monolithic
// index (the default). The option shapes the default searcher only: it is
// ignored when WithSearcher supplies one, and a pipeline warm-started from
// an index directory keeps the shard layout recorded in its manifest.
func WithShards(n int) Option { return func(p *Pipeline) { p.shards = n } }

// WithOversample sets the ANN candidate-stage oversampling factor: a
// top-k query retrieves about ceil(v*k) nearest candidates before exact
// re-ranking. Raise it to trade latency for recall. v <= 0 keeps the
// default (search.DefaultOversample); exact mode ignores it.
func WithOversample(v float64) Option { return func(p *Pipeline) { p.oversample = v } }

// WithEfSearch sets the HNSW traversal beam width of the searcher's ANN
// candidate stage. Higher values raise recall at higher per-query cost.
// ef <= 0 keeps the default (search.DefaultEfSearch); exact mode and
// searchers without an HNSW stage ignore it.
func WithEfSearch(ef int) Option { return func(p *Pipeline) { p.efSearch = ef } }

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
		topTables:   10,
	}
	for _, o := range opts {
		o(p)
	}
	if p.searcher == nil {
		// Built after the options so the default index honours WithWorkers
		// and WithShards.
		p.searcher = search.NewStarmie(l, search.WithWorkers(p.workers), search.WithShards(p.shards))
	} else if p.workersSet {
		// An explicit WithWorkers also re-bounds a supplied searcher's
		// query-time scoring; without it the searcher keeps its own bound.
		p.searcher = p.searcher.QueryWorkers(p.workers)
	}
	// Retrieval tuning applies to supplied and warm-started searchers too.
	if p.oversample > 0 {
		p.searcher.SetOversample(p.oversample)
	}
	if p.efSearch > 0 {
		p.searcher.SetEfSearch(p.efSearch)
	}
	if p.retrieval != search.Exact {
		if err := p.searcher.SetMode(p.retrieval); err != nil {
			// A Mode value this package does not define is a programming
			// error; silently serving the exact scan would hide it behind
			// nothing but latency.
			panic(err)
		}
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

// MaintenanceStats reports the tombstone debt of the searcher's HNSW
// graphs — the only index structures that tombstone — merged across shards
// for sharded searchers. The serving layer starts a compaction pass
// (Compact on a Clone, then a snapshot swap) once its GraphDeletedFraction
// passes search.RebuildThreshold.
func (p *Pipeline) MaintenanceStats() search.MaintenanceStats {
	return p.searcher.MaintenanceStats()
}

// SetAutoCompact toggles the searcher's inline compaction policy. With auto
// compaction off, AddTable/RemoveTable never rebuild index structures
// inline — the threshold check that normally runs inside mutations moves
// behind this policy hook — so mutations stay O(delta) and a maintenance
// layer compacts on its own schedule via Compact.
func (p *Pipeline) SetAutoCompact(on bool) { p.searcher.SetAutoCompact(on) }

// Compact rebuilds the searcher's tombstoned index structures now,
// reporting whether any work was done. Compaction preserves result
// identity — a compacted pipeline ranks every query exactly like its
// tombstoned self — and does not advance the epoch, so serving caches
// keyed by (tag, epoch) stay valid across it. Not safe concurrently with
// queries or mutations: run it on a Clone and swap, as the serving
// layer's background compaction does.
func (p *Pipeline) Compact() bool { return p.searcher.Compact() }

// ModeView returns a query-only pipeline view whose searcher runs under
// retrieval mode m, sharing every piece of index state with the receiver;
// ok is false when the mode's backend is not installed (see PrepareANN).
// The view is for querying only — never mutate it — and concurrent queries
// on view and receiver are safe. A serving layer uses it to degrade
// individual requests to ANN retrieval under load; the view's ConfigTag
// differs from the receiver's (the searcher name carries the mode), so
// caches keyed by tag never mix the two plans' results.
func (p *Pipeline) ModeView(m search.Mode) (*Pipeline, bool) {
	v, ok := p.searcher.ModeView(m)
	if !ok {
		return nil, false
	}
	c := *p
	c.searcher = v
	c.retrieval = m
	return &c, true
}

// PrepareANN builds the searcher's approximate retrieval structures (the
// HNSW graphs) without leaving the current retrieval mode, so that
// ModeView(search.ANN) becomes available on an exact-mode pipeline. An
// installed graph survives mode flips and keeps absorbing mutations, so
// the preparation stays valid across the pipeline's life (clones
// included). Reports whether the ANN view is now available. Not safe
// concurrently with queries — call before serving starts.
func (p *Pipeline) PrepareANN() bool {
	cur := p.searcher.RetrievalMode()
	if cur == search.ANN {
		return true
	}
	if err := p.searcher.SetMode(search.ANN); err != nil {
		return false
	}
	if err := p.searcher.SetMode(cur); err != nil {
		// cur came from RetrievalMode and always round-trips.
		panic(err)
	}
	_, ok := p.ModeView(search.ANN)
	return ok
}

// Close releases nothing: a pipeline holds no goroutines, files or other
// long-lived resources, sharded or not, and keeps serving after Close. It
// stays so that callers written to close a pipeline keep compiling.
func (p *Pipeline) Close() {}

// Shards reports how many index shards back the pipeline's searcher: 1 for
// a monolithic index (the default), n for a WithShards(n) or warm-started
// sharded layout.
func (p *Pipeline) Shards() int { return len(p.searcher.Parts()) }

// ShardSizes reports the table count of every index part in shard order —
// one entry, the whole lake, for a monolithic index. Serving layers expose
// the partition balance through it without reaching into the shard layout.
func (p *Pipeline) ShardSizes() []int {
	parts := p.searcher.Parts()
	sizes := make([]int, len(parts))
	for i, part := range parts {
		sizes[i] = part.Lake().Len()
	}
	return sizes
}

// IndexBytes reports the resident footprint of the searcher's ANN index
// structures, merged across its parts (see search.IndexFootprint). The
// serving layer exports it as the dust_index_bytes gauge.
func (p *Pipeline) IndexBytes() search.IndexFootprint { return p.searcher.IndexBytes() }

// ShardIndexBytes reports every index part's own resident footprint in
// shard order — the per-shard series behind the serving layer's
// dust_index_bytes gauge.
func (p *Pipeline) ShardIndexBytes() []search.IndexFootprint {
	parts := p.searcher.Parts()
	out := make([]search.IndexFootprint, len(parts))
	for i, part := range parts {
		out[i] = part.IndexBytes()
	}
	return out
}

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

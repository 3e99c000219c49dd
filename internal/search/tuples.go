package search

import (
	"context"
	"fmt"
	"math"
	"sort"

	"dust/internal/ann"
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
// the redundancy phenomenon DUST addresses.
type TupleSearch struct {
	enc     *embed.Encoder
	workers int
	// quantized selects SQ8 storage for graphs this searcher builds
	// (WithQuantized); loaded graphs keep their stored representation.
	quantized bool
	tuples    []ScoredTuple // score unused at index time
	vecs      []vector.Vec

	// Staged retrieval state (mode ANN), the tuple-level analogue of
	// Starmie's: an HNSW graph over every tuple embedding. annTuples and
	// annVecs are id-parallel shadows of tuples/vecs that survive the
	// compactions RemoveTable applies to the primary slices (tombstoned
	// ids keep stale entries until a rebuild); annIDs maps a table to its
	// live node ids.
	mode      Mode
	graph     *ann.Index
	annTuples []ScoredTuple
	annVecs   []vector.Vec
	annIDs    map[string][]int
	// annTuning sizes the candidate stage exactly as on Starmie: nearest
	// tuples per query tuple.
	annTuning
	// manualCompact mirrors Starmie's: SetAutoCompact(false) moves graph
	// compaction off the mutation path and into explicit Compact calls.
	manualCompact bool
}

// NewTupleSearch indexes every tuple of the given tables. Embedding runs
// as one parallel map over the flattened (headers, row) work list so the
// full worker budget applies even when the lake is many small tables.
func NewTupleSearch(tables []*table.Table, opts ...Option) *TupleSearch {
	o := applyOptions(opts)
	ts := &TupleSearch{
		enc:       embed.NewRoBERTa(),
		workers:   o.workers,
		quantized: o.quantized,
		annTuning: annTuning{DefaultOversample, DefaultEfSearch},
	}
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
	if o.mode != Exact {
		_ = ts.SetMode(o.mode)
	}
	return ts
}

// Name identifies the baseline in experiment output.
func (ts *TupleSearch) Name() string {
	if ts.mode == ANN {
		return "starmie-tuples+ann"
	}
	return "starmie-tuples"
}

// SetMode is the tuple-level analogue of Searcher.SetMode (TupleSearch
// ranks tuples, not tables, so it shares the contract's names, typed for
// tuple hits, rather than the interface): ANN retrieves candidates from an
// HNSW graph over the tuple embeddings and re-scores them exactly; Exact
// restores the full scan.
func (ts *TupleSearch) SetMode(m Mode) error {
	switch m {
	case Exact:
	case ANN:
		if ts.graph == nil {
			ts.buildGraph()
		}
	default:
		return fmt.Errorf("tuplesearch: SetMode(%d): %w", int(m), ErrUnknownMode)
	}
	ts.mode = m
	return nil
}

// RetrievalMode reports the active retrieval backend.
func (ts *TupleSearch) RetrievalMode() Mode { return ts.mode }

// buildGraph indexes every tuple embedding, in index order, through the
// batch-parallel ann.Build (ids equal slice positions, matching the
// bookkeeping the incremental annAddOne path would produce).
func (ts *TupleSearch) buildGraph() {
	ts.annTuples = append([]ScoredTuple(nil), ts.tuples...)
	ts.annVecs = append([]vector.Vec(nil), ts.vecs...)
	ts.annIDs = make(map[string][]int)
	vecs := make([]vector.Vec32, len(ts.vecs))
	for i, v := range ts.vecs {
		vecs[i] = vector.ToVec32(v)
	}
	ts.graph = ann.Build(ts.enc.Dim(), vecs, ann.Config{Quantized: ts.quantized}, ts.workers)
	for i := range ts.annTuples {
		name := ts.annTuples[i].Table.Name
		ts.annIDs[name] = append(ts.annIDs[name], i)
	}
}

// IndexBytes reports the storage mode and estimated resident bytes of the
// installed candidate graph.
func (ts *TupleSearch) IndexBytes() IndexFootprint { return graphFootprint(ts.graph) }

func (ts *TupleSearch) annAddOne(tu ScoredTuple, v vector.Vec) {
	id := ts.graph.Add(vector.ToVec32(v))
	ts.annTuples = append(ts.annTuples, tu)
	ts.annVecs = append(ts.annVecs, v)
	ts.annIDs[tu.Table.Name] = append(ts.annIDs[tu.Table.Name], id)
}

// maybeRebuild compacts the graph once tombstones dominate (the shared
// staleGraph policy), unless a maintainer owns compaction
// (SetAutoCompact(false)).
func (ts *TupleSearch) maybeRebuild() {
	if ts.manualCompact || !staleGraph(ts.graph) {
		return
	}
	ts.rebuildGraph()
}

// SetAutoCompact mirrors Searcher.SetAutoCompact: with auto compaction
// off, mutations never rebuild the graph inline.
func (ts *TupleSearch) SetAutoCompact(on bool) { ts.manualCompact = !on }

// Compact rebuilds the graph from its live nodes when any tombstones
// exist, reporting whether a rebuild ran.
func (ts *TupleSearch) Compact() bool {
	if ts.graph == nil || ts.graph.Len() == ts.graph.Live() {
		return false
	}
	ts.rebuildGraph()
	return true
}

// MaintenanceStats reports the graph's tombstone debt.
func (ts *TupleSearch) MaintenanceStats() MaintenanceStats { return graphStats(ts.graph) }

// rebuildGraph compacts the graph from its live nodes, rebooking the
// id-parallel tuple shadows as ann.Compact reports the surviving ids.
func (ts *TupleSearch) rebuildGraph() {
	oldTuples, oldVecs := ts.annTuples, ts.annVecs
	ts.annTuples = nil
	ts.annVecs = nil
	ts.annIDs = make(map[string][]int, len(ts.annIDs))
	ts.graph = ts.graph.Compact(func(oldID, newID int) {
		tu := oldTuples[oldID]
		ts.annTuples = append(ts.annTuples, tu)
		ts.annVecs = append(ts.annVecs, oldVecs[oldID])
		ts.annIDs[tu.Table.Name] = append(ts.annIDs[tu.Table.Name], newID)
	})
}

// Len returns the number of indexed tuples.
func (ts *TupleSearch) Len() int { return len(ts.tuples) }

// AddTable mirrors Searcher.AddTable: the table's tuples are embedded and
// appended, exactly where a from-scratch index over the mutated table list
// would place them. A table with no rows contributes no tuples (and is
// therefore unknown to RemoveTable).
func (ts *TupleSearch) AddTable(t *table.Table) error {
	for i := range ts.tuples {
		if ts.tuples[i].Table.Name == t.Name {
			return fmt.Errorf("tuplesearch: AddTable(%q): %w", t.Name, ErrDuplicateTable)
		}
	}
	headers := t.Headers()
	rows := make([][]string, t.NumRows())
	for r := range rows {
		rows[r] = t.Row(r)
		ts.tuples = append(ts.tuples, ScoredTuple{Table: t, Row: r})
	}
	vecs := ts.enc.EncodeTupleBatch(headers, rows, ts.workers)
	ts.vecs = append(ts.vecs, vecs...)
	if ts.graph != nil {
		for r := range rows {
			ts.annAddOne(ScoredTuple{Table: t, Row: r}, vecs[r])
		}
		ts.maybeRebuild()
	}
	return nil
}

// RemoveTable mirrors Searcher.RemoveTable: the table's tuples leave the index;
// the relative order of the survivors — which the stable TopK sort depends
// on — is preserved.
func (ts *TupleSearch) RemoveTable(name string) error {
	keptT := ts.tuples[:0]
	keptV := ts.vecs[:0]
	found := false
	for i := range ts.tuples {
		if ts.tuples[i].Table.Name == name {
			found = true
			continue
		}
		keptT = append(keptT, ts.tuples[i])
		keptV = append(keptV, ts.vecs[i])
	}
	if !found {
		return fmt.Errorf("tuplesearch: RemoveTable(%q): %w", name, ErrUnknownTable)
	}
	ts.tuples, ts.vecs = keptT, keptV
	if ts.graph != nil {
		for _, id := range ts.annIDs[name] {
			if err := ts.graph.Remove(id); err != nil {
				// Ids come from annIDs bookkeeping and are always live.
				panic(err)
			}
		}
		delete(ts.annIDs, name)
		ts.maybeRebuild()
	}
	return nil
}

// PreparedTupleQuery is the tuple-level analogue of PreparedQuery: the
// query's tuple embeddings, computed once by Prepare and reusable across
// every TupleSearch built from the same encoder family (the embeddings
// depend only on the deterministic base model, not on the index contents —
// so one preparation serves every shard of a partitioned tuple index).
type PreparedTupleQuery struct {
	query *table.Table
	vecs  []vector.Vec
}

// Query returns the query table the preparation was derived from.
func (p *PreparedTupleQuery) Query() *table.Table { return p.query }

// Prepare embeds the query's tuples exactly once, in parallel. The result
// feeds TopKPrepared on any number of indexes.
func (ts *TupleSearch) Prepare(query *table.Table) *PreparedTupleQuery {
	headers := query.Headers()
	rows := make([][]string, query.NumRows())
	for r := range rows {
		rows[r] = query.Row(r)
	}
	return &PreparedTupleQuery{
		query: query,
		vecs:  ts.enc.EncodeTupleBatch(headers, rows, ts.workers),
	}
}

// TopK returns the k tuples most similar to the query table's tuples:
// Prepare then TopKPrepared under a background context, which cannot fail.
func (ts *TupleSearch) TopK(query *table.Table, k int) []ScoredTuple {
	out, _ := ts.TopKPrepared(context.Background(), ts.Prepare(query), k)
	return out
}

// TopKPrepared ranks the indexed tuples by their best similarity to any
// query tuple. Per-tuple scoring runs in parallel; scores are written by
// tuple index, so the stable sort sees the same input for every worker
// count. Once ctx is cancelled the remaining tuples are not scored and
// ctx.Err() is returned. In ANN mode the scan covers only the HNSW
// candidate pool instead of every tuple; k <= 0 asks for the full ranking,
// which only the exact scan provides.
func (ts *TupleSearch) TopKPrepared(ctx context.Context, pq *PreparedTupleQuery, k int) ([]ScoredTuple, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The candidate pool: every indexed tuple, or the graph's nominees.
	n, candidate := len(ts.tuples), func(i int) (ScoredTuple, vector.Vec) { return ts.tuples[i], ts.vecs[i] }
	if ts.mode == ANN && ts.graph != nil && k > 0 {
		ids := ts.annCandidates(pq.vecs, k)
		n, candidate = len(ids), func(i int) (ScoredTuple, vector.Vec) { return ts.annTuples[ids[i]], ts.annVecs[ids[i]] }
	}
	out := make([]ScoredTuple, n)
	if err := par.ForCtx(ctx, ts.workers, n, func(i int) {
		tu, v := candidate(i)
		for _, qv := range pq.vecs {
			if sim := vector.Cosine(qv, v); sim > tu.Score {
				tu.Score = sim
			}
		}
		out[i] = tu
	}); err != nil {
		return nil, err
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out, nil
}

// annCandidates is the retrieval stage of the staged plan: the
// ceil(Oversample*k) nearest tuples per query tuple from the graph,
// deduplicated and ordered by node id — their insertion order, the same
// relative order the exact scan's stable sort ties on — so the ranking is
// deterministic and agrees with exact mode wherever the pool covers the
// true top k.
func (ts *TupleSearch) annCandidates(qVecs []vector.Vec, k int) []int {
	perTuple := int(math.Ceil(ts.Oversample * float64(k)))
	seen := make(map[int]bool)
	for _, qv := range qVecs {
		for _, id := range ts.graph.Search(vector.ToVec32(qv), perTuple, ts.EfSearch) {
			seen[id] = true
		}
	}
	ids := make([]int, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

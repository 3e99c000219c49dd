package search

import (
	"context"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"dust/internal/ann"
	"dust/internal/embed"
	"dust/internal/lake"
	"dust/internal/match"
	"dust/internal/par"
	"dust/internal/table"
	"dust/internal/tokenize"
	"dust/internal/vector"
)

// Starmie is the Starmie-like union searcher: every column of every lake
// table is embedded with the contextualized column encoder at index time;
// at query time the query's columns are matched to each candidate's columns
// by maximum-weight bipartite matching over cosine similarity and the
// normalized matching weight is the table's unionability score (§6.2.3).
type Starmie struct {
	enc    embed.StarmieEncoder
	lake   *lake.Lake
	corpus *tokenize.Corpus
	// cols maps a table name to its block: the table's column embeddings as
	// NumCols x Dim row-major float64s, exactly as the encoder emitted them
	// — every row unit length or all-zero (EncodeTableColumns' contract),
	// which is what lets the scan score a cell as a plain dot product. The
	// blocks of a built or loaded index are carved from one lake-wide
	// allocation; AddTable and refreshBig install a block of their own.
	// Blocks are immutable once installed, so clones share them.
	cols map[string][]float64
	// big marks tables with at least one column whose token count exceeds
	// the encoder budget: their embeddings depend on the corpus TF-IDF
	// selection and must be refreshed whenever the corpus changes (see
	// AddTable/RemoveTable). Every other table embeds corpus-independently.
	big map[string]bool
	// sharedCorpus marks a corpus installed via WithSharedCorpus (or
	// AdoptSharedCorpus): its document statistics cover a wider table
	// universe than this searcher's lake and are owned by a coordinating
	// layer (internal/shard), so AddTable/RemoveTable must not add or
	// remove documents — the owner mutates the corpus and fans RefreshBig
	// across every searcher sharing it.
	sharedCorpus bool
	workers      int
	// MinSim drops column matches below this similarity (Starmie's
	// verification threshold).
	MinSim float64

	// Staged retrieval state (mode ANN): an HNSW graph over every indexed
	// column embedding, whose nodes hold rows of the blocks above (a
	// tombstoned node keeps the row of a block cols may have dropped, until
	// compaction). Node ids map to their owning table via annTables
	// (tombstoned nodes keep stale entries until a rebuild); annIDs holds
	// the live node ids of each indexed table. The graph exists only after
	// SetMode(ANN) (or LoadANN) and is kept in sync by AddTable /
	// RemoveTable / refreshBig from then on; exact-mode searchers carry no
	// graph and pay nothing.
	mode      Mode
	graph     *ann.Index
	annTables []string
	annIDs    map[string][]int
	// Oversample and EfSearch shape the candidate stage: it retrieves the
	// ceil(Oversample*k) nearest column embeddings per query column, with
	// beam width EfSearch, and nominates their owner tables for exact
	// re-ranking. Raise Oversample to trade latency for recall.
	Oversample float64
	EfSearch   int
	// manualCompact (set via SetAutoCompact(false)) stops mutations from
	// rebuilding the graph inline once tombstones dominate; an attached
	// maintainer calls Compact on its own schedule instead. Zero value
	// keeps the inline policy, so clones and views inherit the setting
	// through plain struct copies.
	manualCompact bool
}

// NewStarmie indexes the lake with the default Starmie encoder.
func NewStarmie(l *lake.Lake, opts ...Option) *Starmie {
	return NewStarmieWithEncoder(l, embed.NewStarmie(), opts...)
}

// NewStarmieWithEncoder indexes the lake with a custom encoder. The
// per-table column embedding pass — the dominant index-time cost — runs in
// parallel; the corpus is built sequentially first so every worker reads
// the same frozen document frequencies.
func NewStarmieWithEncoder(l *lake.Lake, enc embed.StarmieEncoder, opts ...Option) *Starmie {
	o := applyOptions(opts)
	s := emptyStarmie(l, enc, o)
	if o.corpus != nil {
		s.corpus, s.sharedCorpus = o.corpus, true
	}
	tables := l.Tables()
	for _, t := range tables {
		for i := range t.Columns {
			tokens := embed.ColumnTokens(&t.Columns[i])
			if !s.sharedCorpus {
				s.corpus.AddDocument(tokens)
			}
			if len(tokens) > embed.TokenBudget {
				s.big[t.Name] = true
			}
		}
	}
	blocks := carveBlocks(tables, enc.Dim())
	par.For(s.workers, len(tables), func(i int) { s.embedInto(blocks[i], tables[i]) })
	for i, t := range tables {
		s.cols[t.Name] = blocks[i]
	}
	if o.mode != Exact {
		// Errors are impossible for the modes WithMode can express; a
		// bogus numeric Mode falls back to the exact scan.
		_ = s.SetMode(o.mode)
	}
	return s
}

// emptyStarmie is the searcher before any table is indexed — what the
// constructor fills by embedding the lake and LoadStarmie from a file.
func emptyStarmie(l *lake.Lake, enc embed.StarmieEncoder, o options) *Starmie {
	return &Starmie{
		enc:        enc,
		lake:       l,
		corpus:     &tokenize.Corpus{},
		cols:       make(map[string][]float64, l.Len()),
		big:        make(map[string]bool),
		workers:    o.workers,
		MinSim:     0.3,
		Oversample: DefaultOversample,
		EfSearch:   DefaultEfSearch,
	}
}

// carveBlocks cuts one allocation sized for every column of tables into
// per-table blocks (NumCols x dim each, capacity-capped so an append can
// never run into a neighbour), in table order.
func carveBlocks(tables []*table.Table, dim int) [][]float64 {
	total := 0
	for _, t := range tables {
		total += t.NumCols() * dim
	}
	arena := make([]float64, total)
	blocks := make([][]float64, len(tables))
	for i, t := range tables {
		n := t.NumCols() * dim
		blocks[i], arena = arena[:n:n], arena[n:]
	}
	return blocks
}

// embedInto encodes t's columns against the current corpus into block.
func (s *Starmie) embedInto(block []float64, t *table.Table) {
	dim := s.enc.Dim()
	for c, v := range s.enc.EncodeTableColumns(t, s.Corpus) {
		copy(block[c*dim:(c+1)*dim], v)
	}
}

// embed is embedInto a block of t's own.
func (s *Starmie) embed(t *table.Table) []float64 {
	block := make([]float64, t.NumCols()*s.enc.Dim())
	s.embedInto(block, t)
	return block
}

// blockRows iterates the column embeddings stored in block, each a
// capacity-capped view of it.
func (s *Starmie) blockRows(block []float64, fn func(v vector.Vec)) {
	dim := s.enc.Dim()
	for off := 0; dim > 0 && off+dim <= len(block); off += dim {
		fn(block[off : off+dim : off+dim])
	}
}

// Name implements Searcher; the ANN suffix keeps config tags (and the
// serving caches keyed by them) distinct between the two query plans.
func (s *Starmie) Name() string {
	if s.mode == ANN {
		return "starmie+ann"
	}
	return "starmie"
}

// Lake implements Searcher.
func (s *Starmie) Lake() *lake.Lake { return s.lake }

// Parts implements Searcher: a monolithic index is its own single part.
func (s *Starmie) Parts() []Searcher { return []Searcher{s} }

// SetMode implements Searcher: ANN switches the retrieval stage to HNSW
// candidates exactly re-ranked, building the graph over the indexed
// column embeddings if none is installed yet; Exact restores the full
// scan. An installed graph survives mode flips (and keeps absorbing
// mutations) so toggling is cheap.
func (s *Starmie) SetMode(m Mode) error {
	switch m {
	case Exact:
	case ANN:
		if s.graph == nil {
			s.buildGraph()
		}
	default:
		return fmt.Errorf("starmie: SetMode(%d): %w", int(m), ErrUnknownMode)
	}
	s.mode = m
	return nil
}

// RetrievalMode implements Searcher.
func (s *Starmie) RetrievalMode() Mode { return s.mode }

// IndexBytes implements Searcher: the estimated resident bytes of the
// installed candidate graph, zero without one.
func (s *Starmie) IndexBytes() IndexFootprint {
	if s.graph == nil {
		return IndexFootprint{}
	}
	return IndexFootprint{Bytes: s.graph.Bytes()}
}

// SetOversample implements Searcher; v <= 0 restores DefaultOversample.
func (s *Starmie) SetOversample(v float64) {
	if v <= 0 {
		v = DefaultOversample
	}
	s.Oversample = v
}

// SetEfSearch implements Searcher; ef <= 0 restores DefaultEfSearch.
func (s *Starmie) SetEfSearch(ef int) {
	if ef <= 0 {
		ef = DefaultEfSearch
	}
	s.EfSearch = ef
}

// Instrument implements Searcher: a monolithic searcher has no scatter
// stage, so nothing is attached.
func (s *Starmie) Instrument(*StageTimings) bool { return false }

// Close implements Searcher as a no-op: a monolithic searcher holds no
// long-lived resources.
func (s *Starmie) Close() {}

// Graph exposes the installed candidate graph (nil without one) so tests
// can read its shape. Callers must not mutate it.
func (s *Starmie) Graph() *ann.Index { return s.graph }

// buildGraph indexes every column embedding into a fresh HNSW graph, in
// lake iteration order so the graph is identical across processes. The
// bulk path goes through ann.Build — batch-parallel and bit-reproducible
// at every worker count — with node ids equal to insertion positions,
// exactly as the incremental annAdd path books them. The graph's nodes
// are the blocks' own rows.
func (s *Starmie) buildGraph() {
	s.annTables = nil
	s.annIDs = make(map[string][]int, s.lake.Len())
	var rows []vector.Vec
	for _, t := range s.lake.Tables() {
		s.blockRows(s.cols[t.Name], func(v vector.Vec) {
			rows = append(rows, v)
			s.annTables = append(s.annTables, t.Name)
		})
	}
	s.graph = ann.Build(s.enc.Dim(), rows, ann.Config{}, s.workers)
	for id, name := range s.annTables {
		s.annIDs[name] = append(s.annIDs[name], id)
	}
}

// annAdd indexes table name's current column embeddings.
func (s *Starmie) annAdd(name string) {
	s.blockRows(s.cols[name], func(v vector.Vec) {
		id := s.graph.Add(v)
		s.annTables = append(s.annTables, name)
		s.annIDs[name] = append(s.annIDs[name], id)
	})
}

// annRemove tombstones table name's nodes.
func (s *Starmie) annRemove(name string) {
	for _, id := range s.annIDs[name] {
		if err := s.graph.Remove(id); err != nil {
			// Ids come from annIDs bookkeeping and are always live.
			panic(err)
		}
	}
	delete(s.annIDs, name)
}

// maybeRebuild compacts the graph once tombstones dominate, unless a
// maintainer owns compaction (SetAutoCompact(false)). The size floor keeps
// tiny, churn-heavy indexes from rebuilding on every other mutation.
func (s *Starmie) maybeRebuild() {
	g := s.graph
	if s.manualCompact || g == nil || g.Len() < 8 || g.DeletedFraction() <= rebuildThreshold {
		return
	}
	s.rebuildGraph()
}

// rebuildGraph compacts the graph from its live nodes, rebooking the
// node-to-table mapping as ann.Compact reports the surviving ids. Live
// insertion order is preserved, so searches rank identically before and
// after.
func (s *Starmie) rebuildGraph() {
	oldTables := s.annTables
	s.annTables = nil
	s.annIDs = make(map[string][]int, len(s.annIDs))
	s.graph = s.graph.Compact(func(oldID, newID int) {
		name := oldTables[oldID]
		s.annTables = append(s.annTables, name)
		s.annIDs[name] = append(s.annIDs[name], newID)
	})
}

// SetAutoCompact implements Searcher: with auto compaction off,
// AddTable/RemoveTable/RefreshBig never rebuild the graph inline and
// tombstones accumulate until Compact runs.
func (s *Starmie) SetAutoCompact(on bool) { s.manualCompact = !on }

// Compact implements Searcher: it rebuilds the graph from its live
// nodes when any tombstones exist, reporting whether a rebuild ran.
func (s *Starmie) Compact() bool {
	if s.graph == nil || s.graph.Len() == s.graph.Live() {
		return false
	}
	s.rebuildGraph()
	return true
}

// MaintenanceStats implements Searcher.
func (s *Starmie) MaintenanceStats() MaintenanceStats {
	if s.graph == nil {
		return MaintenanceStats{}
	}
	return MaintenanceStats{
		GraphNodes:           s.graph.Len(),
		GraphLive:            s.graph.Live(),
		GraphDeletedFraction: s.graph.DeletedFraction(),
	}
}

// ModeView implements Searcher: the view is a shallow copy sharing every
// piece of index state (including the graph, whose searches are safe
// concurrently) under the requested retrieval mode. An ANN view of a
// graph-less searcher is unavailable — build the graph first via SetMode.
func (s *Starmie) ModeView(m Mode) (Searcher, bool) {
	if m == s.mode {
		return s, true
	}
	if m == ANN && s.graph == nil {
		return nil, false
	}
	if m != Exact && m != ANN {
		return nil, false
	}
	c := *s
	c.mode = m
	return &c, true
}

// annCandidateNames nominates the owner tables of the perColumn nearest
// column embeddings to each query column, name-sorted for determinism. The
// beam width ef caps at the searcher's EfSearch but shrinks with shallow
// fetches: HNSW traversal cost is ef-proportional, and a beam several
// times the fetch depth already saturates recall, so a sharded nomination
// at depth ~k/n must not pay the full-depth beam the monolithic plan is
// tuned for.
func (s *Starmie) annCandidateNames(qCols []vector.Vec, perColumn int) []string {
	ef := s.EfSearch
	if scaled := 4*perColumn + 16; scaled < ef {
		ef = scaled
	}
	seen := make(map[string]bool)
	for _, qv := range qCols {
		for _, id := range s.graph.Search(qv, perColumn, ef) {
			seen[s.annTables[id]] = true
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// AddTable implements Searcher: the new table's columns join the corpus
// and are embedded with it; tables whose TF-IDF token selection depends on
// the corpus (those with over-budget columns) are re-embedded so every
// stored embedding matches what a from-scratch index over the new table set
// would hold. The table must (also) be added to the lake before querying.
func (s *Starmie) AddTable(t *table.Table) error {
	if _, ok := s.cols[t.Name]; ok {
		return fmt.Errorf("starmie: AddTable(%q): %w", t.Name, ErrDuplicateTable)
	}
	for i := range t.Columns {
		tokens := embed.ColumnTokens(&t.Columns[i])
		if !s.sharedCorpus {
			s.corpus.AddDocument(tokens)
		}
		if len(tokens) > embed.TokenBudget {
			s.big[t.Name] = true
		}
	}
	s.cols[t.Name] = s.embed(t)
	s.refreshBig(t.Name)
	if s.graph != nil {
		s.annAdd(t.Name)
		s.maybeRebuild()
	}
	return nil
}

// RemoveTable implements Searcher. It must run while the table is still
// in the lake (its columns have to leave the corpus); remove it from the
// lake afterwards.
func (s *Starmie) RemoveTable(name string) error {
	if _, ok := s.cols[name]; !ok {
		return fmt.Errorf("starmie: RemoveTable(%q): %w", name, ErrUnknownTable)
	}
	t := s.lake.Get(name)
	if t == nil {
		return fmt.Errorf("starmie: RemoveTable(%q): table already left the lake: %w", name, ErrUnknownTable)
	}
	if !s.sharedCorpus {
		for i := range t.Columns {
			s.corpus.RemoveDocument(embed.ColumnTokens(&t.Columns[i]))
		}
	}
	delete(s.cols, name)
	delete(s.big, name)
	if s.graph != nil {
		s.annRemove(name)
	}
	s.refreshBig("")
	if s.graph != nil {
		s.maybeRebuild()
	}
	return nil
}

// refreshBig re-embeds every indexed table marked corpus-sensitive, in
// parallel, skipping the one just encoded with the current corpus. Tables
// under the token budget never enter s.big, so the common mutation costs
// O(new table) only.
func (s *Starmie) refreshBig(skip string) {
	var stale []*table.Table
	for _, t := range s.lake.Tables() {
		if _, ok := s.cols[t.Name]; ok && s.big[t.Name] && t.Name != skip {
			stale = append(stale, t)
		}
	}
	if len(stale) == 0 {
		return
	}
	embedded := par.Map(s.workers, len(stale), func(i int) []float64 { return s.embed(stale[i]) })
	for i, t := range stale {
		old := s.cols[t.Name]
		s.cols[t.Name] = embedded[i]
		if s.graph != nil && !slices.Equal(old, embedded[i]) {
			// The stored vectors actually changed; the graph must follow
			// (nodes are immutable once inserted, so swap them).
			// Corpus refreshes usually re-select the same TF-IDF tokens
			// and reproduce the old embeddings bit-for-bit — skipping
			// those keeps mutation cost O(delta) instead of tombstoning
			// (and eventually rebuilding over) every big table each time.
			s.annRemove(t.Name)
			s.annAdd(t.Name)
		}
	}
}

// QueryWorkers implements Searcher: the returned searcher shares this
// searcher's index (immutable after construction) and scores queries with
// at most n workers.
func (s *Starmie) QueryWorkers(n int) Searcher {
	c := *s
	c.workers = n
	return &c
}

// RefreshBig re-embeds every corpus-sensitive (over-budget) table against
// the corpus's current statistics and keeps the ANN graph, when one is
// installed, in step. It is the cross-searcher half of a shared-corpus
// mutation: after the owning layer changes the shared corpus on behalf of
// one searcher, every other searcher sharing it must refresh, exactly as
// AddTable/RemoveTable refresh a private corpus. A searcher with no big
// tables returns immediately.
func (s *Starmie) RefreshBig() {
	s.refreshBig("")
	if s.graph != nil {
		s.maybeRebuild()
	}
}

// Encoder exposes the searcher's column encoder. Tests instrument its
// shared base model to count encoding calls — the prepared-query gate that
// proves a sharded query encodes exactly once.
func (s *Starmie) Encoder() embed.StarmieEncoder { return s.enc }

// Corpus exposes the TF-IDF corpus the index was embedded against. The
// sharding layer uses it to recover the one shared corpus instance after a
// per-shard warm start; treat it as read-only unless you own the searcher's
// mutation surface.
func (s *Starmie) Corpus() *tokenize.Corpus { return s.corpus }

// AdoptSharedCorpus rebinds the searcher to an externally owned corpus and
// marks it shared (see WithSharedCorpus). The given corpus's statistics
// must reproduce the ones the stored embeddings were built with
// bit-for-bit — the caller typically hands every shard the corpus restored
// by one shard's load, or a fresh clone after CloneWithLake.
func (s *Starmie) AdoptSharedCorpus(c *tokenize.Corpus) {
	s.corpus, s.sharedCorpus = c, true
}

// CloneWithLake implements Searcher: the returned searcher is bound to l (a
// clone of this searcher's lake holding the same table set) and owns its
// own corpus and table-to-block map, so AddTable/RemoveTable on it never
// disturb this searcher. The blocks themselves are shared — both mutation
// paths install a fresh block (AddTable, refreshBig), never write into
// one — so a clone costs one map copy, not the lake's vectors. A
// shared corpus is not cloned: it belongs to the coordinating layer, which
// clones it once and rebinds every shard clone via AdoptSharedCorpus.
func (s *Starmie) CloneWithLake(l *lake.Lake) Searcher {
	c := *s
	c.lake = l
	if !s.sharedCorpus {
		c.corpus = s.corpus.Clone()
	}
	c.cols = maps.Clone(s.cols)
	c.big = maps.Clone(s.big)
	if s.graph != nil {
		// Insertions rewire existing neighbor lists, so the clone needs its
		// own adjacency (the rows stay shared); the id bookkeeping is
		// append-mutated and is deep-copied for the same reason.
		c.graph = s.graph.Clone()
		c.annTables = make([]string, len(s.annTables))
		copy(c.annTables, s.annTables)
		c.annIDs = make(map[string][]int, len(s.annIDs))
		for n, ids := range s.annIDs {
			c.annIDs[n] = append([]int(nil), ids...)
		}
	}
	return &c
}

// score computes the normalized bipartite matching weight between the query
// and one lake table.
func (s *Starmie) score(q *vector.QueryPanels, t *table.Table) float64 {
	sc := scanPool.Get().(*scan)
	defer scanPool.Put(sc)
	score, _ := sc.score(s, q, t, math.Inf(-1))
	return score
}

// scan is one goroutine's scoring scratch: the flat |Q| x ncols weight
// buffer, the per-row arg-maxes and the matching's working arrays. Scans
// are pooled, so a steady-state query allocates none of it.
type scan struct {
	w    []float64
	arg  []int
	hung match.Scratch
}

// The exits of scan.score, which index the per-query outcome counts.
const (
	scanBounded = iota // cut by the upper bound, no matching computed
	scanGreedy         // distinct arg-maxes: the bound is the matching
	scanMatched        // ran the Hungarian step
)

var scanPool = sync.Pool{New: func() any { return new(scan) }}

// score is the exact unionability score of t under the query columns q
// (unit or all-zero rows, like the stored blocks; interleaved once per query
// into the panels the cosine kernel reads, while the blocks stay row-major
// as built): the maximum-weight
// matching over cells w[i][j] = min(q[i]·c[j], 1) where that exceeds MinSim
// (floored at 0: a non-positive weight never joins a matching), else 0,
// divided by |Q|. It leaves by the cheapest exact exit. ub = Σᵢ maxⱼ w[i][j]
// / |Q| bounds every matching from above — in floating point too: both sums
// run in row order and rounding is monotone — so the table is cut, unscored,
// once ub cannot reach floor; strictly below only, so that a tie on score
// still gets its name compared. When the rows' arg-maxes are distinct
// columns they are a matching that attains ub, and any other optimal
// matching needs the same per-row weights, so ub is the Hungarian total bit
// for bit. Otherwise the Hungarian step decides.
func (sc *scan) score(s *Starmie, q *vector.QueryPanels, t *table.Table, floor float64) (score float64, exit int) {
	block := s.cols[t.Name]
	nq, nc := q.Len(), len(block)/s.enc.Dim()
	if nq == 0 || nc == 0 {
		return 0, scanGreedy
	}
	sc.w, sc.arg = slices.Grow(sc.w[:0], nq*nc), slices.Grow(sc.arg[:0], nq)
	w, arg := sc.w[:nq*nc], sc.arg[:nq]
	minSim := max(s.MinSim, 0)
	var ub float64
	distinct := true
	for i := 0; i < nq; i++ {
		if i%vector.PanelRows == 0 {
			// The kernel fills four query rows at a time; a table cut
			// below never pays for the panels after the cut.
			q.DotBlock(i/vector.PanelRows, block, w)
		}
		row := w[i*nc : (i+1)*nc]
		best, at := 0.0, -1
		for j, sim := range row {
			if !(sim > minSim) {
				sim = 0
			}
			sim = min(sim, 1)
			row[j] = sim
			if sim > best {
				best, at = sim, j
			}
		}
		ub += best
		// A row adds at most 1, so the rows still to come can lift the
		// bound no higher than this; on the last row it is the bound.
		reach := ub
		for r := i + 1; r < nq; r++ {
			reach++
		}
		if reach/float64(nq) < floor {
			return 0, scanBounded
		}
		arg[i] = at
		distinct = distinct && (at < 0 || !slices.Contains(arg[:i], at))
	}
	if distinct {
		return ub / float64(nq), scanGreedy
	}
	return sc.hung.Solve(w, nq, nc) / float64(nq), scanMatched
}

// EncodeQuery embeds a query table's columns with the index corpus.
func (s *Starmie) EncodeQuery(q *table.Table) []vector.Vec {
	return s.enc.EncodeTableColumns(q, s.Corpus)
}

// starmiePrepared is Starmie's PreparedQuery: the query's contextualized
// column embeddings, encoded once against the index corpus, and the same
// vectors in the layout the exact scan reads.
type starmiePrepared struct {
	query  *table.Table
	cols   []vector.Vec
	panels *vector.QueryPanels
}

// Query implements PreparedQuery.
func (p *starmiePrepared) Query() *table.Table { return p.query }

// Prepare implements Searcher: the query's columns are embedded
// exactly once. Searchers sharing this searcher's corpus — the shards of a
// partitioned lake — accept the preparation interchangeably.
func (s *Starmie) Prepare(query *table.Table) PreparedQuery {
	cols := s.EncodeQuery(query)
	return &starmiePrepared{query: query, cols: cols, panels: vector.NewQueryPanels(cols)}
}

// TopKPrepared implements Searcher as the staged plan: retrieve candidates
// (every lake table in Exact mode; the owners of the nearest column
// embeddings in ANN mode), then score them exactly, in parallel, and keep
// the top k. The candidate scan stops scoring further tables once ctx is
// cancelled and the call returns ctx.Err().
func (s *Starmie) TopKPrepared(ctx context.Context, pq PreparedQuery, k int) ([]Scored, error) {
	p, ok := pq.(*starmiePrepared)
	if !ok {
		return nil, fmt.Errorf("starmie: %w: %T", ErrForeignPrepared, pq)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tr := TraceFrom(ctx)
	t0 := time.Now()
	cands := s.lake.Tables()
	if s.mode == ANN && s.graph != nil && k > 0 {
		// ANN retrieval needs a positive k to size its pool; k <= 0 asks
		// for the full ranking, which only the exact scan can provide.
		perColumn := int(math.Ceil(s.Oversample * float64(k)))
		cands = tablesNamed(s.lake, s.annCandidateNames(p.cols, perColumn))
	}
	tr.AddRetrieve(t0)
	t0 = time.Now()
	out, err := rankTablesCtx(ctx, cands, k, s.workers, func() (scoreFunc, func()) {
		sc := scanPool.Get().(*scan)
		var exits [3]int64
		return func(t *table.Table, floor float64) (float64, bool) {
				score, exit := sc.score(s, p.panels, t, floor)
				exits[exit]++
				return score, exit == scanBounded
			}, func() {
				tr.AddScan(exits[scanBounded], exits[scanGreedy], exits[scanMatched])
				scanPool.Put(sc)
			}
	})
	if err == nil {
		tr.AddScore(t0)
	}
	return out, err
}

// NominatePrepared implements Searcher: the depth nearest column
// embeddings per query column in ANN mode (the per-shard nomination stage
// of the sharded candidate-only plan), every lake table otherwise.
func (s *Starmie) NominatePrepared(ctx context.Context, pq PreparedQuery, depth int) ([]string, error) {
	p, ok := pq.(*starmiePrepared)
	if !ok {
		return nil, fmt.Errorf("starmie: %w: %T", ErrForeignPrepared, pq)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.mode != ANN || s.graph == nil || depth <= 0 {
		return s.lake.Names(), nil
	}
	return s.annCandidateNames(p.cols, depth), nil
}

// ScorePrepared implements Searcher.
func (s *Starmie) ScorePrepared(pq PreparedQuery, t *table.Table) float64 {
	return s.score(pq.(*starmiePrepared).panels, t)
}

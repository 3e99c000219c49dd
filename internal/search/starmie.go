package search

import (
	"context"
	"fmt"
	"hash/fnv"
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
//
// The index is one or more parts (WithShards): each part owns the tables
// Assign routes to it, its own HNSW graph and its own saved file set, while
// the corpus, the blocks and the exact scan stay one over the whole lake.
type Starmie struct {
	enc    embed.StarmieEncoder
	lake   *lake.Lake
	corpus *tokenize.Corpus
	// idx is the ordered table list the exact scan walks; views share it.
	idx     *index
	workers int
	// MinSim drops column matches below this similarity (Starmie's
	// verification threshold).
	MinSim float64

	// mode selects the candidate stage; parts partition the lake, n >= 1.
	// A one-part index's part is bound to lake itself; the parts of a
	// sharded index hold sub-lakes of their own, which AddTable and
	// RemoveTable keep in step.
	mode  Mode
	parts []*part
	// Oversample and EfSearch shape the candidate stage: every part's graph
	// retrieves the nearest column embeddings per query column — ceil(
	// Oversample*k) of them for one part, ceil(Oversample*k/n)+
	// annNominateSlack for n — with beam width at most EfSearch, and the
	// owner tables are re-ranked exactly. Raise Oversample to trade latency
	// for recall.
	Oversample float64
	EfSearch   int
	// manualCompact (set via SetAutoCompact(false)) stops mutations from
	// rebuilding graphs inline once tombstones dominate; an attached
	// maintainer calls Compact on its own schedule instead. Zero value
	// keeps the inline policy, so clones and views inherit the setting
	// through plain struct copies.
	manualCompact bool
}

// part is one shard of the index: its tables and the staged retrieval
// state over them (mode ANN). The HNSW graph's nodes are rows of the
// index's blocks (a tombstoned node keeps the row of a block the index may
// have dropped, until compaction). Node ids map to their owning table
// via annTables (tombstoned nodes keep stale entries until a rebuild);
// annIDs holds the live node ids of each table. The graph exists only after
// SetMode(ANN) (or LoadANN) and is kept in sync by AddTable / RemoveTable /
// refreshBig from then on; exact-mode searchers carry no graph and pay
// nothing.
type part struct {
	lake      *lake.Lake
	graph     *ann.Index
	annTables []string
	annIDs    map[string][]int
}

// entry is one indexed table. block holds its column embeddings as NumCols
// x Dim row-major float64s, exactly as the encoder emitted them — every row
// unit length or all-zero (EncodeTableColumns' contract), which is what lets
// the scan score a cell as a plain dot product. code is the same rows
// quantised to int8 codes at one scale for the whole table, with one error
// bound for all its rows, what the scan's pre-pass reads instead of the
// float64s; it is derived from block wherever a block is installed, and
// never saved. The blocks and codes of a built or loaded index are carved
// from lake-wide allocations; AddTable and refreshBig install a block and
// codes of their own. Both are immutable once installed, so clones share
// them. big marks a table with at least one column whose token count
// exceeds the encoder budget: its embeddings depend on the corpus TF-IDF
// selection and must be refreshed whenever the corpus changes (see
// AddTable/RemoveTable). Every other table embeds corpus-independently.
type entry struct {
	t     *table.Table
	block []float64
	code  vector.CodeBlock
	big   bool
}

// index is the searcher's table list: the entries in lake order, which the
// exact scan reads as is, and each name's position among them, for the
// paths that look a table up by name. Views share one index through their
// pointer, so a mutation through a view reaches its parent. CloneWithLake
// copies both halves (never the blocks): a clone's removal shifts entries in
// an array of its own, never in one a published snapshot still scans.
type index struct {
	entries []entry
	pos     map[string]int
}

func newIndex(n int) *index {
	return &index{entries: make([]entry, 0, n), pos: make(map[string]int, n)}
}

func (x *index) add(e entry) {
	x.pos[e.t.Name] = len(x.entries)
	x.entries = append(x.entries, e)
}

// get returns name's entry, or nil when name is not indexed.
func (x *index) get(name string) *entry {
	if i, ok := x.pos[name]; ok {
		return &x.entries[i]
	}
	return nil
}

// remove drops name's entry, keeping the others in order.
func (x *index) remove(name string) {
	i := x.pos[name]
	delete(x.pos, name)
	x.entries = slices.Delete(x.entries, i, i+1)
	for j, e := range x.entries[i:] {
		x.pos[e.t.Name] = i + j
	}
}

// named resolves an approximate backend's nominees to their entries,
// skipping names no longer indexed.
func (x *index) named(names []string) []entry {
	out := make([]entry, 0, len(names))
	for _, n := range names {
		if e := x.get(n); e != nil {
			out = append(out, *e)
		}
	}
	return out
}

// Assign returns the part a table name belongs to under n parts: FNV-1a of
// the name modulo n. It depends only on (name, n), so every process
// partitioning the same lake the same way routes a table identically.
func Assign(name string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % uint32(n))
}

// partition splits l into n parts by Assign, keeping l's iteration order
// within each part. One part is bound to l itself; several get sub-lakes
// sharing l's table objects, so partitioning costs O(tables), not O(cells).
func partition(l *lake.Lake, n int) []*part {
	if n <= 1 {
		return []*part{{lake: l}}
	}
	parts := make([]*part, n)
	for i := range parts {
		parts[i] = &part{lake: lake.New(fmt.Sprintf("%s#%d", l.Name, i))}
	}
	for _, t := range l.Tables() {
		parts[Assign(t.Name, n)].lake.MustAdd(t)
	}
	return parts
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
	tables := l.Tables()
	blocks, codes := carveBlocks(tables, enc.Dim())
	for i, t := range tables {
		s.idx.add(entry{t: t, block: blocks[i], code: codes[i], big: s.addColumns(t)})
	}
	par.For(s.workers, len(tables), func(i int) {
		e := &s.idx.entries[i]
		s.embedInto(e.block, &e.code, e.t)
	})
	return s
}

// addColumns adds t's columns to the corpus and reports whether any of them
// exceeds the encoder's token budget.
func (s *Starmie) addColumns(t *table.Table) (big bool) {
	for i := range t.Columns {
		tokens := embed.ColumnTokens(&t.Columns[i])
		s.corpus.AddDocument(tokens)
		big = big || len(tokens) > embed.TokenBudget
	}
	return big
}

// emptyStarmie is the searcher before any table is indexed — what the
// constructor fills by embedding the lake and LoadStarmie from a file.
func emptyStarmie(l *lake.Lake, enc embed.StarmieEncoder, o options) *Starmie {
	return &Starmie{
		enc:        enc,
		lake:       l,
		corpus:     &tokenize.Corpus{},
		idx:        newIndex(l.Len()),
		workers:    o.workers,
		MinSim:     0.3,
		parts:      partition(l, o.shards),
		Oversample: DefaultOversample,
		EfSearch:   DefaultEfSearch,
	}
}

// carveBlocks cuts one allocation sized for every column of tables into
// per-table blocks (NumCols x dim each, capacity-capped so an append can
// never run into a neighbour), in table order, and the blocks' codes
// likewise.
func carveBlocks(tables []*table.Table, dim int) ([][]float64, []vector.CodeBlock) {
	cols := make([]int, len(tables))
	total := 0
	for i, t := range tables {
		cols[i] = t.NumCols()
		total += cols[i] * dim
	}
	arena := make([]float64, total)
	blocks := make([][]float64, len(tables))
	for i, n := range cols {
		n *= dim
		blocks[i], arena = arena[:n:n], arena[n:]
	}
	return blocks, vector.CarveCodeBlocks(cols, dim)
}

// indexCorpus hands the encoder the index corpus, which it reads only for
// a column over the token budget.
func (s *Starmie) indexCorpus() *tokenize.Corpus { return s.corpus }

// embedInto encodes t's columns against the current corpus into block and
// quantises them into code.
func (s *Starmie) embedInto(block []float64, code *vector.CodeBlock, t *table.Table) {
	s.enc.EncodeTableColumnsInto(block, t, s.indexCorpus)
	code.Quantize(block, s.enc.Dim())
}

// embed is embedInto a block and codes of t's own.
func (s *Starmie) embed(t *table.Table) ([]float64, vector.CodeBlock) {
	block, code := make([]float64, t.NumCols()*s.enc.Dim()), vector.NewCodeBlock(t.NumCols(), s.enc.Dim())
	s.embedInto(block, &code, t)
	return block, code
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
// serving caches keyed by them) distinct between the two query plans, and a
// sharded index names its part count, which shapes ANN rankings.
func (s *Starmie) Name() string {
	name := "starmie"
	if s.mode == ANN {
		name = "starmie+ann"
	}
	if len(s.parts) > 1 {
		return fmt.Sprintf("sharded%d(%s)", len(s.parts), name)
	}
	return name
}

// Lake implements Searcher.
func (s *Starmie) Lake() *lake.Lake { return s.lake }

// Parts implements Searcher: a one-part index is its own single part; a
// sharded one returns a read-only view per part, bound to the part's
// sub-lake and graph and sharing everything else — what the persistence
// layer saves one file set per, and what Join merges back. The views are for
// saving and sizing: their exact scan still walks the whole index.
func (s *Starmie) Parts() []Searcher {
	if len(s.parts) == 1 {
		return []Searcher{s}
	}
	views := make([]Searcher, len(s.parts))
	for i, p := range s.parts {
		v := *s
		v.lake, v.parts = p.lake, s.parts[i:i+1:i+1]
		views[i] = &v
	}
	return views
}

// SetMode implements Searcher: ANN switches the retrieval stage to HNSW
// candidates exactly re-ranked, building every part's graph over its
// column embeddings if none is installed yet; Exact restores the full
// scan. Installed graphs survive mode flips (and keep absorbing
// mutations) so toggling is cheap.
func (s *Starmie) SetMode(m Mode) error {
	switch m {
	case Exact:
	case ANN:
		for _, p := range s.parts {
			if p.graph == nil {
				s.buildGraph(p)
			}
		}
	default:
		return fmt.Errorf("starmie: SetMode(%d): %w", int(m), ErrUnknownMode)
	}
	s.mode = m
	return nil
}

// RetrievalMode implements Searcher.
func (s *Starmie) RetrievalMode() Mode { return s.mode }

// hasGraphs reports whether the parts carry their candidate graphs, which
// they are built, loaded and cloned with all together.
func (s *Starmie) hasGraphs() bool { return s.parts[0].graph != nil }

// IndexBytes implements Searcher: the estimated resident bytes of the
// installed candidate graphs, zero without them.
func (s *Starmie) IndexBytes() IndexFootprint {
	var fp IndexFootprint
	for _, p := range s.parts {
		if p.graph != nil {
			fp.Bytes += p.graph.Bytes()
		}
	}
	return fp
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

// Graph exposes the first part's candidate graph (nil without one) so
// tests can read its shape. Callers must not mutate it.
func (s *Starmie) Graph() *ann.Index { return s.parts[0].graph }

// buildGraph indexes every column embedding of p's tables into a fresh
// HNSW graph, in p's lake order so the graph is identical across
// processes. The bulk path goes through ann.Build — batch-parallel and
// bit-reproducible at every worker count — with node ids equal to
// insertion positions, exactly as the incremental annAdd path books them.
// The graph's nodes are the blocks' own rows.
func (s *Starmie) buildGraph(p *part) {
	p.annTables = nil
	p.annIDs = make(map[string][]int, p.lake.Len())
	var rows []vector.Vec
	for _, t := range p.lake.Tables() {
		s.blockRows(s.idx.get(t.Name).block, func(v vector.Vec) {
			rows = append(rows, v)
			p.annTables = append(p.annTables, t.Name)
		})
	}
	p.graph = ann.Build(s.enc.Dim(), rows, ann.Config{}, s.workers)
	for id, name := range p.annTables {
		p.annIDs[name] = append(p.annIDs[name], id)
	}
}

// annAdd indexes table name's current column embeddings into p's graph.
func (s *Starmie) annAdd(p *part, name string) {
	s.blockRows(s.idx.get(name).block, func(v vector.Vec) {
		id := p.graph.Add(v)
		p.annTables = append(p.annTables, name)
		p.annIDs[name] = append(p.annIDs[name], id)
	})
}

// annRemove tombstones table name's nodes in p's graph.
func (p *part) annRemove(name string) {
	for _, id := range p.annIDs[name] {
		if err := p.graph.Remove(id); err != nil {
			// Ids come from annIDs bookkeeping and are always live.
			panic(err)
		}
	}
	delete(p.annIDs, name)
}

// maybeRebuild compacts every graph in which tombstones dominate, unless a
// maintainer owns compaction (SetAutoCompact(false)). The size floor keeps
// tiny, churn-heavy indexes from rebuilding on every other mutation.
func (s *Starmie) maybeRebuild() {
	for _, p := range s.parts {
		g := p.graph
		if s.manualCompact || g == nil || g.Len() < 8 || g.DeletedFraction() <= RebuildThreshold {
			continue
		}
		p.rebuildGraph()
	}
}

// rebuildGraph compacts p's graph from its live nodes, rebooking the
// node-to-table mapping as ann.Compact reports the surviving ids. Live
// insertion order is preserved, so searches rank identically before and
// after.
func (p *part) rebuildGraph() {
	oldTables := p.annTables
	p.annTables = nil
	p.annIDs = make(map[string][]int, len(p.annIDs))
	p.graph = p.graph.Compact(func(oldID, newID int) {
		name := oldTables[oldID]
		p.annTables = append(p.annTables, name)
		p.annIDs[name] = append(p.annIDs[name], newID)
	})
}

// SetAutoCompact implements Searcher: with auto compaction off,
// AddTable/RemoveTable never rebuild a graph inline and tombstones
// accumulate until Compact runs.
func (s *Starmie) SetAutoCompact(on bool) { s.manualCompact = !on }

// Compact implements Searcher: it rebuilds every graph holding tombstones
// from its live nodes, reporting whether any rebuild ran.
func (s *Starmie) Compact() bool {
	did := false
	for _, p := range s.parts {
		if p.graph != nil && p.graph.Len() != p.graph.Live() {
			p.rebuildGraph()
			did = true
		}
	}
	return did
}

// MaintenanceStats implements Searcher, merged over the parts' graphs.
func (s *Starmie) MaintenanceStats() MaintenanceStats {
	var m MaintenanceStats
	for _, p := range s.parts {
		if g := p.graph; g != nil {
			m = m.Merge(MaintenanceStats{
				GraphNodes:           g.Len(),
				GraphLive:            g.Live(),
				GraphDeletedFraction: g.DeletedFraction(),
			})
		}
	}
	return m
}

// ModeView implements Searcher: the view is a shallow copy sharing every
// piece of index state (including the graphs, whose searches are safe
// concurrently) under the requested retrieval mode. An ANN view of a
// graph-less searcher is unavailable — build the graphs first via SetMode.
func (s *Starmie) ModeView(m Mode) (Searcher, bool) {
	if m == s.mode {
		return s, true
	}
	if m == ANN && !s.hasGraphs() {
		return nil, false
	}
	if m != Exact && m != ANN {
		return nil, false
	}
	c := *s
	c.mode = m
	return &c, true
}

// annCandidateNames nominates, from every part's graph, the owner tables
// of the nearest column embeddings to each query column for a top-k
// query, name-sorted for determinism. One part fetches ceil(Oversample*k)
// neighbours per query column; n parts fetch ceil(Oversample*k/n) plus
// annNominateSlack each. The beam width ef caps at the searcher's EfSearch
// but shrinks with shallow fetches: HNSW traversal cost is
// ef-proportional, and a beam several times the fetch depth already
// saturates recall, so a part fetching ~k/n must not pay the full-depth
// beam one graph over the whole lake is tuned for. No graph nodes (every
// table without columns) means no nominees, and the ranking is empty, at
// every part count.
func (s *Starmie) annCandidateNames(qCols []vector.Vec, k int) []string {
	perColumn := int(math.Ceil(s.Oversample * float64(k)))
	if n := len(s.parts); n > 1 {
		perColumn = int(math.Ceil(s.Oversample*float64(k)/float64(n))) + annNominateSlack
	}
	ef := s.EfSearch
	if scaled := 4*perColumn + 16; scaled < ef {
		ef = scaled
	}
	seen := make(map[string]bool)
	for _, p := range s.parts {
		for _, qv := range qCols {
			for _, id := range p.graph.Search(qv, perColumn, ef) {
				seen[p.annTables[id]] = true
			}
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// owner returns the part holding name, or nil. It asks the parts' lakes
// rather than Assign, so a layout loaded from a manifest routes its tables
// where it saved them.
func (s *Starmie) owner(name string) *part {
	for _, p := range s.parts {
		if p.lake.Get(name) != nil {
			return p
		}
	}
	return nil
}

// AddTable implements Searcher: the new table's columns join the corpus
// and are embedded with it; tables whose TF-IDF token selection depends on
// the corpus (those with over-budget columns) are re-embedded so every
// stored embedding matches what a from-scratch index over the new table set
// would hold. The table must (also) be added to the lake before querying; a
// sharded index adds it to its part's sub-lake itself.
func (s *Starmie) AddTable(t *table.Table) error {
	if s.idx.get(t.Name) != nil {
		return fmt.Errorf("starmie: AddTable(%q): %w", t.Name, ErrDuplicateTable)
	}
	p := s.parts[Assign(t.Name, len(s.parts))]
	if p.lake != s.lake {
		if err := p.lake.Add(t); err != nil {
			return err
		}
	}
	big := s.addColumns(t)
	block, code := s.embed(t)
	s.idx.add(entry{t: t, block: block, code: code, big: big})
	s.refreshBig(t.Name)
	if p.graph != nil {
		s.annAdd(p, t.Name)
	}
	s.maybeRebuild()
	return nil
}

// RemoveTable implements Searcher. It must run while the table is still
// in the lake (its columns have to leave the corpus); remove it from the
// lake afterwards. A sharded index removes it from its part's sub-lake
// itself.
func (s *Starmie) RemoveTable(name string) error {
	e := s.idx.get(name)
	if e == nil {
		return fmt.Errorf("starmie: RemoveTable(%q): %w", name, ErrUnknownTable)
	}
	p := s.owner(name)
	if p == nil {
		return fmt.Errorf("starmie: RemoveTable(%q): table already left the lake: %w", name, ErrUnknownTable)
	}
	for i := range e.t.Columns {
		s.corpus.RemoveDocument(embed.ColumnTokens(&e.t.Columns[i]))
	}
	s.idx.remove(name)
	if p.graph != nil {
		p.annRemove(name)
	}
	s.refreshBig("")
	if p.lake != s.lake {
		_ = p.lake.Remove(name) // present: owner found it there
	}
	s.maybeRebuild()
	return nil
}

// refreshBig re-embeds every indexed table marked corpus-sensitive, in
// parallel, skipping the one just encoded with the current corpus. The
// graphs follow the changed tables in index order. Tables under the token
// budget are never marked big, so the common mutation costs O(new table)
// plus one walk of the entries.
func (s *Starmie) refreshBig(skip string) {
	var stale []int
	for i, e := range s.idx.entries {
		if e.big && e.t.Name != skip {
			stale = append(stale, i)
		}
	}
	if len(stale) == 0 {
		return
	}
	embedded := par.Map(s.workers, len(stale), func(i int) entry {
		e := s.idx.entries[stale[i]]
		e.block, e.code = s.embed(e.t)
		return e
	})
	for i, at := range stale {
		e := &s.idx.entries[at]
		old := e.block
		*e = embedded[i]
		if slices.Equal(old, e.block) {
			// Corpus refreshes usually re-select the same TF-IDF tokens
			// and reproduce the old embeddings bit-for-bit — skipping
			// those keeps mutation cost O(delta) instead of tombstoning
			// (and eventually rebuilding over) every big table each time.
			continue
		}
		if p := s.owner(e.t.Name); p != nil && p.graph != nil {
			// The stored vectors actually changed; the graph must follow
			// (nodes are immutable once inserted, so swap them).
			p.annRemove(e.t.Name)
			s.annAdd(p, e.t.Name)
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

// CloneWithLake implements Searcher: the returned searcher is bound to l (a
// clone of this searcher's lake holding the same table set) and owns its
// own corpus, table list, sub-lakes and graph adjacency, so
// AddTable/RemoveTable on it never disturb this searcher. The blocks
// themselves are shared — both mutation paths install a fresh block
// (AddTable, refreshBig), never write into one — so a clone costs one copy
// of the entries and their name map, not the lake's vectors.
func (s *Starmie) CloneWithLake(l *lake.Lake) Searcher {
	c := *s
	c.lake = l
	c.corpus = s.corpus.Clone()
	c.idx = &index{entries: slices.Clone(s.idx.entries), pos: maps.Clone(s.idx.pos)}
	c.parts = make([]*part, len(s.parts))
	for i, p := range s.parts {
		cp := &part{lake: l}
		if p.lake != s.lake {
			cp.lake = p.lake.Clone()
		}
		if p.graph != nil {
			// Insertions rewire existing neighbor lists, so the clone needs
			// its own adjacency (the rows stay shared); the id bookkeeping
			// is append-mutated and is deep-copied for the same reason.
			cp.graph = p.graph.Clone()
			cp.annTables = slices.Clone(p.annTables)
			cp.annIDs = make(map[string][]int, len(p.annIDs))
			for n, ids := range p.annIDs {
				cp.annIDs[n] = slices.Clone(ids)
			}
		}
		c.parts[i] = cp
	}
	return &c
}

// scan is one chunk's ranking state and scratch: the chunk being ranked
// (the query, the candidates, the trace) and the exits its candidates took,
// then the flat |Q| x ncols weight buffer, the per-row arg-maxes and the
// matching's working arrays. Scans are pooled, so a steady-state query
// allocates none of it. A scan is the chunkRanker of Starmie's exact scan.
type scan struct {
	s     *Starmie
	q     *starmiePrepared
	cands []entry
	tr    *Trace
	exits [scanExits]int64

	w    []float64
	arg  []int
	hung match.Scratch
}

// openScan takes a pooled scan for a chunk of cands.
func openScan(s *Starmie, q *starmiePrepared, cands []entry, tr *Trace) *scan {
	sc := scanPool.Get().(*scan)
	sc.s, sc.q, sc.cands, sc.tr, sc.exits = s, q, cands, tr, [scanExits]int64{}
	return sc
}

// reach implements chunkRanker: the code walk of score over the query's
// first panel, and the reach it leaves there — no less than the table's
// score, and, when below a floor, what score's walk cuts on at that floor by
// the same arithmetic. A query without rows scores every table 0 and has
// no walk: +Inf.
func (sc *scan) reach(i int) float64 {
	nq := sc.q.panels.Len()
	if nq == 0 {
		return math.Inf(1)
	}
	var bounds [vector.PanelRows]float64
	sc.q.codes.RowBounds(0, sc.cands[i].code, &bounds)
	minSim := max(sc.s.MinSim, 0)
	rows := min(nq, vector.PanelRows)
	var ub float64
	for r := 0; r < rows; r++ {
		ub += clamp(bounds[r], minSim)
	}
	return reachAfter(ub, rows-1, nq)
}

// scoreAt implements chunkRanker: score of candidate i, counted by exit.
func (sc *scan) scoreAt(i int, reach, floor float64) (*table.Table, float64, bool) {
	score, exit := sc.score(sc.s, sc.q, &sc.cands[i], floor, reach)
	sc.exits[exit]++
	return sc.cands[i].t, score, exit <= scanBounded
}

// release implements chunkRanker: it records the chunk's exits — a table
// cut on its reach read no float64, so it is coded — and returns the scan
// to the pool.
func (sc *scan) release(cut int) {
	sc.tr.AddScan(sc.exits[scanCoded]+int64(cut), sc.exits[scanBounded], sc.exits[scanGreedy], sc.exits[scanMatched])
	sc.s, sc.q, sc.cands, sc.tr = nil, nil, nil, nil
	scanPool.Put(sc)
}

// The exits of scan.score, which index the per-query outcome counts.
const (
	scanCoded   = iota // cut by the code bound, no float64 read
	scanBounded        // cut by the upper bound, no matching computed
	scanGreedy         // distinct arg-maxes: the bound is the matching
	scanMatched        // ran the Hungarian step
	scanExits
)

var scanPool = sync.Pool{New: func() any { return new(scan) }}

// score is the exact unionability score of the table stored in e under the
// query q (unit or all-zero rows, like the stored blocks; interleaved once
// per query into the panels the cosine kernel reads, while the blocks stay
// row-major as built): the maximum-weight matching over cells w[i][j] =
// min(q[i]·c[j], 1) where that exceeds MinSim (floored at 0: a non-positive
// weight never joins a matching), else 0, divided by |Q|. It leaves by the
// cheapest exact exit. ub = Σᵢ maxⱼ w[i][j] / |Q| bounds every matching from
// above — in floating point too: both sums run in row order and rounding is
// monotone — so the table is cut, unscored, once ub cannot reach floor;
// strictly below only, so that a tie on score still gets its name compared.
// Before a float64 is read, the same walk runs over the code bounds of the
// query rows over the table (vector.QueryCodes.RowBounds), each at least
// the row's largest float64 cell: the clamp is monotone, so a row's clamped
// bound is at least its largest weight, and the walk's sums and reaches are
// at least the float walk's at every row; a table it cuts the float walk
// would cut too, and the ranking cannot tell which cut it. A finite reach —
// the first pass's, stored with a step to spare — resumes that walk after
// the first panel instead of computing it again: the spare step outweighs
// every rounding, so reach·|Q| less the rows still to come is at least the
// panel's sum, every reach after it is at least the exact walk's, and
// every cut is still one the float walk makes. When the
// rows' arg-maxes are distinct columns they are a matching that attains
// ub, and any other optimal matching needs the same per-row weights, so ub
// is the Hungarian total bit for bit. Otherwise the Hungarian step decides.
func (sc *scan) score(s *Starmie, q *starmiePrepared, e *entry, floor, reach float64) (score float64, exit int) {
	nq, nc := q.panels.Len(), len(e.block)/s.enc.Dim()
	if nq == 0 || nc == 0 {
		return 0, scanGreedy
	}
	sc.w, sc.arg = slices.Grow(sc.w[:0], nq*nc), slices.Grow(sc.arg[:0], nq)
	w, arg := sc.w[:nq*nc], sc.arg[:nq]
	minSim := max(s.MinSim, 0)
	if floor > 0 {
		// No weight is negative, so a floor at or below 0 cuts nothing.
		var ub float64
		var bounds [vector.PanelRows]float64
		i := 0
		if !math.IsInf(reach, 1) {
			if reach < floor {
				return 0, scanCoded
			}
			i = min(nq, vector.PanelRows)
			ub = reach*float64(nq) - float64(nq-i)
		}
		for ; i < nq; i++ {
			if i%vector.PanelRows == 0 {
				q.codes.RowBounds(i/vector.PanelRows, e.code, &bounds)
			}
			ub += clamp(bounds[i%vector.PanelRows], minSim)
			if cannotReach(ub, i, nq, floor) {
				return 0, scanCoded
			}
		}
	}
	var ub float64
	distinct := true
	for i := 0; i < nq; i++ {
		if i%vector.PanelRows == 0 {
			// The kernel fills four query rows at a time; a table cut
			// below never pays for the panels after the cut.
			q.panels.DotBlock(i/vector.PanelRows, e.block, w)
		}
		best, at := clampRow(w[i*nc:(i+1)*nc], minSim)
		ub += best
		if cannotReach(ub, i, nq, floor) {
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

// clamp turns a dot into a weight: 0 unless above minSim, at most 1.
func clamp(sim, minSim float64) float64 {
	if !(sim > minSim) {
		return 0
	}
	return min(sim, 1)
}

// clampRow turns a row of dots into weights in place and returns its largest
// weight and the first column holding it (-1 for an all-zero row).
func clampRow(row []float64, minSim float64) (best float64, at int) {
	at = -1
	for j, sim := range row {
		sim = clamp(sim, minSim)
		row[j] = sim
		if sim > best {
			best, at = sim, j
		}
	}
	return best, at
}

// cannotReach reports whether rows 0..i, summing to ub, leave the bound
// below floor.
func cannotReach(ub float64, i, nq int, floor float64) bool { return reachAfter(ub, i, nq) < floor }

// reachAfter is the highest score rows 0..i, summing to ub, leave within
// reach: a row adds at most 1, so the rows still to come can lift it no
// higher than this; on the last row it is the bound. Rounding is monotone
// and a row's weight is at most 1, so it never grows from one row to the
// next.
func reachAfter(ub float64, i, nq int) float64 {
	reach := ub
	for r := i + 1; r < nq; r++ {
		reach++
	}
	return reach / float64(nq)
}

// EncodeQuery embeds a query table's columns with the index corpus.
func (s *Starmie) EncodeQuery(q *table.Table) []vector.Vec {
	return s.enc.EncodeTableColumns(q, s.indexCorpus)
}

// starmiePrepared is Starmie's PreparedQuery: the query's contextualized
// column embeddings, encoded once against the index corpus, and the same
// vectors in the layouts the exact scan reads: panels for the float64 dots,
// codes for its pre-pass.
type starmiePrepared struct {
	query  *table.Table
	cols   []vector.Vec
	panels *vector.QueryPanels
	codes  *vector.QueryCodes
}

// Query implements PreparedQuery.
func (p *starmiePrepared) Query() *table.Table { return p.query }

// Prepare implements Searcher: the query's columns are embedded
// exactly once.
func (s *Starmie) Prepare(query *table.Table) PreparedQuery {
	cols := s.EncodeQuery(query)
	return &starmiePrepared{query: query, cols: cols, panels: vector.NewQueryPanels(cols), codes: vector.NewQueryCodes(cols)}
}

// TopKPrepared implements Searcher as the staged plan: retrieve candidates
// (every indexed table, in index order, in Exact mode; the owners of the
// nearest column embeddings in every part's graph in ANN mode, resolved to
// their entries once), then score them exactly,
// in parallel, and keep the top k. The candidate scan stops scoring further
// tables once ctx is cancelled and the call returns ctx.Err().
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
	cands := s.idx.entries
	if s.mode == ANN && s.hasGraphs() && k > 0 {
		// ANN retrieval needs a positive k to size its pool; k <= 0 asks
		// for the full ranking, which only the exact scan can provide.
		cands = s.idx.named(s.annCandidateNames(p.cols, k))
	}
	tr.AddRetrieve(t0)
	t0 = time.Now()
	out, err := rankTablesCtx(ctx, len(cands), k, s.workers, func() chunkRanker { return openScan(s, p, cands, tr) })
	if err == nil {
		tr.AddScore(t0)
	}
	return out, err
}

// Join merges an index's parts, each loaded on its own (LoadStarmie,
// LoadANN) against its sub-lake, back into one searcher over full — the
// warm-start dual of WithShards. The parts' lakes must partition full
// exactly, every table in one part; anything else fails as
// ErrLayoutMismatch. Every part saved the same lake-wide corpus, so part 0's
// serves all. A single part bound to full already is the whole index and is
// returned as is.
func Join(full *lake.Lake, parts []*Starmie) (*Starmie, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("%w: no parts", ErrLayoutMismatch)
	}
	// Every part table must be the lake's own and no table may sit in two
	// parts; then the counts agree iff the parts cover the lake exactly once.
	seen := make(map[string]bool, full.Len())
	for i, p := range parts {
		for _, name := range p.lake.Names() {
			if t := full.Get(name); t == nil || t != p.lake.Get(name) {
				return nil, fmt.Errorf("%w: part %d holds %q, the lake does not", ErrLayoutMismatch, i, name)
			}
			if seen[name] {
				return nil, fmt.Errorf("%w: table %q in two parts", ErrLayoutMismatch, name)
			}
			seen[name] = true
		}
	}
	if len(seen) != full.Len() {
		return nil, fmt.Errorf("%w: parts hold %d tables, lake holds %d", ErrLayoutMismatch, len(seen), full.Len())
	}
	if len(parts) == 1 && parts[0].lake == full {
		return parts[0], nil
	}
	s := *parts[0]
	s.lake, s.parts = full, nil
	s.idx = newIndex(full.Len())
	for _, t := range full.Tables() {
		s.idx.add(entry{t: t})
	}
	for _, p := range parts {
		for _, e := range p.idx.entries {
			*s.idx.get(e.t.Name) = e
		}
		s.parts = append(s.parts, p.parts...)
	}
	return &s, nil
}

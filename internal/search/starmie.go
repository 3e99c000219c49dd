package search

import (
	"context"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"

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
// One index covers the whole lake: one corpus, one ordered list of column
// blocks, one exact scan and one saved file.
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

// NewStarmie indexes the lake with the default Starmie encoder.
func NewStarmie(l *lake.Lake, opts ...Option) *Starmie {
	return NewStarmieWithEncoder(l, embed.NewStarmie(), opts...)
}

// NewStarmieWithEncoder indexes the lake with a custom encoder in one
// parallel pass over the lake: each chunk of tables tokenizes every column
// once, counts the tokens into a corpus of its own and encodes each table
// with no column over the token budget from those same tokens — such a
// table never reads the corpus. A chunk's corpus is merged into the index
// corpus as the chunk ends (integer frequencies: the order is immaterial),
// so at most one lives per worker. Only then are the over-budget tables
// embedded, in parallel, against the whole lake's corpus. Every encode of
// the build reads a hot set before it derives a vector its token-vector
// table lacks: the vectors a stride sample of the lake reads more than
// once, derived before the pass and dropped as the build returns.
func NewStarmieWithEncoder(l *lake.Lake, enc embed.StarmieEncoder, opts ...Option) *Starmie {
	o := applyOptions(opts)
	hot := hotSet(enc, hotSample(l.Tables()), o.workers)
	defer hot.Release()
	return buildStarmie(l, enc, hot, o)
}

// hotSampleStride and hotSampleTables fix the hot set's sample: every 16th
// table, or a wider stride where that keeps it to about 512 tables.
const (
	hotSampleStride = 16
	hotSampleTables = 512
)

// hotSample is every stride-th table of tables.
func hotSample(tables []*table.Table) []*table.Table {
	stride := max(hotSampleStride, len(tables)/hotSampleTables)
	var sample []*table.Table
	for i := 0; i < len(tables); i += stride {
		sample = append(sample, tables[i])
	}
	return sample
}

// hotSet counts the vectors enc reads encoding every column of sample and
// derives those read more than once (embed.HotCounter), on up to workers
// goroutines; nil when there are none.
func hotSet(enc embed.StarmieEncoder, sample []*table.Table, workers int) *embed.HotSet {
	c := enc.Model.NewHotCounter()
	var tk tokenizer
	for _, t := range sample {
		for _, tokens := range tk.tokens(t) {
			c.Add(tokens)
		}
	}
	return c.HotSet(workers)
}

// buildStarmie is NewStarmieWithEncoder's pass, its encodes reading hot (nil
// for none) before a derivation. The stored bits do not depend on hot.
func buildStarmie(l *lake.Lake, enc embed.StarmieEncoder, hot *embed.HotSet, o options) *Starmie {
	// The build encodes through a copy of enc reading hot; the searcher it
	// returns holds enc itself.
	s := emptyStarmie(l, enc.WithHotSet(hot), o)
	tables := l.Tables()
	blocks, codes := carveBlocks(tables, enc.Dim())
	for i, t := range tables {
		s.idx.add(entry{t: t, block: blocks[i], code: codes[i]})
	}
	var mu sync.Mutex
	par.ForChunks(s.workers, len(tables), func(lo, hi int) {
		var tk tokenizer
		part := &tokenize.Corpus{}
		for i := lo; i < hi; i++ {
			e := &s.idx.entries[i]
			e.big = s.indexTable(&tk, e.t, part, e.block, &e.code)
		}
		mu.Lock()
		defer mu.Unlock()
		s.corpus.Merge(part)
	})
	var big []int
	for i, e := range s.idx.entries {
		if e.big {
			big = append(big, i)
		}
	}
	par.For(s.workers, len(big), func(i int) {
		e := &s.idx.entries[big[i]]
		s.embedInto(e.block, &e.code, e.t)
	})
	s.enc = enc
	return s
}

// tokenizer holds the token lists of one table's columns; the next table
// it tokenizes reuses their arrays.
type tokenizer struct{ cols [][]string }

// tokens tokenizes t's columns, valid until the next call.
func (tk *tokenizer) tokens(t *table.Table) [][]string {
	for len(tk.cols) < t.NumCols() {
		tk.cols = append(tk.cols, nil)
	}
	cols := tk.cols[:t.NumCols()]
	for i := range cols {
		cols[i] = embed.AppendColumnTokens(cols[i][:0], &t.Columns[i])
	}
	return cols
}

// indexTable tokenizes t's columns once, counts them into corpus and
// reports whether any of them exceeds the encoder's token budget. When none
// does, t's vectors depend on those tokens alone: indexTable encodes them
// into block and quantises them into code. A big table is left to
// embedInto, once corpus holds every column its selection is made against.
func (s *Starmie) indexTable(tk *tokenizer, t *table.Table, corpus *tokenize.Corpus, block []float64, code *vector.CodeBlock) (big bool) {
	cols := tk.tokens(t)
	for _, tokens := range cols {
		corpus.AddDocument(tokens)
		big = big || len(tokens) > embed.TokenBudget
	}
	if !big {
		s.enc.EncodeColumnTokensInto(block, cols)
		code.Quantize(block, s.enc.Dim())
	}
	return big
}

// emptyStarmie is the searcher before any table is indexed — what the
// constructor fills by embedding the lake and LoadStarmie from a file.
func emptyStarmie(l *lake.Lake, enc embed.StarmieEncoder, o options) *Starmie {
	return &Starmie{
		enc:     enc,
		lake:    l,
		corpus:  &tokenize.Corpus{},
		idx:     newIndex(l.Len()),
		workers: o.workers,
		MinSim:  0.3,
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

// newBlock allocates a block and codes for t of its own.
func (s *Starmie) newBlock(t *table.Table) ([]float64, vector.CodeBlock) {
	return make([]float64, t.NumCols()*s.enc.Dim()), vector.NewCodeBlock(t.NumCols(), s.enc.Dim())
}

// embed is embedInto a block and codes of t's own.
func (s *Starmie) embed(t *table.Table) ([]float64, vector.CodeBlock) {
	block, code := s.newBlock(t)
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

// Name implements Searcher.
func (s *Starmie) Name() string { return "starmie" }

// Lake implements Searcher.
func (s *Starmie) Lake() *lake.Lake { return s.lake }

// ModeView answers every Mode with the receiver itself, and any other value
// with (nil, false): the exact scan is the one retriever. It is kept for
// the benchmark, which still asks for the view of search.ANN.
func (s *Starmie) ModeView(m Mode) (Searcher, bool) {
	if m != Exact && m != ANN {
		return nil, false
	}
	return s, true
}

// AddTable implements Searcher: the new table's columns join the corpus
// and are embedded with it; tables whose TF-IDF token selection depends on
// the corpus (those with over-budget columns) are re-embedded so every
// stored embedding matches what a from-scratch index over the new table set
// would hold. The table must (also) be added to the lake before querying.
func (s *Starmie) AddTable(t *table.Table) error {
	if s.idx.get(t.Name) != nil {
		return fmt.Errorf("starmie: AddTable(%q): %w", t.Name, ErrDuplicateTable)
	}
	block, code := s.newBlock(t)
	big := s.indexTable(&tokenizer{}, t, s.corpus, block, &code)
	if big {
		s.embedInto(block, &code, t)
	}
	s.idx.add(entry{t: t, block: block, code: code, big: big})
	s.refreshBig(t.Name)
	return nil
}

// RemoveTable implements Searcher. It must run while the table is still
// in the lake (its columns have to leave the corpus); remove it from the
// lake afterwards.
func (s *Starmie) RemoveTable(name string) error {
	e := s.idx.get(name)
	if e == nil {
		return fmt.Errorf("starmie: RemoveTable(%q): %w", name, ErrUnknownTable)
	}
	if s.lake.Get(name) == nil {
		return fmt.Errorf("starmie: RemoveTable(%q): table already left the lake: %w", name, ErrUnknownTable)
	}
	for i := range e.t.Columns {
		s.corpus.RemoveDocument(embed.ColumnTokens(&e.t.Columns[i]))
	}
	s.idx.remove(name)
	s.refreshBig("")
	return nil
}

// refreshBig re-embeds every indexed table marked corpus-sensitive, in
// parallel, skipping the one just encoded with the current corpus. Tables
// under the token budget are never marked big, so the common mutation costs
// O(new table) plus one walk of the entries.
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
		s.idx.entries[at] = embedded[i]
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
// own corpus and table list, so AddTable/RemoveTable on it never disturb
// this searcher. The blocks themselves are shared — both mutation paths install a fresh block
// (AddTable, refreshBig), never write into one — so a clone costs one copy
// of the entries and their name map, not the lake's vectors.
func (s *Starmie) CloneWithLake(l *lake.Lake) Searcher {
	c := *s
	c.lake = l
	c.corpus = s.corpus.Clone()
	c.idx = &index{entries: slices.Clone(s.idx.entries), pos: maps.Clone(s.idx.pos)}
	return &c
}

// scan is one chunk's ranking state and scratch: the chunk being ranked
// (the query, the candidates, the trace) and the exits its candidates took,
// then the flat |Q| x ncols weight buffer, the per-row arg-maxes and the
// matching's working arrays. Scans are pooled, so a steady-state query
// allocates none of it. rankTablesCtx drives one scan a chunk.
type scan struct {
	s     *Starmie
	q     *starmiePrepared
	cands []entry
	tr    *Trace
	exits [ScanExits]int64

	w    []float64
	arg  []int
	hung match.Scratch
}

// openScan takes a pooled scan for a chunk of cands.
func openScan(s *Starmie, q *starmiePrepared, cands []entry, tr *Trace) *scan {
	sc := scanPool.Get().(*scan)
	sc.s, sc.q, sc.cands, sc.tr, sc.exits = s, q, cands, tr, [ScanExits]int64{}
	return sc
}

// reach is rankTablesCtx's first pass over candidate i: the code walk of
// score over the query's first panel, and the reach it leaves there — no
// less than the table's score, and, when below a floor, what score's walk
// cuts on at that floor by the same arithmetic. A query without rows
// scores every table 0 and has no walk: +Inf.
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

// scoreAt scores candidate i, counted by exit: reach is what the first pass
// returned for it, as stored (+Inf when the pass did not run), and floor
// the score of the worst hit in the chunk's full top k (-Inf while it has
// room); skip reports a table proven to score strictly below floor.
func (sc *scan) scoreAt(i int, reach, floor float64) (*table.Table, float64, bool) {
	score, exit := sc.score(sc.s, sc.q, &sc.cands[i], floor, reach)
	sc.exits[exit]++
	return sc.cands[i].t, score, exit <= ScanBounded
}

// release runs as the chunk ends, with the number of candidates
// rankTablesCtx cut on their reach: it records the chunk's exits — a table
// cut on its reach read no float64, so it is coded — and returns the scan
// to the pool.
func (sc *scan) release(cut int) {
	if sc.tr != nil {
		sc.exits[ScanCoded] += int64(cut)
		for exit, n := range sc.exits {
			sc.tr.Scan[exit].Add(n)
		}
	}
	sc.s, sc.q, sc.cands, sc.tr = nil, nil, nil, nil
	scanPool.Put(sc)
}

// The exits of scan.score, which index Trace.Scan.
const (
	ScanCoded   = iota // cut by the code bound, no float64 read
	ScanBounded        // cut by the upper bound, no matching computed
	ScanGreedy         // distinct arg-maxes: the bound is the matching
	ScanMatched        // ran the Hungarian step
	ScanExits
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
		return 0, ScanGreedy
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
				return 0, ScanCoded
			}
			i = min(nq, vector.PanelRows)
			ub = float64(reach*float64(nq)) - float64(nq-i) // architecture-exact: no fusion (docs/ARCHITECTURE.md, "Determinism contract")
		}
		for ; i < nq; i++ {
			if i%vector.PanelRows == 0 {
				q.codes.RowBounds(i/vector.PanelRows, e.code, &bounds)
			}
			ub += clamp(bounds[i%vector.PanelRows], minSim)
			if cannotReach(ub, i, nq, floor) {
				return 0, ScanCoded
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
			return 0, ScanBounded
		}
		arg[i] = at
		distinct = distinct && (at < 0 || !slices.Contains(arg[:i], at))
	}
	if distinct {
		return ub / float64(nq), ScanGreedy
	}
	return sc.hung.Solve(w, nq, nc) / float64(nq), ScanMatched
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
// column embeddings, encoded once against the index corpus, in the layouts
// the exact scan reads: panels for the float64 dots, codes for its
// pre-pass.
type starmiePrepared struct {
	query  *table.Table
	panels *vector.QueryPanels
	codes  *vector.QueryCodes
}

// Query implements PreparedQuery.
func (p *starmiePrepared) Query() *table.Table { return p.query }

// Prepare implements Searcher: the query's columns are embedded
// exactly once.
func (s *Starmie) Prepare(query *table.Table) PreparedQuery {
	cols := s.EncodeQuery(query)
	return &starmiePrepared{query: query, panels: vector.NewQueryPanels(cols), codes: vector.NewQueryCodes(cols)}
}

// TopKPrepared implements Searcher as the staged plan: the candidates are
// every indexed table, in index order; score them exactly, in parallel, and
// keep the top k. The candidate scan stops scoring further tables once ctx
// is cancelled and the call returns ctx.Err().
func (s *Starmie) TopKPrepared(ctx context.Context, pq PreparedQuery, k int) ([]Scored, error) {
	p, ok := pq.(*starmiePrepared)
	if !ok {
		return nil, fmt.Errorf("starmie: %w: %T", ErrForeignPrepared, pq)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return rankTablesCtx(ctx, s, p, s.idx.entries, k, TraceFrom(ctx))
}

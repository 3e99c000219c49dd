package search

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"dust/internal/embed"
	"dust/internal/lake"
	"dust/internal/match"
	"dust/internal/par"
	"dust/internal/region"
	"dust/internal/table"
	"dust/internal/vector"
)

// Starmie is the Starmie-like union searcher: every column of every lake
// table is embedded with the contextualized column encoder at index time;
// at query time the query's columns are matched to each candidate's columns
// by maximum-weight bipartite matching over cosine similarity and the
// normalized matching weight is the table's unionability score (§6.2.3).
// One index covers the whole lake: one ordered list of column blocks, one
// exact scan and one saved file. Every stored vector is a function of its
// own table: an over-budget column is cut against that table's columns
// alone (embed.CutToBudget). Nothing writes a Starmie once it is built:
// WithTable and WithoutTable build a successor, so the lake handed to the
// constructor must not change afterwards either.
type Starmie struct {
	enc  embed.StarmieEncoder
	lake *lake.Lake
	// idx is the ordered table list the exact scan walks.
	idx index
	// region is the handle of the mapping idx's built or loaded blocks and
	// codes are carved from (a heap slice where nothing is mapped); every method
	// reading them ends with runtime.KeepAlive on it.
	region  *region.Region
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
// from one region (region.go), outside the collected heap; a successor
// holds a block and codes of its own, on the heap, for its new table. Both
// are immutable once installed, so successors and views share them.
type entry struct {
	t     *table.Table
	block []float64
	code  vector.CodeBlock
}

// index is the searcher's table list: the entries in lake order, which the
// exact scan reads as is, and each name's position among them, for the
// paths that look a table up by name. It is written only while the
// searcher that holds it is being built; views and successors share or
// copy it, never write into it.
type index struct {
	entries []entry
	pos     map[string]int
}

// newIndex is the index over entries, its name map sized once.
func newIndex(entries []entry) index {
	pos := make(map[string]int, len(entries))
	for i, e := range entries {
		pos[e.t.Name] = i
	}
	return index{entries: entries, pos: pos}
}

// get returns name's entry, or nil when name is not indexed.
func (x index) get(name string) *entry {
	if i, ok := x.pos[name]; ok {
		return &x.entries[i]
	}
	return nil
}

// NewStarmie indexes the lake with the default Starmie encoder.
func NewStarmie(l *lake.Lake, opts ...Option) *Starmie {
	return NewStarmieWithEncoder(l, embed.NewStarmie(), opts...)
}

// NewStarmieWithEncoder indexes the lake with a custom encoder in one
// parallel pass over the lake: each table's columns are tokenized once, cut
// to the token budget against the table's own columns, and encoded from
// those tokens. Every encode of the build reads a hot set before it derives
// a vector its token-vector table lacks: the vectors a stride sample of the
// lake reads more than once, derived before the pass and dropped as the
// build returns.
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
	s.idx, s.region = carveIndex(l.Tables(), enc.Dim())
	par.ForChunks(s.workers, len(s.idx.entries), func(lo, hi int) {
		var tk tokenizer
		for i := lo; i < hi; i++ {
			e := &s.idx.entries[i]
			s.encodeInto(&tk, e.t, e.block, &e.code)
		}
	})
	s.enc = enc
	runtime.KeepAlive(s.region)
	return s
}

// tokenizer holds the token lists of one table's columns; the next table
// it tokenizes reuses their arrays.
type tokenizer struct{ cols [][]string }

// tokens tokenizes t's columns, each cut to the token budget against t's
// own columns (embed.CutToBudget): the lists t's vectors are encoded from,
// valid until the next call.
func (tk *tokenizer) tokens(t *table.Table) [][]string {
	for len(tk.cols) < t.NumCols() {
		tk.cols = append(tk.cols, nil)
	}
	cols := tk.cols[:t.NumCols()]
	for i := range cols {
		cols[i] = embed.AppendColumnTokens(cols[i][:0], &t.Columns[i])
	}
	embed.CutToBudget(cols)
	return cols
}

// encodeInto encodes t's columns into block and quantises them into code.
func (s *Starmie) encodeInto(tk *tokenizer, t *table.Table, block []float64, code *vector.CodeBlock) {
	s.enc.EncodeColumnTokensInto(block, tk.tokens(t))
	code.Quantize(block, s.enc.Dim())
}

// emptyStarmie is the searcher before any table is indexed — what the
// constructor fills by embedding the lake and LoadStarmie from a file.
func emptyStarmie(l *lake.Lake, enc embed.StarmieEncoder, o options) *Starmie {
	return &Starmie{
		enc:     enc,
		lake:    l,
		workers: o.workers,
		MinSim:  0.3,
	}
}

// carveIndex is the index over tables, in table order, with blocks cut
// from one new region sized for every column of tables (NumCols x dim
// each, capacity-capped so an append can never run into a neighbour) and
// codes likewise, all still to be filled, and the region's handle.
func carveIndex(tables []*table.Table, dim int) (index, *region.Region) {
	cols := make([]int, len(tables))
	total := 0
	for i, t := range tables {
		cols[i] = t.NumCols()
		total += cols[i] * dim
	}
	reg := region.New(9*total, &regionBytes) // a float64 and an int8 code per element
	mem := reg.Bytes()
	arena := region.View[float64](mem, total)
	codes := vector.CarveCodeBlocks(cols, dim, region.View[int8](mem[8*total:], total))
	entries := make([]entry, len(tables))
	for i, t := range tables {
		n := cols[i] * dim
		entries[i] = entry{t: t, block: arena[:n:n], code: codes[i]}
		arena = arena[n:]
	}
	return newIndex(entries), reg
}

// embed encodes t into a block and codes of its own.
func (s *Starmie) embed(t *table.Table) ([]float64, vector.CodeBlock) {
	block, code := make([]float64, t.NumCols()*s.enc.Dim()), vector.NewCodeBlock(t.NumCols(), s.enc.Dim())
	s.encodeInto(&tokenizer{}, t, block, &code)
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

// WithTable implements Searcher: t is embedded into a block of its own, and
// the successor holds every block and code of the receiver beside it. The
// index and the lake both have to accept t, so a table written into the
// constructor's lake behind the searcher's back is refused, never indexed
// twice; WithoutTable likewise.
func (s *Starmie) WithTable(t *table.Table) (Searcher, error) {
	if s.idx.get(t.Name) != nil {
		return nil, fmt.Errorf("starmie: WithTable(%q): %w", t.Name, lake.ErrDuplicateTable)
	}
	l := s.lake.Clone()
	if err := l.Add(t); err != nil {
		return nil, fmt.Errorf("starmie: WithTable: %w", err)
	}
	e := entry{t: t}
	e.block, e.code = s.embed(t)
	entries := make([]entry, 0, len(s.idx.entries)+1)
	return s.successor(l, append(append(entries, s.idx.entries...), e)), nil
}

// WithoutTable implements Searcher: the successor holds the other tables'
// blocks and codes.
func (s *Starmie) WithoutTable(name string) (Searcher, error) {
	i, ok := s.idx.pos[name]
	if !ok {
		return nil, fmt.Errorf("starmie: WithoutTable(%q): %w", name, lake.ErrUnknownTable)
	}
	l := s.lake.Clone()
	if err := l.Remove(name); err != nil {
		return nil, fmt.Errorf("starmie: WithoutTable: %w", err)
	}
	entries := make([]entry, 0, len(s.idx.entries)-1)
	return s.successor(l, append(append(entries, s.idx.entries[:i]...), s.idx.entries[i+1:]...)), nil
}

// successor is s over l and entries, one mutation on: the entries name l's
// tables in l's order in an array of the successor's own. No stored vector
// reads another table, so a mutation costs O(new table) plus one copy of the
// entries, their name map and the lake.
func (s *Starmie) successor(l *lake.Lake, entries []entry) *Starmie {
	c := *s
	c.lake, c.idx = l, newIndex(entries)
	return &c
}

// QueryWorkers implements Searcher: the returned searcher shares this
// searcher's index and scores queries with at most n workers.
func (s *Starmie) QueryWorkers(n int) Searcher {
	c := *s
	c.workers = n
	return &c
}

// scan is one chunk's ranking state and scratch: what it reads of the
// searcher, the chunk being ranked (the query, the candidates, the trace)
// and the exits its candidates took, then the flat |Q| x ncols weight
// buffer, the per-row arg-maxes and the matching's working arrays. Scans
// are pooled, so a steady-state query allocates none of it. rankTablesCtx
// drives one scan a chunk.
type scan struct {
	scanConf
	q     *starmiePrepared
	cands []entry
	tr    *Trace
	exits [ScanExits]int64

	w    []float64
	arg  []int
	hung match.Scratch
}

// scanConf is what a scan reads of its searcher: MinSim floored at 0 and
// the dimension. A scan holds a copy, never the searcher, so the blocks it
// reads stay mapped only as long as the method that runs it keeps the
// searcher's region alive.
type scanConf struct {
	minSim float64
	dim    int
}

// scanConf is s's scan configuration.
func (s *Starmie) scanConf() scanConf { return scanConf{max(s.MinSim, 0), s.enc.Dim()} }

// openScan takes a pooled scan for a chunk of cands.
func openScan(conf scanConf, q *starmiePrepared, cands []entry, tr *Trace) *scan {
	sc := scanPool.Get().(*scan)
	sc.scanConf, sc.q, sc.cands, sc.tr, sc.exits = conf, q, cands, tr, [ScanExits]int64{}
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
	rows := min(nq, vector.PanelRows)
	var ub float64
	for r := 0; r < rows; r++ {
		ub += clamp(bounds[r], sc.minSim)
	}
	return reachAfter(ub, rows-1, nq)
}

// scoreAt scores candidate i, counted by exit: reach is what the first pass
// returned for it, as stored (+Inf when the pass did not run), and floor
// the score of the worst hit in the chunk's full top k (-Inf while it has
// room); skip reports a table proven to score strictly below floor.
func (sc *scan) scoreAt(i int, reach, floor float64) (*table.Table, float64, bool) {
	score, exit := sc.score(sc.q, &sc.cands[i], floor, reach)
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
	sc.q, sc.cands, sc.tr = nil, nil, nil
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
func (sc *scan) score(q *starmiePrepared, e *entry, floor, reach float64) (score float64, exit int) {
	nq, nc := q.panels.Len(), len(e.block)/sc.dim
	if nq == 0 || nc == 0 {
		return 0, ScanGreedy
	}
	sc.w, sc.arg = slices.Grow(sc.w[:0], nq*nc), slices.Grow(sc.arg[:0], nq)
	w, arg := sc.w[:nq*nc], sc.arg[:nq]
	minSim := sc.minSim
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

// EncodeQuery embeds a query table's columns as the index embeds a table's.
// The vectors are capacity-capped rows of one allocation.
func (s *Starmie) EncodeQuery(q *table.Table) []vector.Vec {
	var tk tokenizer
	block := make([]float64, q.NumCols()*s.enc.Dim())
	s.enc.EncodeColumnTokensInto(block, tk.tokens(q))
	cols := make([]vector.Vec, 0, q.NumCols())
	s.blockRows(block, func(v vector.Vec) { cols = append(cols, v) })
	return cols
}

// starmiePrepared is Starmie's PreparedQuery: the query's contextualized
// column embeddings, encoded once, in the layouts the exact scan reads:
// panels for the float64 dots, codes for its pre-pass.
type starmiePrepared struct {
	panels *vector.QueryPanels
	codes  *vector.QueryCodes
}

// Prepare implements Searcher: the query's columns are embedded
// exactly once.
func (s *Starmie) Prepare(query *table.Table) PreparedQuery {
	cols := s.EncodeQuery(query)
	return &starmiePrepared{panels: vector.NewQueryPanels(cols), codes: vector.NewQueryCodes(cols)}
}

// prepared asserts pq is Starmie's own preparation.
func prepared(pq PreparedQuery) (*starmiePrepared, error) {
	p, ok := pq.(*starmiePrepared)
	if !ok {
		return nil, fmt.Errorf("starmie: %w: %T", ErrForeignPrepared, pq)
	}
	return p, nil
}

// ScoreTables implements Searcher. Each table is scored by the scan's full
// walk, with no floor to cut at: the score TopKPrepared ranks it by, since
// a cut only ever skips a table and never changes the score of one it
// keeps.
func (s *Starmie) ScoreTables(pq PreparedQuery, names []string) ([]Scored, error) {
	p, err := prepared(pq)
	if err != nil {
		return nil, err
	}
	cands := make([]entry, len(names))
	for i, name := range names {
		e := s.idx.get(name)
		if e == nil {
			return nil, fmt.Errorf("starmie: ScoreTables(%q): %w", name, lake.ErrUnknownTable)
		}
		cands[i] = *e
	}
	sc := openScan(s.scanConf(), p, cands, nil)
	defer sc.release(0)
	out := make([]Scored, len(cands))
	for i := range cands {
		t, score, _ := sc.scoreAt(i, math.Inf(1), math.Inf(-1))
		out[i] = Scored{Table: t, Score: score}
	}
	runtime.KeepAlive(s.region)
	return out, nil
}

// TopKPrepared implements Searcher as the staged plan: the candidates are
// every indexed table, in index order; score them exactly, in parallel, and
// keep the top k, adding the scan's exits to tr. The candidate scan stops
// scoring further tables once ctx is cancelled and the call returns
// ctx.Err().
func (s *Starmie) TopKPrepared(ctx context.Context, pq PreparedQuery, k int, tr *Trace) ([]Scored, error) {
	p, err := prepared(pq)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	hits, err := rankTablesCtx(ctx, s, p, s.idx.entries, k, tr)
	runtime.KeepAlive(s.region)
	return hits, err
}

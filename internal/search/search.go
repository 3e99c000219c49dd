// Package search implements the table-union-search substrate DUST builds
// on (paper Algorithm 1, line 3): a Starmie-like searcher (contextualized
// column embeddings + maximum-weight bipartite matching, §6.2.3/§6.5.1)
// behind the one Searcher contract. Beside it sit the evaluation's
// baselines as plain rankers — a D3L-like table ranker (aggregation of name
// / value-overlap / format / embedding / distribution signals, §6.5.1) and
// the tuple-level adaptation of Starmie used in Table 3 — and the MAP
// metric (§6.5.2).
package search

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dust/internal/datagen"
	"dust/internal/lake"
	"dust/internal/par"
	"dust/internal/table"
)

// Scored is a search hit: a lake table and its unionability score.
type Scored struct {
	Table *table.Table
	Score float64
}

// Searcher is the one contract behind Algorithm 1's SearchTables call: an
// index over a lake's tables that ranks them by unionability with a query.
// Starmie, over one part or several (WithShards), implements it, and the
// pipeline, persistence and serving layers compose against this type
// alone. Queries run prepared — Prepare once, then TopKPrepared; TopK and
// TopKCtx wrap the two steps. Queries are safe concurrently with each
// other; everything that changes the index (SetMode, the Set* tuners,
// AddTable/RemoveTable, Compact) is not safe concurrently with queries —
// mutate a CloneWithLake copy and swap.
type Searcher interface {
	// Name identifies the searcher and its retrieval mode; config tags and
	// the serving caches keyed by them build on it.
	Name() string
	// Lake returns the lake this searcher indexes.
	Lake() *lake.Lake
	// Parts returns the persisted and sized sub-indexes in shard order, each
	// a read-only view over its own sub-lake. A one-part searcher is its own
	// single part.
	Parts() []Searcher

	// Prepare encodes the query once; the result may be reused across any
	// number of TopKPrepared calls on this searcher and its views.
	Prepare(query *table.Table) PreparedQuery
	// TopKPrepared retrieves candidates for pq (every indexed table in
	// Exact mode, the approximate backend's nominees in ANN mode), scores
	// them exactly and returns the top k by (score desc, name asc); k <= 0
	// asks for the full ranking, which only the exact scan provides. ANN
	// retrieval that nominates nothing (no graph nodes) ranks nothing. A
	// cancelled ctx yields ctx.Err(), never a truncated ranking; a
	// preparation from another searcher family yields ErrForeignPrepared.
	TopKPrepared(ctx context.Context, pq PreparedQuery, k int) ([]Scored, error)

	// SetMode switches the retrieval backend; entering ANN builds the
	// approximate index on first use (O(n log n) for HNSW) and reuses an
	// installed one (e.g. loaded from disk). An installed index survives
	// mode flips and keeps absorbing mutations.
	SetMode(Mode) error
	// RetrievalMode reports the active retrieval backend.
	RetrievalMode() Mode
	// ModeView returns a read-only view under mode m sharing all index
	// state with the receiver, so a serving layer can degrade single
	// requests to ANN without flipping the shared searcher. ok is false
	// when m's backend is not installed (an ANN view of a graph-less
	// searcher). Concurrent queries on view and receiver are safe.
	ModeView(m Mode) (s Searcher, ok bool)
	// QueryWorkers returns a view sharing the index that scores queries
	// with at most n workers; batch-serving callers use it to stop
	// per-query fan-out from multiplying their own query-level parallelism.
	QueryWorkers(n int) Searcher

	// SetOversample sizes the ANN candidate pool of a top-k query
	// (ceil(v*k) nominees before exact re-ranking) and SetEfSearch sets the
	// HNSW traversal beam width; non-positive values restore the package
	// defaults, exact-mode queries and searchers without the backend ignore
	// them.
	SetOversample(v float64)
	SetEfSearch(ef int)
	// IndexBytes reports the resident footprint of the ANN index
	// structures, summed over the parts.
	IndexBytes() IndexFootprint

	// AddTable indexes one new table and RemoveTable un-indexes one, in
	// O(delta) work, leaving query results bit-identical to an index built
	// from scratch over the mutated table set. The searcher and its lake
	// must agree whenever a query runs: add to the lake before (or right
	// after) AddTable; call RemoveTable while the table is still in the
	// lake, then remove it there. dust.Pipeline sequences both sides.
	AddTable(t *table.Table) error
	RemoveTable(name string) error
	// CloneWithLake returns an independently mutable copy bound to l, a
	// clone of this searcher's lake holding the same table set. Mutations
	// on the clone never disturb the original, while the heavy immutable
	// index state — the embedding blocks — is shared, so
	// snapshot-swapped serving builds copy-on-write shadows with it.
	CloneWithLake(l *lake.Lake) Searcher

	// MaintenanceStats exposes the accumulated tombstone debt,
	// SetAutoCompact(false) stops mutations from rebuilding tombstoned
	// structures inline, and Compact pays the debt down now, reporting
	// whether any work was done — typically on a clone, off the query
	// path. A compacted index ranks exactly like its tombstoned self.
	MaintenanceStats() MaintenanceStats
	SetAutoCompact(on bool)
	Compact() bool
}

// QueryBounded names the part of the contract that re-bounds query
// parallelism; every Searcher has it.
type QueryBounded = Searcher

// Mode selects the candidate-generation backend of a searcher's query plan
// (retrieve -> score -> diversify).
type Mode int

const (
	// Exact scans and scores every lake table — the seed behavior, the
	// default, and the recall oracle ANN mode is measured against.
	Exact Mode = iota
	// ANN generates candidates approximately — HNSW over Starmie's column
	// embeddings — and re-scores only those candidates exactly, so query
	// latency tracks the candidate pool instead of the lake size.
	ANN
)

// String names the mode the way the CLI -ann flags and searcher Name()
// suffixes do.
func (m Mode) String() string {
	switch m {
	case Exact:
		return "exact"
	case ANN:
		return "ann"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Staged retrieval defaults of Starmie's ANN plan.
const (
	// DefaultOversample is the candidate multiplier of the ANN stage:
	// stage one retrieves about Oversample*k candidates per query vector
	// before the exact re-rank, trading extra exact scoring for recall.
	DefaultOversample = 4.0
	// DefaultEfSearch bounds the HNSW base-layer beam width.
	DefaultEfSearch = 120
	// annNominateSlack widens each part's nomination depth beyond its
	// ceil(Oversample*k/n) share, so the union of n parts' nominees keeps
	// the recall of one graph even when one part owns most of the true
	// neighbours.
	annNominateSlack = 4
	// RebuildThreshold is the tombstone fraction past which a mutated
	// HNSW graph is rebuilt from its live nodes instead of accumulating
	// more dead weight: inline by a mutation under auto compaction, on a
	// background clone by the serving layer, which turns it off.
	RebuildThreshold = 0.5
)

// ErrUnknownMode reports SetMode of a Mode this package does not define.
var ErrUnknownMode = errors.New("search: unknown retrieval mode")

// Typed failures of the incremental-mutation and persistence surfaces.
var (
	// ErrDuplicateTable reports AddTable of a name the index already holds.
	ErrDuplicateTable = errors.New("search: table already indexed")
	// ErrUnknownTable reports RemoveTable of a name the index never saw.
	ErrUnknownTable = errors.New("search: table not indexed")
	// ErrLakeMismatch reports a saved index whose table set does not match
	// the lake it is being loaded against.
	ErrLakeMismatch = errors.New("search: saved index does not match the lake")
	// ErrEncoderMismatch reports a saved index built with a different
	// encoder configuration than the loading searcher.
	ErrEncoderMismatch = errors.New("search: saved index built with a different encoder")
	// ErrLayoutMismatch reports Join parts that do not partition the lake
	// exactly (a table missing, duplicated, or unknown).
	ErrLayoutMismatch = errors.New("search: parts do not partition the lake")
)

// TopKCtx is the whole query under ctx: Prepare, then TopKPrepared, with the
// encoding charged to the encode stage of a Trace carried by ctx. The error
// is ctx.Err() when the query was cancelled.
func TopKCtx(ctx context.Context, s Searcher, query *table.Table, k int) ([]Scored, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	pq := s.Prepare(query)
	TraceFrom(ctx).AddEncode(t0)
	return s.TopKPrepared(ctx, pq, k)
}

// TopK is TopKCtx under a background context, which cannot fail.
func TopK(s Searcher, query *table.Table, k int) []Scored {
	out, _ := TopKCtx(context.Background(), s, query, k)
	return out
}

// Trace accumulates the per-stage wall time of one query through the
// staged plan: encode (query representation + tuple embedding), retrieve
// (candidate generation), score (exact ranking of the candidates), and
// align and diversify (both filled by the dust pipeline). Fields are atomic
// so the scan's parallel chunks can record from concurrent goroutines; a
// Trace travels with the request via WithTrace, and searchers that find one
// in their context add their stage costs to it. Serving layers turn the
// totals into latency histograms and per-request log fields.
type Trace struct {
	// EncodeNS is nanoseconds spent deriving representations: the query's
	// prepared form here, plus tuple embedding in the dust pipeline.
	EncodeNS atomic.Int64
	// RetrieveNS is nanoseconds spent generating candidates (the exact
	// scan's table listing, or every part's ANN lookups).
	RetrieveNS atomic.Int64
	// ScoreNS is nanoseconds spent exactly scoring and ranking candidates.
	ScoreNS atomic.Int64
	// AlignNS is nanoseconds the dust pipeline spent between ranking and
	// tuple embedding: column embedding, holistic alignment, the mappings,
	// the outer union and the coverage filter.
	AlignNS atomic.Int64
	// DiversifyNS is nanoseconds spent in the diversification stage; the
	// search layer never writes it, the dust pipeline does.
	DiversifyNS atomic.Int64
	// ScanCoded, ScanBounded, ScanGreedy and ScanMatched count the
	// candidate tables of Starmie's exact scoring pass by the exit each
	// took: cut by the matching's upper bound over the column codes before
	// a float64 is read, cut by the same bound over the float64 cells
	// without being scored, scored by distinct per-column arg-maxes, or
	// scored by the Hungarian step. The split is input-dependent — a query
	// whose candidates all tie defeats the bounds — so it is counted, not
	// assumed.
	ScanCoded, ScanBounded, ScanGreedy, ScanMatched atomic.Int64
}

// AddEncode adds the wall time since start to the encode stage. A nil
// Trace is a no-op, as for all the Add helpers, so untraced queries cost
// call sites nothing but the time.Now.
func (tr *Trace) AddEncode(start time.Time) {
	if tr != nil {
		tr.EncodeNS.Add(time.Since(start).Nanoseconds())
	}
}

// AddRetrieve adds the wall time since start to the retrieve stage.
func (tr *Trace) AddRetrieve(start time.Time) {
	if tr != nil {
		tr.RetrieveNS.Add(time.Since(start).Nanoseconds())
	}
}

// AddScore adds the wall time since start to the score stage.
func (tr *Trace) AddScore(start time.Time) {
	if tr != nil {
		tr.ScoreNS.Add(time.Since(start).Nanoseconds())
	}
}

// AddAlign adds the wall time since start to the align stage.
func (tr *Trace) AddAlign(start time.Time) {
	if tr != nil {
		tr.AlignNS.Add(time.Since(start).Nanoseconds())
	}
}

// AddDiversify adds the wall time since start to the diversify stage.
func (tr *Trace) AddDiversify(start time.Time) {
	if tr != nil {
		tr.DiversifyNS.Add(time.Since(start).Nanoseconds())
	}
}

// AddScan adds one scan's candidate counts per exit; nil-safe like the
// stage helpers.
func (tr *Trace) AddScan(coded, bounded, greedy, matched int64) {
	if tr != nil {
		tr.ScanCoded.Add(coded)
		tr.ScanBounded.Add(bounded)
		tr.ScanGreedy.Add(greedy)
		tr.ScanMatched.Add(matched)
	}
}

// traceKey keys a *Trace in a context.
type traceKey struct{}

// WithTrace returns a context carrying tr: staged searchers below the call
// record their per-stage wall time into it. Passing nil masks any outer
// trace.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, tr)
}

// TraceFrom returns the Trace carried by ctx, or nil when the query is
// untraced.
func TraceFrom(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}

// PreparedQuery is a query's encoded representation — Starmie's column
// embeddings — computed once by Searcher.Prepare and reusable across many
// TopKPrepared calls (a query asked for several k never re-encodes). A
// prepared query is only meaningful to the searcher that prepared it and
// the views sharing its index. Implementations type-assert the concrete
// preparation and report ErrForeignPrepared for one produced by a
// different searcher family.
type PreparedQuery interface {
	// Query returns the query table the preparation encodes.
	Query() *table.Table
}

// ErrForeignPrepared reports a PreparedQuery handed to a searcher family
// that did not produce it.
var ErrForeignPrepared = errors.New("search: prepared query from a different searcher family")

// MaintenanceStats describes the tombstone debt of a searcher's HNSW
// graphs — the signal a background maintainer watches to decide when a
// compaction pass is worth a snapshot rebuild. Zero values mean no graph is
// installed.
type MaintenanceStats struct {
	// GraphNodes is the HNSW node count including tombstones; GraphLive is
	// the live subset. GraphDeletedFraction is dead/total, 0 for no graph —
	// the number maintenance thresholds compare against.
	GraphNodes           int
	GraphLive            int
	GraphDeletedFraction float64
}

// Merge combines per-part stats into a lake-wide view: counts sum, the
// deleted fraction takes the per-part maximum (one rotten part should
// trip the maintainer even if the rest of the lake is clean).
func (m MaintenanceStats) Merge(o MaintenanceStats) MaintenanceStats {
	m.GraphNodes += o.GraphNodes
	m.GraphLive += o.GraphLive
	m.GraphDeletedFraction = max(m.GraphDeletedFraction, o.GraphDeletedFraction)
	return m
}

// IndexFootprint is one index's resident-size report: the estimated bytes
// of its ANN graphs' adjacency, zero while none is installed. The serving
// layer exports it as the dust_index_bytes gauge.
type IndexFootprint struct {
	Bytes int64
}

// Option configures a searcher's execution. Starmie honours every option;
// the two baseline rankers honour WithWorkers only.
type Option func(*options)

type options struct {
	workers int
	shards  int
}

// WithWorkers bounds the parallelism of index construction and query
// scoring; n <= 0 selects the GOMAXPROCS-derived default and n == 1 forces
// the sequential path. Results are identical for every worker count.
func WithWorkers(n int) Option { return func(o *options) { o.workers = n } }

// WithShards partitions Starmie's index into n parts by Assign (n <= 1:
// one part, the default). Each part has its own sub-lake, HNSW graph and
// saved file set; the corpus, the column blocks and the exact scan stay
// one, so exact rankings do not depend on n. In ANN mode each part's graph
// nominates ceil(Oversample*k/n)+annNominateSlack neighbours per query
// column, so ANN rankings do, and the searcher's Name carries n.
func WithShards(n int) Option { return func(o *options) { o.shards = n } }

func applyOptions(opts []Option) options {
	var o options
	for _, f := range opts {
		f(&o)
	}
	return o
}

// chunkRanker scores one chunk of candidates for rankTablesCtx. reach is
// the first pass: called once for every candidate of the chunk, in order,
// before any scoreAt, it returns an upper bound on candidate i's score —
// a table whose reach is below a floor is one scoreAt would skip at that
// floor. scoreAt scores candidate i, returning its table; reach is what
// the first pass returned for it, stored with a step to spare
// (storedReach; +Inf when the pass did not run), and floor is the score of
// the worst hit in the chunk's full top k (-Inf while it has room); a
// ranker that can prove the table scores strictly below floor may report
// skip instead of computing the score. release runs as the chunk
// ends, with the number of candidates rankTablesCtx cut on their reach
// without calling scoreAt.
type chunkRanker interface {
	reach(i int) float64
	scoreAt(i int, reach, floor float64) (t *table.Table, score float64, skip bool)
	release(cut int)
}

// unboundedRanker is the chunkRanker of a scorer with no cheaper-than-exact
// bound (D3L's): every reach is +Inf, so the chunk is scored in index order.
type unboundedRanker struct {
	tables []*table.Table
	score  func(t *table.Table) float64
}

func (u unboundedRanker) reach(int) float64 { return math.Inf(1) }
func (u unboundedRanker) release(int)       {}
func (u unboundedRanker) scoreAt(i int, _, _ float64) (*table.Table, float64, bool) {
	return u.tables[i], u.score(u.tables[i]), false
}

// unbounded adapts a scorer of tables with no cheaper-than-exact bound.
func unbounded(tables []*table.Table, score func(t *table.Table) float64) func() chunkRanker {
	return func() chunkRanker { return unboundedRanker{tables, score} }
}

// hitOrder is the ranking order as a comparison: score descending, ties by
// table name ascending. Names are unique within a lake, so it is total.
func hitOrder(a, b Scored) int {
	if c := cmp.Compare(b.Score, a.Score); c != 0 {
		return c
	}
	return strings.Compare(a.Table.Name, b.Table.Name)
}

// siftDown restores, from node i down, a heap whose worst element by worse
// sits at the root.
func siftDown[T any](h []T, i int, worse func(a, b T) bool) {
	for {
		worst := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(h); c++ {
			if worse(h[c], h[worst]) {
				worst = c
			}
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

func worseHit(a, b Scored) bool { return hitOrder(a, b) > 0 }

// rankScratch is one chunk's state across rankTablesCtx's two passes:
// every candidate's stored reach and the seeds. Chunks take their own from
// rankPool, so a steady-state query allocates none of it.
type rankScratch struct {
	reach []storedReach
	seeds []int
}

var rankPool = sync.Pool{New: func() any { return new(rankScratch) }}

// storedReach is a reach rounded up onto a grid of 1/65535 steps, with a
// step to spare, so that the one buffer that grows with the chunk stays at
// two bytes a candidate. The top of the grid, where every reach from two
// steps below 1 up lands (+Inf included), is never cut; a score is at most
// 1, so that costs next to nothing.
type storedReach uint16

const reachTop = math.MaxUint16

// storeReach is r's stored reach: ⌊r·65535⌋ + 2, at least a step above
// r·65535 with room for its rounding, so the grid point stands above r.
func storeReach(r float64) storedReach {
	if !(r < 1) {
		return reachTop
	}
	return storedReach(min(int(max(r, 0)*reachTop)+2, reachTop))
}

// value is the grid point, at least the reach stored; +Inf at the top.
func (r storedReach) value() float64 {
	if r == reachTop {
		return math.Inf(1)
	}
	return float64(r) / reachTop
}

// pickSeeds runs the first pass over candidates lo..hi-1 and returns the
// min(n, hi-lo) of highest stored reach, ties to the lower index, in that
// order; false when ctx's done closed first.
func (rs *rankScratch) pickSeeds(lo, hi, n int, reach func(int) float64, done <-chan struct{}) ([]int, bool) {
	m := hi - lo
	rs.reach = slices.Grow(rs.reach[:0], m)[:m]
	for i := lo; i < hi; i++ {
		select {
		case <-done:
			return nil, false
		default:
		}
		rs.reach[i-lo] = storeReach(reach(i))
	}
	worse := func(a, b int) bool {
		ra, rb := rs.reach[a-lo], rs.reach[b-lo]
		return ra < rb || ra == rb && a > b
	}
	seeds := rs.seeds[:0]
	for i := lo; i < lo+min(n, m); i++ {
		seeds = append(seeds, i)
	}
	for i := len(seeds)/2 - 1; i >= 0; i-- {
		siftDown(seeds, i, worse)
	}
	for i := lo + len(seeds); i < hi; i++ {
		if worse(seeds[0], i) {
			seeds[0] = i
			siftDown(seeds, 0, worse)
		}
	}
	slices.SortFunc(seeds, func(a, b int) int {
		if c := cmp.Compare(rs.reach[b-lo], rs.reach[a-lo]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	rs.seeds = seeds
	return seeds, true
}

// rankTablesCtx is the scoring stage of the staged query plan: it scores
// the n candidates, one contiguous chunk per worker, and returns the top k
// in ranking order (all of them for k <= 0). open is called once per chunk
// and yields that chunk's ranker — free to own scratch, since only the
// chunk's goroutine calls it. With k > 0 each chunk keeps only its own best
// k in a heap whose root is the floor handed to the ranker, and ranks in
// two passes: the first takes every candidate's reach and scores the 2k of
// highest reach (ties to index order) first, so that the floor starts near
// its final value; the second walks the rest in index order, cutting a
// candidate whose reach is strictly below the floor without scoring it; the
// ranker scores the others knowing their stored reach. Seeds are kept out
// of the second pass by their own list, never by their reach: while fewer
// than k hits are in, the floor is -Inf, which no reach is below. Every
// cut, here or in the ranker, is strictly below the floor, and the floor
// never exceeds the chunk's final k-th hit, so a cut table is outside the
// chunk's top k whatever the order, and a table tied with that hit on score
// still reaches the name comparison. A table's score is a function of the
// table alone, so the global top k — the top k of the chunks' survivors —
// is identical for every worker count. An unbounded ranker's reach is +Inf
// everywhere, which leaves index order; with k <= 0 nothing is cut, and the
// first pass is skipped. Once ctx is cancelled the remaining candidates are
// not scored and ctx.Err() is returned instead of a partial ranking;
// cancellation is checked per table, the natural work unit of the scan.
func rankTablesCtx(ctx context.Context, n, k, workers int, open func() chunkRanker) ([]Scored, error) {
	done := ctx.Done()
	var mu sync.Mutex
	var out []Scored
	par.ForChunks(workers, n, func(lo, hi int) {
		r := open()
		cut := 0
		defer func() { r.release(cut) }()
		size := hi - lo
		if k > 0 {
			size = min(size, k)
		}
		top := make([]Scored, 0, size) // once k > 0 hits are in: a heap, worst at the root
		floor := math.Inf(-1)
		var rs *rankScratch
		offer := func(i int) {
			reach := math.Inf(1)
			if rs != nil {
				reach = rs.reach[i-lo].value()
			}
			t, sc, skip := r.scoreAt(i, reach, floor)
			hit := Scored{Table: t, Score: sc}
			switch {
			case skip:
			case k <= 0 || len(top) < k:
				top = append(top, hit)
				if len(top) == k {
					slices.SortFunc(top, func(a, b Scored) int { return hitOrder(b, a) })
					floor = top[0].Score
				}
			case hitOrder(hit, top[0]) < 0:
				top[0] = hit
				siftDown(top, 0, worseHit)
				floor = top[0].Score
			}
		}
		var seeds []int // once scored: the seeds by index, which the second pass skips
		if k > 0 {
			rs = rankPool.Get().(*rankScratch)
			defer rankPool.Put(rs)
			var ok bool
			if seeds, ok = rs.pickSeeds(lo, hi, 2*min(k, hi-lo), r.reach, done); !ok {
				return
			}
			for _, i := range seeds {
				select {
				case <-done:
					return
				default:
				}
				offer(i)
			}
			slices.Sort(seeds)
		}
		for i := lo; i < hi; i++ {
			select {
			case <-done:
				return
			default:
			}
			if len(seeds) > 0 && seeds[0] == i {
				seeds = seeds[1:]
				continue
			}
			if rs != nil && rs.reach[i-lo].value() < floor {
				cut++
				continue
			}
			offer(i)
		}
		mu.Lock()
		out = append(out, top...)
		mu.Unlock()
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	slices.SortFunc(out, hitOrder)
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out, nil
}

// MAP computes Mean Average Precision of a table ranking against a
// benchmark's unionability ground truth, retrieving k results per query
// with topK — a ranker's TopK method, or search.TopK bound to a Searcher
// (§6.5.2). k <= 0 scores topK's full ranking, so each query's average
// precision is taken over all of its unionable tables.
func MAP(topK func(q *table.Table, k int) []Scored, b *datagen.Benchmark, k int) float64 {
	if len(b.Queries) == 0 {
		return 0
	}
	var sum float64
	for _, q := range b.Queries {
		truth := map[string]bool{}
		for _, n := range b.Unionable[q.Name] {
			truth[n] = true
		}
		if len(truth) == 0 {
			continue
		}
		hits := 0
		var ap float64
		for i, sc := range topK(q, k) {
			if truth[sc.Table.Name] {
				hits++
				ap += float64(hits) / float64(i+1)
			}
		}
		denom := len(truth)
		if k > 0 {
			denom = min(denom, k)
		}
		sum += ap / float64(denom)
	}
	return sum / float64(len(b.Queries))
}

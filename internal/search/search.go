// Package search implements the table-union-search substrate DUST builds
// on (paper Algorithm 1, line 3): a Starmie-like searcher (contextualized
// column embeddings + maximum-weight bipartite matching, §6.2.3/§6.5.1)
// behind the one Searcher contract. The evaluation's other rankers — D3L,
// the tuple-level Starmie of Table 3 — and the MAP metric live in
// internal/experiments/baselines.
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
// Starmie implements it over the whole lake, and the pipeline, persistence
// and serving layers compose against this type alone. Queries run prepared
// — Prepare once, then TopKPrepared; TopK and TopKCtx wrap the two steps.
// A Searcher is never written once built: queries are safe concurrently
// with each other and with WithTable/WithoutTable, which build a successor.
type Searcher interface {
	// Name identifies the searcher; config tags and the serving caches
	// keyed by them build on it.
	Name() string
	// Lake returns the lake this searcher indexes, which it owns: nothing
	// may change it.
	Lake() *lake.Lake

	// Prepare encodes the query once; the result may be reused across any
	// number of TopKPrepared calls on this searcher and its views.
	Prepare(query *table.Table) PreparedQuery
	// TopKPrepared scores every indexed table against pq exactly and
	// returns the top k by (score desc, name asc); k <= 0 asks for the full
	// ranking. The scan's exits are added to tr; a nil tr leaves the query
	// untraced. A cancelled ctx yields ctx.Err(), never a truncated ranking;
	// a preparation from another searcher family yields ErrForeignPrepared.
	TopKPrepared(ctx context.Context, pq PreparedQuery, k int, tr *Trace) ([]Scored, error)
	// ScoreTables scores the named indexed tables against pq, in the order
	// named, each to the bits TopKPrepared ranks it by; a name the index
	// does not hold yields lake.ErrUnknownTable.
	ScoreTables(pq PreparedQuery, names []string) ([]Scored, error)

	// QueryWorkers returns a view sharing the index that scores queries
	// with at most n workers; batch-serving callers use it to stop
	// per-query fan-out from multiplying their own query-level parallelism.
	QueryWorkers(n int) Searcher

	// WithTable returns a successor indexing the receiver's tables and t,
	// and WithoutTable one indexing them without the named table, each over
	// a lake of its own, in O(delta) work plus one copy of the table list:
	// its answers are bit-identical to an index built from
	// scratch over the new table set. The receiver and its views are left
	// as they were, and share the column blocks the mutation does not
	// re-embed. A name already indexed (WithTable) or not indexed
	// (WithoutTable) yields a nil successor and lake.ErrDuplicateTable or
	// lake.ErrUnknownTable.
	WithTable(t *table.Table) (Searcher, error)
	WithoutTable(name string) (Searcher, error)
}

// QueryBounded names the part of the contract that re-bounds query
// parallelism; every Searcher has it.
type QueryBounded = Searcher

// Mode names a retrieval backend. The exact scan is the only one, so
// every Mode answers alike; the type, its two values and String are kept
// for the benchmark, which still names the view it times by Mode.
type Mode int

const (
	// Exact scans and scores every lake table.
	Exact Mode = iota
	// ANN names the approximate retriever the index no longer has;
	// Starmie's ModeView answers it with the exact scan.
	ANN
)

// String names the mode: "exact", "ann", or mode(n).
func (m Mode) String() string {
	switch m {
	case Exact:
		return "exact"
	case ANN:
		return "ann"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Typed failures of the persistence surface.
var (
	// ErrLakeMismatch reports a saved index whose table set does not match
	// the lake it is being loaded against.
	ErrLakeMismatch = errors.New("search: saved index does not match the lake")
	// ErrEncoderMismatch reports a saved index built with a different
	// encoder configuration than the loading searcher.
	ErrEncoderMismatch = errors.New("search: saved index built with a different encoder")
)

// TopKCtx is the whole query under ctx, untraced: Prepare, then
// TopKPrepared. The error is ctx.Err() when the query was cancelled.
func TopKCtx(ctx context.Context, s Searcher, query *table.Table, k int) ([]Scored, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.TopKPrepared(ctx, s.Prepare(query), k, nil)
}

// TopK is TopKCtx under a background context, which cannot fail.
func TopK(s Searcher, query *table.Table, k int) []Scored {
	out, _ := TopKCtx(context.Background(), s, query, k)
	return out
}

// Stage is one of the six disjoint spans a search's wall time is split
// into, in Algorithm 1's order. Each is named after the benchmark layer
// that times the same calls, and that name is its label on /metrics and in
// the request log.
type Stage int

// The stages, in Algorithm 1's order; NumStages counts them.
const (
	StageTopK         Stage = iota // line 3: encode the query, rank the lake
	StageEmbedColumns              // line 5: embed the query's and the hits' columns
	StageHolistic                  // line 5: cluster the columns into mappings
	StageOuterUnion                // outer union and the coverage filter
	StageEncodeTuples              // line 7: embed the query's and the pool's tuples
	StageDiversify                 // line 8: groups, selection, result table
	NumStages
)

var stageNames = [NumStages]string{
	"search.topk", "align.embed_columns", "align.holistic",
	"table.outer_union", "model.encode_tuples", "diversify.select",
}

// String names the stage after its benchmark layer.
func (s Stage) String() string { return stageNames[s] }

// Trace accumulates one query's wall time per Stage, which the dust
// pipeline records, and the exits its candidates took through Starmie's
// exact scan, which the scan's parallel chunks count from concurrent
// goroutines. A dust.Request owns its search's Trace; serving layers turn
// it into latency histograms and per-request log fields.
type Trace struct {
	// NS is nanoseconds per stage.
	NS [NumStages]atomic.Int64
	// Scan counts candidate tables by scan exit (ScanCoded … ScanMatched).
	// The split is input-dependent — a query whose candidates all tie
	// defeats the bounds — so it is counted, not assumed.
	Scan [ScanExits]atomic.Int64
}

// Add adds d to stage st. A nil Trace is a no-op, so an untraced query
// costs the caller nothing but its clock reads.
func (tr *Trace) Add(st Stage, d time.Duration) {
	if tr != nil {
		tr.NS[st].Add(d.Nanoseconds())
	}
}

// PreparedQuery is a query's encoded representation — Starmie's column
// embeddings — computed once by Searcher.Prepare and reusable across many
// TopKPrepared calls (a query asked for several k never re-encodes). A
// prepared query is only meaningful to the searcher that prepared it and
// the views sharing its index. Implementations type-assert the concrete
// preparation and report ErrForeignPrepared for one produced by a
// different searcher family.
type PreparedQuery any

// ErrForeignPrepared reports a PreparedQuery handed to a searcher family
// that did not produce it.
var ErrForeignPrepared = errors.New("search: prepared query from a different searcher family")

// IndexFootprint is one index's resident-size report beyond its column
// blocks. The exact scan keeps no other structure, so it is always zero;
// it is kept for the benchmark, which reads it through
// dust.Pipeline.IndexBytes.
type IndexFootprint struct {
	Bytes int64
}

// Option configures Starmie's execution.
type Option func(*options)

type options struct {
	workers int
}

// WithWorkers bounds the parallelism of index construction and query
// scoring; n <= 0 selects the GOMAXPROCS-derived default and n == 1 forces
// the sequential path. Results are identical for every worker count.
func WithWorkers(n int) Option { return func(o *options) { o.workers = n } }

func applyOptions(opts []Option) options {
	var o options
	for _, f := range opts {
		f(&o)
	}
	return o
}

// HitOrder is the ranking order as a comparison: score descending, ties by
// table name ascending. Names are unique within a lake, so it is total:
// TopKPrepared returns its hits in this order.
func HitOrder(a, b Scored) int {
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

func worseHit(a, b Scored) bool { return HitOrder(a, b) > 0 }

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

// cancelStride is how many candidates a pass of rankTablesCtx walks
// between two looks at its context: a look is a select, which costs more
// than a first-pass candidate's share of the scan would warrant, while 64
// candidates are a few microseconds of work.
const cancelStride = 64

// cancelled reports whether done has closed.
func cancelled(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// pickSeeds runs sc's first pass over candidates lo..hi-1 and returns the
// min(n, hi-lo) of highest stored reach, ties to the lower index, in that
// order; false when ctx's done closed first.
func (rs *rankScratch) pickSeeds(lo, hi, n int, sc *scan, done <-chan struct{}) ([]int, bool) {
	m := hi - lo
	rs.reach = slices.Grow(rs.reach[:0], m)[:m]
	for i := lo; i < hi; i++ {
		if (i-lo)%cancelStride == 0 && cancelled(done) {
			return nil, false
		}
		rs.reach[i-lo] = storeReach(sc.reach(i))
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
// the candidates cands of query q, one contiguous chunk per worker of s,
// and returns the top k in ranking order (all of them for k <= 0). Each
// chunk takes its own scan — free to own scratch, since only the chunk's
// goroutine uses it. With k > 0 each chunk keeps only its own best k in a
// heap whose root is the floor handed to the scan, and ranks in two passes:
// the first takes every candidate's reach and scores the 2k of highest
// reach (ties to index order) first, so that the floor starts near its
// final value; the second walks the rest in index order, cutting a
// candidate whose reach is strictly below the floor without scoring it; the
// scan scores the others knowing their stored reach. Seeds are kept out of
// the second pass by their own list, never by their reach: while fewer than
// k hits are in, the floor is -Inf, which no reach is below. Every cut,
// here or in the scan, is strictly below the floor, and the floor never
// exceeds the chunk's final k-th hit, so a cut table is outside the chunk's
// top k whatever the order, and a table tied with that hit on score still
// reaches the name comparison. A table's score is a function of the table
// alone, so the global top k — the top k of the chunks' survivors — is
// identical for every worker count. With k <= 0 nothing is cut, and the
// first pass is skipped. Once ctx is cancelled the remaining candidates are
// not scored and ctx.Err() is returned instead of a partial ranking;
// cancellation is checked before every seed and every cancelStride-th
// candidate of either pass; the chunks' exits are added to tr.
func rankTablesCtx(ctx context.Context, s *Starmie, q *starmiePrepared, cands []entry, k int, tr *Trace) ([]Scored, error) {
	done := ctx.Done()
	conf := s.scanConf() // the chunks never hold s: see scanConf
	var mu sync.Mutex
	var out []Scored
	par.ForChunks(s.workers, len(cands), func(lo, hi int) {
		r := openScan(conf, q, cands, tr)
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
					slices.SortFunc(top, func(a, b Scored) int { return HitOrder(b, a) })
					floor = top[0].Score
				}
			case HitOrder(hit, top[0]) < 0:
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
			if seeds, ok = rs.pickSeeds(lo, hi, 2*min(k, hi-lo), r, done); !ok {
				return
			}
			for _, i := range seeds {
				if cancelled(done) {
					return
				}
				offer(i)
			}
			slices.Sort(seeds)
		}
		for i := lo; i < hi; i++ {
			if (i-lo)%cancelStride == 0 && cancelled(done) {
				return
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
	slices.SortFunc(out, HitOrder)
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out, nil
}

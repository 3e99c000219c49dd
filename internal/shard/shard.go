// Package shard partitions a data lake into N independent sub-indexes and
// serves queries by scatter-gather: a deterministic hash assigns every
// table to one shard, each shard owns its own Starmie searcher (and, in ANN
// mode, its own HNSW graph) over its own sub-lake, queries fan out across
// the shards in parallel, and the gather stage merges the shards' answers
// under the global score order. Because every shard scores with the exact
// scorer — against one TF-IDF corpus shared by all shards — the merged
// exact-mode ranking is bit-identical to an unsharded scan, while the index
// itself becomes horizontally partitioned: shards build, persist, mutate,
// and clone independently, which is the substrate for spreading a lake
// across processes or machines.
//
// The query path is built so sharding adds no per-query duplicate work:
//
//   - Encode once, scatter prepared. The query's representation (its
//     column embeddings) is derived exactly once (Searcher.Prepare) and the
//     prepared form fans out, so shard count never multiplies encoding
//     cost.
//   - Bounded gather. In exact mode each shard returns a truncated local
//     top list (k/n plus slack, never more than k) merged by a k-way heap;
//     a threshold-style bound then re-fetches only shards whose truncated
//     list could still change the global top k, so the merge stays exact
//     while the common case moves far fewer hits than k-per-shard.
//   - Candidate-only ANN. In ANN mode shards only nominate candidate names
//     from their retrieval structures; the exact re-scoring happens once,
//     globally, on the merged pool — not once per shard on oversampled
//     local pools.
//   - No per-query fixed costs. The scatter runs on one long-lived worker
//     pool owned by the shard family (see Close), not a pool built and
//     torn down per query.
package shard

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"time"

	"dust/internal/embed"
	"dust/internal/lake"
	"dust/internal/par"
	"dust/internal/search"
	"dust/internal/table"
	"dust/internal/tokenize"
)

// Gather-stage tuning. Both are slack on provably-sufficient bounds, so
// they trade a little extra per-shard work for fewer second rounds (exact)
// or higher first-pass recall (ANN); correctness of the exact merge never
// depends on them.
const (
	// gatherSlack widens the exact-mode first-round per-shard fetch beyond
	// the ceil(k/n) a perfectly uniform score distribution would need, so
	// mildly skewed lakes still finish in one round.
	gatherSlack = 8
	// annNominateSlack widens each shard's ANN nomination depth beyond its
	// proportional ceil(Oversample*k/n) share, so the merged candidate pool
	// keeps monolithic-grade recall even when one shard owns most of the
	// true neighbours.
	annNominateSlack = 4
)

// scatterPool wraps the long-lived worker pool behind a shard family's
// query scatter. The wrapper — and thus the pool — is shared by the
// original searcher and every clone derived from it, so close must be
// idempotent: whichever family member is closed first releases the
// workers, later closes are no-ops.
type scatterPool struct {
	pool *par.Pool
	once sync.Once
}

func newScatterPool(workers int) *scatterPool {
	return &scatterPool{pool: par.NewPool(workers)}
}

func (p *scatterPool) close() { p.once.Do(p.pool.Close) }

// Typed failures of the sharding layer.
var (
	// ErrUnknownKind reports Assemble parts that are not Starmie searchers,
	// the one kind this package shards.
	ErrUnknownKind = errors.New("shard: unknown searcher kind")
	// ErrLayoutMismatch reports Assemble parts that do not partition the
	// full lake exactly (a table missing, duplicated, or unknown).
	ErrLayoutMismatch = errors.New("shard: parts do not partition the lake")
)

// Assign returns the owning shard of a table name under n shards: FNV-1a of
// the name modulo n. The assignment depends only on (name, n), so every
// process sharding the same lake the same way routes a table identically —
// no coordination state to persist beyond the shard count.
func Assign(name string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % uint32(n))
}

// Partition splits l into n sub-lakes by Assign, preserving l's iteration
// order within each shard. Sub-lakes share l's table objects (which nothing
// mutates after insertion), so partitioning costs O(tables), not O(cells).
func Partition(l *lake.Lake, n int) []*lake.Lake {
	if n < 1 {
		n = 1
	}
	subs := make([]*lake.Lake, n)
	for i := range subs {
		subs[i] = lake.New(fmt.Sprintf("%s#%d", l.Name, i))
	}
	for _, t := range l.Tables() {
		subs[Assign(t.Name, n)].MustAdd(t)
	}
	return subs
}

// Searcher is a sharded table-union searcher: search.Searcher backed by N
// independent per-shard indexes, its Parts. It implements the contract by
// scattering to the shards and merging, so a dust.Pipeline (and everything
// above it: persistence, serving, snapshot swaps) treats a shard set
// exactly like a monolithic index.
type Searcher struct {
	full *lake.Lake
	// subs are the per-shard indexes, each over its own sub-lake (Lake()).
	subs []search.Searcher
	// corpus is the one TF-IDF corpus shared by every shard. It covers the
	// FULL lake, so per-shard embeddings — and therefore per-shard exact
	// scores — are bit-identical to an unsharded index's; without it, each
	// shard's document frequencies would drift from the global statistics
	// and the merged ranking would diverge from the unsharded one whenever
	// a column exceeds the encoder token budget.
	corpus  *tokenize.Corpus
	workers int
	mode    search.Mode
	// pool runs the query scatter. It is created at construction and shared
	// with every clone (snapshot swaps reuse the same workers) and every
	// view, so Close on any family member releases it.
	pool *scatterPool
	// inline marks a query-bounded view, which scatters on the calling
	// goroutine's par.For instead of the pool — a serving request must
	// neither pay goroutine spin-up nor borrow the family's full-width pool.
	inline bool
	// timings, when non-nil, accumulates per-stage query wall time; see
	// Instrument.
	timings *search.StageTimings
	// Oversample sizes the ANN candidate pool for a top-k query: the
	// shards' nomination depths sum to about ceil(Oversample*k) before the
	// single global exact re-score. Exact mode ignores it — the bounded
	// gather derives its own per-shard limits, which correctness never
	// lets exceed k.
	Oversample float64
}

// NewStarmie builds a Starmie shard set over l with n shards: one global
// corpus pass over the full lake (identical document statistics to an
// unsharded build), then one Starmie index per sub-lake embedded against
// that shared corpus. workers bounds both the per-shard indexing/scoring
// parallelism and the width of the query scatter; <= 0 derives the bound
// from GOMAXPROCS and 1 forces the sequential path. Results are
// bit-identical for every setting.
func NewStarmie(l *lake.Lake, n, workers int) *Searcher {
	corpus := &tokenize.Corpus{}
	for _, t := range l.Tables() {
		for i := range t.Columns {
			corpus.AddDocument(embed.ColumnTokens(&t.Columns[i]))
		}
	}
	s := &Searcher{
		full:       l,
		corpus:     corpus,
		workers:    workers,
		pool:       newScatterPool(workers),
		Oversample: search.DefaultOversample,
	}
	for _, sl := range Partition(l, n) {
		s.subs = append(s.subs, search.NewStarmie(sl, search.WithWorkers(workers),
			search.WithSharedCorpus(corpus)))
	}
	return s
}

// Assemble reconstitutes an index from independently loaded parts — the
// warm-start dual of NewStarmie. The parts' lakes must partition full
// exactly (every lake table in exactly one part) and every part must be a
// Starmie searcher; violations return ErrLayoutMismatch or ErrUnknownKind.
// A single part bound to full itself already is the whole index — a
// monolithic searcher — and is returned as is, with no scatter in front of
// it. Otherwise the result is a sharded Searcher whose shards are all
// rebound to part 0's restored corpus, so the set again shares one global
// TF-IDF state (each saved shard recorded the identical full-lake corpus,
// so any part's restore works).
func Assemble(full *lake.Lake, parts []search.Searcher) (search.Searcher, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("%w: no parts", ErrLayoutMismatch)
	}
	// Every part table must be the lake's own and no table may sit in two
	// parts; then the counts agree iff the parts cover the lake exactly once.
	seen := make(map[string]bool, full.Len())
	var starmies []*search.Starmie
	for i, p := range parts {
		for _, name := range p.Lake().Names() {
			if t := full.Get(name); t == nil || t != p.Lake().Get(name) {
				return nil, fmt.Errorf("%w: shard %d holds %q, the lake does not", ErrLayoutMismatch, i, name)
			}
			if seen[name] {
				return nil, fmt.Errorf("%w: table %q in two shards", ErrLayoutMismatch, name)
			}
			seen[name] = true
		}
		st, ok := p.(*search.Starmie)
		if !ok {
			return nil, fmt.Errorf("%w: shard %d is %T", ErrUnknownKind, i, p)
		}
		starmies = append(starmies, st)
	}
	if len(seen) != full.Len() {
		return nil, fmt.Errorf("%w: parts hold %d tables, lake holds %d", ErrLayoutMismatch, len(seen), full.Len())
	}
	if len(parts) == 1 && parts[0].Lake() == full {
		return parts[0], nil
	}
	// The pool starts only now that the layout is validated, so a rejected
	// Assemble leaks no worker goroutines.
	s := &Searcher{
		full:       full,
		subs:       parts,
		corpus:     starmies[0].Corpus(),
		mode:       parts[0].RetrievalMode(),
		pool:       newScatterPool(0),
		Oversample: search.DefaultOversample,
	}
	for _, st := range starmies {
		st.AdoptSharedCorpus(s.corpus)
	}
	return s, nil
}

// Lake implements search.Searcher: the full, unpartitioned lake.
func (s *Searcher) Lake() *lake.Lake { return s.full }

// Parts implements search.Searcher: the per-shard searchers in shard order,
// each bound to its own sub-lake — what the persistence layer saves one
// file per and a warm start hands back to Assemble.
func (s *Searcher) Parts() []search.Searcher { return s.subs }

// Name implements search.Searcher. The shard count and the sub-searcher
// name (which carries the +ann suffix in ANN mode) both shape rankings, so
// both belong in the name — config tags, and the serving caches keyed by
// them, stay distinct across layouts and modes.
func (s *Searcher) Name() string {
	return fmt.Sprintf("sharded%d(%s)", len(s.subs), s.subs[0].Name())
}

// Prepare implements search.Searcher: the query representation is derived
// exactly once, by shard 0 — every shard shares its encoder state, so the
// preparation serves them all.
func (s *Searcher) Prepare(query *table.Table) search.PreparedQuery {
	t0 := time.Now()
	pq := s.subs[0].Prepare(query)
	if s.timings != nil {
		s.timings.EncodeNS.Add(time.Since(t0).Nanoseconds())
	}
	return pq
}

// TopKPrepared implements search.Searcher as scatter-gather: the prepared
// query fans out across every shard on the family's long-lived pool; the
// gather merges the shards' exactly-scored answers under the global (score
// desc, name asc) order — the same total order the unsharded scorer
// applies, which with the shared corpus makes the exact-mode merge
// bit-identical to an unsharded scan. Exact mode runs the bounded gather
// (per-shard limits near k/n, a threshold-style second round only for
// shards that might still matter); ANN mode runs the candidate-only plan
// (shards nominate, one global exact re-score). k <= 0 asks for the full
// ranking. Cancelling ctx abandons the remaining shards and returns
// ctx.Err().
func (s *Searcher) TopKPrepared(ctx context.Context, pq search.PreparedQuery, k int) ([]search.Scored, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The coordinator owns the per-request trace: scatter maps to retrieve,
	// gather to score. Sub-searcher calls record into a trace of their own,
	// so the shards' stage times do not double-count the same wall time;
	// only their scan counts, which nothing else reports, are carried over.
	tr := search.TraceFrom(ctx)
	var sub search.Trace
	if tr != nil {
		ctx = search.WithTrace(ctx, &sub)
	}
	var hits []search.Scored
	var err error
	if s.mode == search.ANN && k > 0 {
		hits, err = s.topKANN(ctx, pq, k, tr)
	} else {
		hits, err = s.topKExact(ctx, pq, k, tr)
	}
	tr.AddScan(sub.ScanBounded.Load(), sub.ScanGreedy.Load(), sub.ScanMatched.Load())
	if s.timings != nil && err == nil {
		s.timings.Queries.Add(1)
	}
	return hits, err
}

// runScatter runs fn(i) for i in [0, n) across the shard family's
// long-lived pool, or inline via par.For on query-bounded views (the
// serving path, where per-request goroutine spin-up is exactly the
// fixed cost this layer removes). Shards are handed to the pool in
// min(workers, n) contiguous chunks rather than one task per shard: extra
// tasks beyond the worker count cannot add parallelism, but each one costs
// an unbuffered-channel handoff (two context switches on a busy pool).
// Pool tasks from concurrent queries share the worker bound but never
// wait on each other (par.Pool.Run).
func (s *Searcher) runScatter(n int, fn func(i int)) {
	if s.inline {
		par.For(s.workers, n, fn)
		return
	}
	chunks := par.Normalize(s.workers)
	if chunks > n {
		chunks = n
	}
	size := (n + chunks - 1) / chunks
	tasks := make([]func(), 0, chunks)
	for lo := 0; lo < n; lo += size {
		lo, hi := lo, lo+size
		if hi > n {
			hi = n
		}
		tasks = append(tasks, func() {
			for i := lo; i < hi; i++ {
				fn(i)
			}
		})
	}
	s.pool.pool.Run(tasks...)
}

// topKExact is the bounded gather. Round one asks every shard for its local
// top limit = min(k, ceil(k/n)+gatherSlack) (exact mode with several
// shards; limit = k for one shard and for the ANN plan's fallback, whose
// per-shard pools are approximate, so the threshold bound does not apply).
// The merged top k is final for every shard whose list was exhausted
// (shorter than limit) or whose last returned hit ranks at or below the
// merged k-th — any unseen hit on such a shard ranks strictly after that
// last hit, so it cannot displace the current top k.
// Only the remaining "open" shards are re-fetched, at limit k, which closes
// them for good: a shard that returned k hits cannot hold an unseen hit in
// the global top k (its k seen hits would all have to rank above it,
// overfilling the top k). One second round therefore always suffices, and
// the result is bit-identical to an unsharded scan. k <= 0 requests the
// full ranking from every shard in one round.
func (s *Searcher) topKExact(ctx context.Context, pq search.PreparedQuery, k int, tr *search.Trace) ([]search.Scored, error) {
	n := len(s.subs)
	limit := k
	if k > 0 && s.mode == search.Exact && n > 1 {
		if l := (k+n-1)/n + gatherSlack; l < k {
			limit = l
		}
	}
	tScatter := time.Now()
	hits := make([][]search.Scored, n)
	errs := make([]error, n)
	s.runScatter(n, func(i int) {
		hits[i], errs[i] = s.subs[i].TopKPrepared(ctx, pq, limit)
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	scatterNS := time.Since(tScatter).Nanoseconds()

	tGather := time.Now()
	merged := mergeHits(hits, k)
	gatherNS := time.Since(tGather).Nanoseconds()

	if k > 0 && limit < k {
		var open []int
		for i, h := range hits {
			if len(h) == limit && (len(merged) < k || hitLess(h[len(h)-1], merged[len(merged)-1])) {
				open = append(open, i)
			}
		}
		if len(open) > 0 {
			t2 := time.Now()
			more := make([][]search.Scored, len(open))
			errs2 := make([]error, len(open))
			s.runScatter(len(open), func(i int) {
				more[i], errs2[i] = s.subs[open[i]].TopKPrepared(ctx, pq, k)
			})
			if err := errors.Join(errs2...); err != nil {
				return nil, err
			}
			scatterNS += time.Since(t2).Nanoseconds()
			t3 := time.Now()
			for i, o := range open {
				hits[o] = more[i]
			}
			merged = mergeHits(hits, k)
			gatherNS += time.Since(t3).Nanoseconds()
		}
	}
	s.record(tr, scatterNS, gatherNS)
	return merged, nil
}

// record charges stage wall time to the attached accumulator and to the
// request's trace, where scatter is the retrieve stage and gather the score
// stage.
func (s *Searcher) record(tr *search.Trace, scatterNS, gatherNS int64) {
	if s.timings != nil {
		s.timings.ScatterNS.Add(scatterNS)
		s.timings.GatherNS.Add(gatherNS)
	}
	if tr != nil {
		tr.RetrieveNS.Add(scatterNS)
		tr.ScoreNS.Add(gatherNS)
	}
}

// topKANN is the candidate-only ANN plan: every shard nominates its local
// candidates at depth ceil(Oversample*k/n)+annNominateSlack from its own
// retrieval structure, and the single exact-scoring pass runs globally on
// the merged pool — each candidate scored once by its owning shard's
// scorer (the owner holds the candidate's indexed state). An empty global
// pool (graphs holding no nodes) falls back to the exact path. The
// final ranking sorts by the same (score desc, name asc) total order as
// everywhere else, so results are deterministic for every worker count.
func (s *Searcher) topKANN(ctx context.Context, pq search.PreparedQuery, k int, tr *search.Trace) ([]search.Scored, error) {
	depth := int(math.Ceil(s.Oversample*float64(k)/float64(len(s.subs)))) + annNominateSlack

	tScatter := time.Now()
	nameLists, err := s.nominate(ctx, pq, depth)
	if err != nil {
		return nil, err
	}
	s.record(tr, time.Since(tScatter).Nanoseconds(), 0)

	tGather := time.Now()
	type cand struct {
		t     *table.Table
		owner int
	}
	var pool []cand
	for i, names := range nameLists {
		for _, name := range names {
			// Shards partition the lake, so cross-shard duplicates cannot
			// occur; a nominee unknown to its own sub-lake would be an
			// index bug and is simply skipped.
			if t := s.subs[i].Lake().Get(name); t != nil {
				pool = append(pool, cand{t, i})
			}
		}
	}
	if len(pool) == 0 {
		return s.topKExact(ctx, pq, k, tr)
	}
	scored := make([]search.Scored, len(pool))
	if err := par.ForCtx(ctx, s.workers, len(pool), func(i int) {
		scored[i] = search.Scored{
			Table: pool[i].t,
			Score: s.subs[pool[i].owner].ScorePrepared(pq, pool[i].t),
		}
	}); err != nil {
		return nil, err
	}
	sort.Slice(scored, func(i, j int) bool { return hitLess(scored[i], scored[j]) })
	if len(scored) > k {
		scored = scored[:k]
	}
	s.record(tr, 0, time.Since(tGather).Nanoseconds())
	return scored, nil
}

// nominate scatters NominatePrepared across the shards at the given
// per-shard depth and returns each shard's nominees, shard-indexed.
func (s *Searcher) nominate(ctx context.Context, pq search.PreparedQuery, depth int) ([][]string, error) {
	nameLists := make([][]string, len(s.subs))
	errs := make([]error, len(s.subs))
	s.runScatter(len(s.subs), func(i int) {
		nameLists[i], errs[i] = s.subs[i].NominatePrepared(ctx, pq, depth)
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return nameLists, ctx.Err()
}

// NominatePrepared implements search.Searcher: every shard's nominees at
// the given depth, concatenated in shard order (shards partition the lake,
// so the lists are disjoint).
func (s *Searcher) NominatePrepared(ctx context.Context, pq search.PreparedQuery, depth int) ([]string, error) {
	nameLists, err := s.nominate(ctx, pq, depth)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, l := range nameLists {
		names = append(names, l...)
	}
	return names, nil
}

// ScorePrepared implements search.Searcher through the shard that owns t.
func (s *Searcher) ScorePrepared(pq search.PreparedQuery, t *table.Table) float64 {
	return s.subs[s.owner(t.Name)].ScorePrepared(pq, t)
}

// hitLess is the global ranking order: score descending, table name
// ascending. Table names are unique lake-wide, so the order is total and
// every merge deterministic for every worker and shard count.
func hitLess(a, b search.Scored) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Table.Name < b.Table.Name
}

// mergeHits is the gather stage: a k-way heap merge of the shards' local
// rankings (each already sorted by hitLess) that stops after emitting k
// hits. Unlike concatenate-and-sort it does O(k log n) comparisons and one
// right-sized allocation instead of O(T log T) over the full union — the
// merge cost no longer grows with the per-shard list lengths beyond the
// hits actually consumed. k <= 0 merges everything.
func mergeHits(hits [][]search.Scored, k int) []search.Scored {
	total := 0
	heads := make([][]search.Scored, 0, len(hits))
	for _, h := range hits {
		if len(h) > 0 {
			heads = append(heads, h)
			total += len(h)
		}
	}
	if len(heads) == 0 {
		return nil
	}
	if len(heads) == 1 {
		out := heads[0]
		if k > 0 && len(out) > k {
			out = out[:k]
		}
		return out
	}
	want := total
	if k > 0 && k < want {
		want = k
	}
	// A tiny hand-rolled binary min-heap over list heads; container/heap
	// would box every cursor through an interface on each fix-up.
	less := func(a, b []search.Scored) bool { return hitLess(a[0], b[0]) }
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			best := i
			if l < len(heads) && less(heads[l], heads[best]) {
				best = l
			}
			if r < len(heads) && less(heads[r], heads[best]) {
				best = r
			}
			if best == i {
				return
			}
			heads[i], heads[best] = heads[best], heads[i]
			i = best
		}
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	out := make([]search.Scored, 0, want)
	for len(out) < want {
		out = append(out, heads[0][0])
		if rest := heads[0][1:]; len(rest) > 0 {
			heads[0] = rest
		} else {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
			if len(heads) == 1 {
				// One list left: it is already sorted — bulk-append the
				// remainder without heap traffic.
				need := want - len(out)
				if need > len(heads[0]) {
					need = len(heads[0])
				}
				out = append(out, heads[0][:need]...)
				break
			}
			if len(heads) == 0 {
				break
			}
		}
		siftDown(0)
	}
	return out
}

// SetMode implements search.Searcher by fanning the mode to every shard:
// entering ANN builds one HNSW graph per shard (or is a no-op for shards
// that already carry one, e.g. after a warm start).
func (s *Searcher) SetMode(m search.Mode) error {
	for _, sub := range s.subs {
		if err := sub.SetMode(m); err != nil {
			return err
		}
	}
	s.mode = m
	return nil
}

// RetrievalMode implements search.Searcher.
func (s *Searcher) RetrievalMode() search.Mode { return s.mode }

// owner returns the index of the shard holding name, or -1. Removals route
// by membership rather than re-deriving Assign so a layout loaded from a
// manifest keeps working even if the assignment policy evolves.
func (s *Searcher) owner(name string) int {
	for i, sub := range s.subs {
		if sub.Lake().Get(name) != nil {
			return i
		}
	}
	return -1
}

// corpusDocs adds (or, with add false, removes) a table's column documents
// to the shared corpus.
func (s *Searcher) corpusDocs(t *table.Table, add bool) {
	for i := range t.Columns {
		if tokens := embed.ColumnTokens(&t.Columns[i]); add {
			s.corpus.AddDocument(tokens)
		} else {
			s.corpus.RemoveDocument(tokens)
		}
	}
}

// AddTable implements search.Searcher: the table routes to its
// hash-assigned shard, whose index absorbs it as a delta update. The shared
// corpus gains the table's column documents first — exactly when an
// unsharded AddTable would — and every OTHER shard then
// refreshes its corpus-sensitive embeddings, so all shards keep scoring
// against the same global statistics a from-scratch unsharded index over
// the grown lake would hold.
func (s *Searcher) AddTable(t *table.Table) error {
	if s.owner(t.Name) >= 0 {
		return fmt.Errorf("shard: AddTable(%q): %w", t.Name, search.ErrDuplicateTable)
	}
	o := Assign(t.Name, len(s.subs))
	if err := s.subs[o].Lake().Add(t); err != nil {
		return err
	}
	s.corpusDocs(t, true)
	if err := s.subs[o].AddTable(t); err != nil {
		// Roll the shared state back so a refused table leaves no trace.
		s.corpusDocs(t, false)
		_ = s.subs[o].Lake().Remove(t.Name)
		return err
	}
	s.refreshOthers(o)
	return nil
}

// RemoveTable implements search.Searcher, routing to the owning shard and
// retiring the table's documents from the shared corpus before the shard
// un-indexes, so the owner's own refresh already sees the
// post-removal statistics; the remaining shards refresh afterwards.
func (s *Searcher) RemoveTable(name string) error {
	o := s.owner(name)
	if o < 0 {
		return fmt.Errorf("shard: RemoveTable(%q): %w", name, search.ErrUnknownTable)
	}
	t := s.subs[o].Lake().Get(name)
	s.corpusDocs(t, false)
	if err := s.subs[o].RemoveTable(name); err != nil {
		s.corpusDocs(t, true)
		return err
	}
	_ = s.subs[o].Lake().Remove(name)
	s.refreshOthers(o)
	return nil
}

// refreshOthers re-embeds corpus-sensitive tables on every shard except
// the one that just mutated (its own AddTable/RemoveTable already
// refreshed).
func (s *Searcher) refreshOthers(mutated int) {
	for i, sub := range s.subs {
		if i != mutated {
			sub.(*search.Starmie).RefreshBig()
		}
	}
}

// QueryWorkers implements search.Searcher: the returned searcher shares
// every shard's immutable index and bounds both the scatter width and each
// shard's scoring to n workers. The view scatters inline (par.For; fully
// sequential at n = 1) — a bounded view exists to cap one request's
// parallelism, so it must neither borrow the family's full-width pool nor
// spin up goroutines of its own. It still belongs to the family: Close on
// it releases the family pool.
func (s *Searcher) QueryWorkers(n int) search.Searcher {
	c := *s
	c.workers, c.inline = n, true
	c.subs = make([]search.Searcher, len(s.subs))
	for i, sub := range s.subs {
		c.subs[i] = sub.QueryWorkers(n)
	}
	return &c
}

// ModeView implements search.Searcher: a shallow copy of the shard set
// whose sub-searchers are themselves mode views, sharing all index state
// (graphs included) with the originals. The view keeps the family pool —
// it serves queries exactly like the original — and is unavailable unless
// every shard can produce the requested view.
func (s *Searcher) ModeView(m search.Mode) (search.Searcher, bool) {
	if m == s.mode {
		return s, true
	}
	c := *s
	c.mode = m
	c.subs = make([]search.Searcher, len(s.subs))
	for i, sub := range s.subs {
		v, ok := sub.ModeView(m)
		if !ok {
			return nil, false
		}
		c.subs[i] = v
	}
	return &c, true
}

// CloneWithLake implements search.Searcher for snapshot-swapped serving: l
// must be a clone of the full lake holding the same table set. Every shard
// clones against a clone of its own sub-lake (heavy embedding state stays
// shared, per the sub-searchers' clone contracts), and the shards are
// rebound to a single clone of the shared corpus so the new shard set
// again owns exactly one global TF-IDF state. The clone keeps the family's
// scatter pool — snapshot swaps must not churn worker goroutines — so
// Close applies family-wide (see Close).
func (s *Searcher) CloneWithLake(l *lake.Lake) search.Searcher {
	c := *s
	c.full = l
	c.subs = make([]search.Searcher, len(s.subs))
	c.corpus = s.corpus.Clone()
	for i, sub := range s.subs {
		c.subs[i] = sub.CloneWithLake(sub.Lake().Clone())
		c.subs[i].(*search.Starmie).AdoptSharedCorpus(c.corpus)
	}
	return &c
}

// Instrument implements search.Searcher: st (nil detaches) accumulates the
// per-stage wall time of this searcher's queries. Views and clones created
// before the call keep their previous accumulator. Not synchronized with
// in-flight queries — attach before querying starts.
func (s *Searcher) Instrument(st *search.StageTimings) bool {
	s.timings = st
	return true
}

// SetOversample implements search.Searcher: it sizes this set's merged ANN
// candidate pool and fans the factor to the shards (whose own Oversample
// only matters on their local fallback paths). v <= 0 restores the
// default.
func (s *Searcher) SetOversample(v float64) {
	if v <= 0 {
		v = search.DefaultOversample
	}
	s.Oversample = v
	for _, sub := range s.subs {
		sub.SetOversample(v)
	}
}

// SetEfSearch implements search.Searcher by fanning the beam width to
// every shard's own graph traversal. ef <= 0 restores the default.
func (s *Searcher) SetEfSearch(ef int) {
	for _, sub := range s.subs {
		sub.SetEfSearch(ef)
	}
}

// IndexBytes implements search.Searcher as the shards' summed footprint.
func (s *Searcher) IndexBytes() search.IndexFootprint {
	var total search.IndexFootprint
	for _, sub := range s.subs {
		total.Bytes += sub.IndexBytes().Bytes
	}
	return total
}

// MaintenanceStats implements search.Searcher as the merged per-shard
// view: counts sum across shards, dead fractions take the per-shard
// maximum (one rotten shard should trip the maintainer even if the rest
// of the lake is clean).
func (s *Searcher) MaintenanceStats() search.MaintenanceStats {
	var agg search.MaintenanceStats
	for _, sub := range s.subs {
		agg = agg.Merge(sub.MaintenanceStats())
	}
	return agg
}

// SetAutoCompact implements search.Searcher by fanning the policy to every
// shard.
func (s *Searcher) SetAutoCompact(on bool) {
	for _, sub := range s.subs {
		sub.SetAutoCompact(on)
	}
}

// Compact implements search.Searcher: every shard compacts its own
// tombstoned structures (in parallel on the family pool — compaction runs
// on clones, off the query path, so the pool is otherwise idle for this
// searcher). Reports whether any shard did work.
func (s *Searcher) Compact() bool {
	did := make([]bool, len(s.subs))
	s.runScatter(len(s.subs), func(i int) { did[i] = s.subs[i].Compact() })
	for _, d := range did {
		if d {
			return true
		}
	}
	return false
}

// Close implements search.Searcher: it releases the scatter pool's worker
// goroutines. The pool is shared by every clone and view in the searcher's
// family, so call Close once the whole family is done serving —
// dust.Pipeline.Close does this at pipeline teardown — not per snapshot
// clone. Close is idempotent across the family; queries on a family member
// that scatters on the pool panic after Close (query-bounded views, which
// scatter inline, keep working).
func (s *Searcher) Close() { s.pool.close() }

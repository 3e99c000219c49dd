package search

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"dust/internal/datagen"
	"dust/internal/lake"
	"dust/internal/table"
)

// shardBench generates the shared test lake of the sharded gates. The lake
// is salted with one table whose columns exceed the encoder token budget,
// so Starmie's corpus-sensitive TF-IDF path — the part of scoring that
// would diverge under per-part corpora — is actually exercised, not just
// the corpus-independent fast path.
func shardBench(t testing.TB) (*datagen.Benchmark, []*table.Table) {
	t.Helper()
	b := datagen.Generate("shard-bench", datagen.Config{
		Seed: 41, Domains: 5, TablesPerBase: 8, QueriesPerBase: 2,
		BaseRows: 40, MinRows: 8, MaxRows: 16,
	})
	b.Lake.MustAdd(vocabTable("wide_vocab", 4001))
	return b, b.Queries
}

// vocabTable builds a table whose single column holds `vocab` distinct
// tokens — far past embed.TokenBudget (512) — so its embedding depends on
// corpus TF-IDF selection.
func vocabTable(name string, vocab int) *table.Table {
	bt := table.New(name, "terms")
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < vocab/8; i++ {
		row := ""
		for j := 0; j < 8; j++ {
			row += fmt.Sprintf("tok%d_%d ", i, rng.Intn(1<<20))
		}
		bt.MustAppendRow(row)
	}
	return bt
}

// sharded builds a Starmie index over l in n parts.
func sharded(l *lake.Lake, n, workers int) *Starmie {
	return NewStarmie(l, WithShards(n), WithWorkers(workers))
}

// rank ranks q on s for each k in ks (k <= 0 asks for the full ranking).
// With prepared, one PreparedQuery is reused for every k; otherwise TopK
// prepares the query afresh each time.
func rank(s Searcher, q *table.Table, ks []int, prepared bool) [][]Scored {
	var pq PreparedQuery
	if prepared {
		pq = s.Prepare(q)
	}
	out := make([][]Scored, len(ks))
	for i, k := range ks {
		if prepared {
			out[i], _ = s.TopKPrepared(context.Background(), pq, k) // cannot fail uncancelled
		} else {
			out[i] = TopK(s, q, k)
		}
	}
	return out
}

// checkExactEquivalence requires exact sharded rankings to be bit-identical
// to the one-part searcher's for every part count at workers 1 and 8.
func checkExactEquivalence(t *testing.T, b *datagen.Benchmark, queries []*table.Table, shardCounts []int, prepared bool) {
	want := NewStarmie(b.Lake)
	ks := []int{1, 5, 12, 0}
	for _, shards := range shardCounts {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("starmie/shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				s := sharded(b.Lake, shards, workers)
				if got := len(s.Parts()); got != shards {
					t.Fatalf("len(Parts()) = %d, want %d", got, shards)
				}
				for qi, q := range queries {
					got, exp := rank(s, q, ks, prepared), rank(want, q, ks, false)
					for i, k := range ks {
						assertSameHits(t, fmt.Sprintf("query %d k=%d", qi, k), got[i], exp[i])
					}
				}
			})
		}
	}
}

// checkANNRecall requires ANN retrieval over the given part count (every
// part's graph nominates, the union is scored exactly once) to clear the
// recall@10 >= 0.95 bar one graph over the whole lake is held to.
func checkANNRecall(t *testing.T, b *datagen.Benchmark, queries []*table.Table, shards int, prepared bool) {
	t.Helper()
	const k = 10
	exact := NewStarmie(b.Lake)
	approx := NewStarmie(b.Lake, WithShards(shards), WithMode(ANN))
	if got := approx.RetrievalMode(); got != ANN {
		t.Fatalf("RetrievalMode = %v, want ANN", got)
	}
	var sum float64
	for _, q := range queries {
		truth := map[string]bool{}
		for _, h := range TopK(exact, q, k) {
			truth[h.Table.Name] = true
		}
		hits := 0
		for _, h := range rank(approx, q, []int{k}, prepared)[0] {
			if truth[h.Table.Name] {
				hits++
			}
		}
		sum += float64(hits) / float64(len(truth))
	}
	if r := sum / float64(len(queries)); r < 0.95 {
		t.Fatalf("sharded ANN recall@%d over %d parts = %.3f, want >= 0.95", k, shards, r)
	}
}

// TestShardedEquivalence is the acceptance gate of sharding through TopK:
// exact TopK must be bit-identical to the one-part searcher for shards in
// {1, 2, 3, 4} at workers 1 and 8, and ANN over 4 parts must keep the
// recall of one graph.
func TestShardedEquivalence(t *testing.T) {
	b, queries := shardBench(t)
	checkExactEquivalence(t, b, queries, []int{1, 2, 3, 4}, false)
	t.Run("ann-recall", func(t *testing.T) { checkANNRecall(t, b, queries, 4, false) })
}

// TestPreparedEquivalence is the same gate through the prepared surface,
// where one PreparedQuery is reused across every k: exact results must stay
// bit-identical to the one-part searcher for shards in {1, 2, 4, 8} at
// workers 1 and 8, and ANN over 8 parts must keep the recall of one graph.
func TestPreparedEquivalence(t *testing.T) {
	b, queries := shardBench(t)
	checkExactEquivalence(t, b, queries, []int{1, 2, 4, 8}, true)
	t.Run("ann-candidate-recall", func(t *testing.T) { checkANNRecall(t, b, queries, 8, true) })
}

// TestShardedIncrementalEquivalence drives interleaved AddTable/
// RemoveTable — including the over-budget table whose embeddings depend on
// the lake-wide corpus — and requires the mutated 3-part index to rank
// exactly like a from-scratch one-part index over the same table set, at
// workers 1 and 8. The lake follows the index as the Searcher contract
// asks: added to before AddTable, removed from after RemoveTable.
func TestShardedIncrementalEquivalence(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("starmie/workers=%d", workers), func(t *testing.T) {
			b, queries := shardBench(t)
			s := sharded(b.Lake, 3, workers)
			check := func(step string) {
				t.Helper()
				want := NewStarmie(b.Lake, WithWorkers(workers))
				for qi, q := range queries {
					assertSameHits(t, fmt.Sprintf("%s query %d", step, qi), TopK(s, q, 8), TopK(want, q, 8))
				}
			}

			extra := vocabTable("late_wide_vocab", 2401)
			b.Lake.MustAdd(extra)
			if err := s.AddTable(extra); err != nil {
				t.Fatal(err)
			}
			check("after add big")
			if err := s.AddTable(extra); !errors.Is(err, ErrDuplicateTable) {
				t.Fatalf("duplicate AddTable err = %v, want ErrDuplicateTable", err)
			}
			small := queries[0].Clone("late_small")
			b.Lake.MustAdd(small)
			if err := s.AddTable(small); err != nil {
				t.Fatal(err)
			}
			check("after add small")
			// Dropping the original big table shifts the lake-wide corpus;
			// every part's big tables must refresh against it.
			if err := s.RemoveTable("wide_vocab"); err != nil {
				t.Fatal(err)
			}
			if err := b.Lake.Remove("wide_vocab"); err != nil {
				t.Fatal(err)
			}
			check("after remove big")
			if err := s.RemoveTable("absent"); !errors.Is(err, ErrUnknownTable) {
				t.Fatalf("absent RemoveTable err = %v, want ErrUnknownTable", err)
			}
		})
	}
}

// TestShardedANNMutationsStayConsistent mutates an ANN-mode 2-part index
// and checks the part graphs follow: results must match a freshly built
// ANN 2-part index over the same table set.
func TestShardedANNMutationsStayConsistent(t *testing.T) {
	b, queries := shardBench(t)
	s := NewStarmie(b.Lake, WithShards(2), WithMode(ANN))
	extra := queries[0].Clone("late_small")
	b.Lake.MustAdd(extra)
	if err := s.AddTable(extra); err != nil {
		t.Fatal(err)
	}
	fresh := NewStarmie(b.Lake, WithShards(2), WithMode(ANN))
	for qi, q := range queries {
		assertSameHits(t, fmt.Sprintf("ann query %d", qi), TopK(s, q, 8), TopK(fresh, q, 8))
	}
}

// TestShardedCloneIsolation pins the copy-on-write contract snapshot
// serving depends on: mutations on a clone never disturb the original.
func TestShardedCloneIsolation(t *testing.T) {
	b, queries := shardBench(t)
	q := queries[0]
	s := sharded(b.Lake, 3, 0)
	before := TopK(s, q, 8)

	cl := s.CloneWithLake(b.Lake.Clone()).(*Starmie)
	if err := cl.RemoveTable("wide_vocab"); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddTable(q.Clone("clone_only")); err != nil {
		t.Fatal(err)
	}
	assertSameHits(t, "original after clone mutations", TopK(s, q, 8), before)
	if cl.owner("clone_only") == nil || cl.owner("wide_vocab") != nil {
		t.Error("clone lost its own mutations")
	}
	if s.owner("clone_only") != nil || s.owner("wide_vocab") == nil {
		t.Error("clone mutations leaked into the original")
	}
}

// TestShardedQueryBoundAndCancel covers the serving-facing surfaces:
// QueryWorkers re-bounds without changing results, and a cancelled context
// aborts the query with the context's error.
func TestShardedQueryBoundAndCancel(t *testing.T) {
	b, queries := shardBench(t)
	q := queries[0]
	s := sharded(b.Lake, 2, 4)
	assertSameHits(t, "rebound", TopK(s.QueryWorkers(1), q, 6), TopK(s, q, 6))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := TopKCtx(ctx, s, q, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled TopKCtx err = %v, want context.Canceled", err)
	}
}

// TestPartitionAndAssign pins the deterministic layout: Assign is stable,
// the parts cover the lake disjointly, and every part routes through
// Assign.
func TestPartitionAndAssign(t *testing.T) {
	b, _ := shardBench(t)
	for _, n := range []int{1, 2, 4, 7} {
		parts := partition(b.Lake, n)
		if len(parts) != n {
			t.Fatalf("partition(%d) returned %d parts", n, len(parts))
		}
		total := 0
		for i, p := range parts {
			total += p.lake.Len()
			for _, name := range p.lake.Names() {
				if Assign(name, n) != i {
					t.Errorf("n=%d: table %q in part %d, Assign says %d", n, name, i, Assign(name, n))
				}
			}
		}
		if total != b.Lake.Len() {
			t.Errorf("n=%d: partition holds %d tables, lake holds %d", n, total, b.Lake.Len())
		}
	}
	if Assign("anything", 1) != 0 || Assign("anything", 0) != 0 {
		t.Error("degenerate part counts must route to part 0")
	}
}

// TestJoinValidatesLayout exercises the warm-start merge: parts that
// partition the lake join into one searcher answering like the original,
// and anything else fails as ErrLayoutMismatch.
func TestJoinValidatesLayout(t *testing.T) {
	b, queries := shardBench(t)
	s := sharded(b.Lake, 2, 0)
	var parts []*Starmie
	for _, p := range s.Parts() {
		parts = append(parts, p.(*Starmie))
	}
	got, err := Join(b.Lake, parts)
	if err != nil {
		t.Fatalf("valid parts rejected: %v", err)
	}
	if n := len(got.Parts()); n != 2 || got.Name() != s.Name() {
		t.Errorf("joined %d parts named %q, want 2 named %q", n, got.Name(), s.Name())
	}
	assertSameHits(t, "joined", TopK(got, queries[0], 8), TopK(s, queries[0], 8))
	// One part bound to the lake itself already is the whole index.
	mono := NewStarmie(b.Lake)
	if got, err := Join(b.Lake, []*Starmie{mono}); err != nil || got != mono {
		t.Errorf("single full-lake part = %v, %v; want the part itself", got, err)
	}
	if _, err := Join(b.Lake, nil); !errors.Is(err, ErrLayoutMismatch) {
		t.Errorf("no parts err = %v, want ErrLayoutMismatch", err)
	}
	if _, err := Join(b.Lake, parts[:1]); !errors.Is(err, ErrLayoutMismatch) {
		t.Errorf("partial cover err = %v, want ErrLayoutMismatch", err)
	}
	if _, err := Join(b.Lake, append(parts[:2:2], parts[0])); !errors.Is(err, ErrLayoutMismatch) {
		t.Errorf("duplicated part err = %v, want ErrLayoutMismatch", err)
	}
}

// alienPrepared is a preparation no searcher in the repository produced.
type alienPrepared struct{ q *table.Table }

func (a alienPrepared) Query() *table.Table { return a.q }

// scanned is the number of candidate tables one traced query scored or
// cut by the bound.
func scanned(t *testing.T, s Searcher, q *table.Table, k int) int64 {
	t.Helper()
	var tr Trace
	if _, err := TopKCtx(WithTrace(context.Background(), &tr), s, q, k); err != nil {
		t.Fatal(err)
	}
	return tr.ScanBounded.Load() + tr.ScanGreedy.Load() + tr.ScanMatched.Load()
}

// TestSearcherConformance runs the Searcher contract over a one-part and a
// 3-part Starmie: the parts partition the lake, TopKCtx is bit-identical to
// Prepare + TopKPrepared, a cancelled context yields ctx.Err() and no hits,
// a foreign preparation is refused with ErrForeignPrepared, and a mode
// flip shows in the name (which serving config tags key on) and shrinks
// the scan from the whole lake to a proper subset. Each searcher built
// over an empty lake answers every query with nothing, in either mode; over
// tables without columns, ANN mode, whose graphs then have no nodes,
// nominates and so ranks nothing at every part count.
func TestSearcherConformance(t *testing.T) {
	// Large enough that ANN nominees are a real subset of the lake.
	b := datagen.Generate("conformance", datagen.Config{
		Seed: 61, Domains: 8, TablesPerBase: 20, QueriesPerBase: 2,
		BaseRows: 60, MinRows: 8, MaxRows: 16,
	})
	q := b.Queries[0]
	cases := []struct {
		name  string
		parts int
	}{{"starmie", 1}, {"sharded3(starmie)", 3}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStarmie(b.Lake, WithShards(tc.parts))
			ctx := context.Background()

			if s.Name() != tc.name || s.RetrievalMode() != Exact {
				t.Fatalf("fresh searcher is %q in mode %v, want %q in exact mode", s.Name(), s.RetrievalMode(), tc.name)
			}
			if s.Lake() != b.Lake {
				t.Fatal("Lake() is not the indexed lake")
			}
			parts := s.Parts()
			if len(parts) != tc.parts {
				t.Fatalf("%d parts, want %d", len(parts), tc.parts)
			}
			if tc.parts == 1 && parts[0] != Searcher(s) {
				t.Fatal("a one-part searcher must be its own single part")
			}
			covered := 0
			for _, part := range parts {
				covered += part.Lake().Len()
			}
			if covered != b.Lake.Len() {
				t.Fatalf("parts cover %d tables, lake holds %d", covered, b.Lake.Len())
			}

			// One query path: the helpers are Prepare + TopKPrepared.
			for _, k := range []int{5, 0} {
				want, err := s.TopKPrepared(ctx, s.Prepare(q), k)
				if err != nil {
					t.Fatal(err)
				}
				got, err := TopKCtx(ctx, s, q, k)
				if err != nil {
					t.Fatal(err)
				}
				assertSameHits(t, "TopKCtx vs Prepare+TopKPrepared", got, want)
				assertSameHits(t, "TopK vs TopKCtx", TopK(s, q, k), want)
				if k == 0 && len(got) != b.Lake.Len() {
					t.Fatalf("full ranking holds %d of %d tables", len(got), b.Lake.Len())
				}
			}

			// Cancellation: ctx.Err(), never a truncated ranking.
			cctx, cancel := context.WithCancel(ctx)
			pq := s.Prepare(q)
			cancel()
			if hits, err := TopKCtx(cctx, s, q, 5); !errors.Is(err, context.Canceled) || hits != nil {
				t.Errorf("cancelled TopKCtx = %d hits, %v; want nil, context.Canceled", len(hits), err)
			}
			if hits, err := s.TopKPrepared(cctx, pq, 5); !errors.Is(err, context.Canceled) || hits != nil {
				t.Errorf("cancelled TopKPrepared = %d hits, %v; want nil, context.Canceled", len(hits), err)
			}

			// A preparation only means something to the family that made it.
			if _, err := s.TopKPrepared(ctx, alienPrepared{q}, 5); !errors.Is(err, ErrForeignPrepared) {
				t.Errorf("foreign TopKPrepared err = %v, want ErrForeignPrepared", err)
			}

			// Mode flip: visible in the name, and the candidate stage shrinks.
			if n := scanned(t, s, q, 10); n != int64(b.Lake.Len()) {
				t.Fatalf("exact mode scanned %d of %d tables", n, b.Lake.Len())
			}
			if err := s.SetMode(ANN); err != nil {
				t.Fatal(err)
			}
			if s.Name() == tc.name || s.RetrievalMode() != ANN {
				t.Fatalf("after SetMode(ANN): name %q, mode %v", s.Name(), s.RetrievalMode())
			}
			if n := scanned(t, s, q, 10); n == 0 || n >= int64(b.Lake.Len()) {
				t.Fatalf("ANN mode scanned %d of %d tables", n, b.Lake.Len())
			}
			if view, ok := s.ModeView(Exact); !ok || view.Name() != tc.name {
				t.Fatalf("exact view of an ANN searcher: ok=%v", ok)
			}
			if err := s.SetMode(Mode(99)); !errors.Is(err, ErrUnknownMode) {
				t.Fatalf("SetMode(99) err = %v, want ErrUnknownMode", err)
			}
		})
		t.Run(tc.name+"/empty-lake", func(t *testing.T) {
			empty := lake.New("empty")
			s := NewStarmie(empty, WithShards(tc.parts))
			if s.Lake() != empty || len(s.Parts()) != tc.parts {
				t.Fatalf("Lake() is not the empty lake, or %d parts, want %d", len(s.Parts()), tc.parts)
			}
			for _, m := range []Mode{Exact, ANN} {
				if err := s.SetMode(m); err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{5, 0} {
					if hits, err := TopKCtx(context.Background(), s, q, k); err != nil || len(hits) != 0 {
						t.Fatalf("%v k=%d: %d hits, %v; want none", m, k, len(hits), err)
					}
				}
			}
		})
		t.Run(tc.name+"/no-columns", func(t *testing.T) {
			bare := lake.New("bare")
			for i := 0; i < 4; i++ {
				bare.MustAdd(table.New(fmt.Sprintf("bare%d", i)))
			}
			s := NewStarmie(bare, WithShards(tc.parts))
			if hits := TopK(s, q, 5); len(hits) != bare.Len() || hits[0].Score != 0 {
				t.Fatalf("exact mode ranked %v, want every table at score 0", hits)
			}
			if err := s.SetMode(ANN); err != nil {
				t.Fatal(err)
			}
			if hits := TopK(s, q, 5); len(hits) != 0 {
				t.Fatalf("ANN mode with no graph nodes ranked %d tables, want none", len(hits))
			}
		})
	}
}

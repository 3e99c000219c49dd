package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"dust/internal/datagen"
	"dust/internal/lake"
	"dust/internal/search"
	"dust/internal/table"
)

// shardBench generates the shared test lake. The lake is salted with one
// table whose columns exceed the encoder token budget, so Starmie's
// corpus-sensitive TF-IDF path — the part of scoring that would diverge
// under per-shard corpora — is actually exercised, not just the
// corpus-independent fast path.
func shardBench(t testing.TB) (*datagen.Benchmark, []*table.Table) {
	t.Helper()
	b := datagen.Generate("shard-bench", datagen.Config{
		Seed: 41, Domains: 5, TablesPerBase: 8, QueriesPerBase: 2,
		BaseRows: 40, MinRows: 8, MaxRows: 16,
	})
	b.Lake.MustAdd(bigTable("wide_vocab", 4001))
	return b, b.Queries
}

// bigTable builds a table whose single column holds `vocab` distinct
// tokens — far past embed.TokenBudget (512) — so its embedding depends on
// corpus TF-IDF selection.
func bigTable(name string, vocab int) *table.Table {
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

func sameHits(t *testing.T, label string, got, want []search.Scored) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d hits, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Table.Name != want[i].Table.Name || got[i].Score != want[i].Score {
			t.Fatalf("%s: hit %d = (%s, %v), want (%s, %v)",
				label, i, got[i].Table.Name, got[i].Score, want[i].Table.Name, want[i].Score)
		}
	}
}

// rank ranks q on s for each k in ks (k <= 0 asks for the full ranking).
// With prepared, one PreparedQuery is reused for every k; otherwise
// search.TopK prepares the query afresh each time.
func rank(s search.Searcher, q *table.Table, ks []int, prepared bool) [][]search.Scored {
	var pq search.PreparedQuery
	if prepared {
		pq = s.Prepare(q)
	}
	out := make([][]search.Scored, len(ks))
	for i, k := range ks {
		if prepared {
			out[i], _ = s.TopKPrepared(context.Background(), pq, k) // cannot fail uncancelled
		} else {
			out[i] = search.TopK(s, q, k)
		}
	}
	return out
}

// checkExactEquivalence requires exact sharded rankings to be bit-identical
// to the unsharded searcher's for every shard count at scatter widths 1 and 8.
func checkExactEquivalence(t *testing.T, b *datagen.Benchmark, queries []*table.Table, shardCounts []int, prepared bool) {
	want := search.NewStarmie(b.Lake)
	ks := []int{1, 5, 12, 0}
	for _, shards := range shardCounts {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("starmie/shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				s := NewStarmie(b.Lake, shards, workers)
				defer s.Close()
				if got := len(s.Parts()); got != shards {
					t.Fatalf("len(Parts()) = %d, want %d", got, shards)
				}
				for qi, q := range queries {
					got, exp := rank(s, q, ks, prepared), rank(want, q, ks, false)
					for i, k := range ks {
						sameHits(t, fmt.Sprintf("query %d k=%d", qi, k), got[i], exp[i])
					}
				}
			})
		}
	}
}

// checkANNRecall requires sharded ANN retrieval over the given shard count
// (shards nominate, the merged pool is scored exactly once) to clear the
// recall@10 >= 0.95 bar the monolithic ANN engine is held to.
func checkANNRecall(t *testing.T, b *datagen.Benchmark, queries []*table.Table, shards int, prepared bool) {
	t.Helper()
	const k = 10
	exact := search.NewStarmie(b.Lake)
	approx := NewStarmie(b.Lake, shards, 0)
	defer approx.Close()
	if err := approx.SetMode(search.ANN); err != nil {
		t.Fatal(err)
	}
	if got := approx.RetrievalMode(); got != search.ANN {
		t.Fatalf("RetrievalMode = %v, want ANN", got)
	}
	var sum float64
	for _, q := range queries {
		truth := map[string]bool{}
		for _, h := range search.TopK(exact, q, k) {
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
		t.Fatalf("sharded ANN recall@%d over %d shards = %.3f, want >= 0.95", k, shards, r)
	}
}

// TestShardedEquivalence is the acceptance gate of the sharding layer
// through search.TopK: exact scatter-gather TopK must be bit-identical to
// the unsharded searcher for shards in {1, 2, 3, 4} at scatter widths 1 and
// 8, and sharded ANN over 4 shards must keep monolithic-grade recall.
func TestShardedEquivalence(t *testing.T) {
	b, queries := shardBench(t)
	checkExactEquivalence(t, b, queries, []int{1, 2, 3, 4}, false)
	t.Run("ann-recall", func(t *testing.T) { checkANNRecall(t, b, queries, 4, false) })
}

// TestPreparedEquivalence is the same gate through the prepared surface,
// where one PreparedQuery is reused across every k: exact results must stay
// bit-identical to the unsharded searcher for shards in {1, 2, 4, 8} at
// scatter widths 1 and 8; the candidate-only ANN plan at the widest fan-out
// (8 shards) must keep monolithic-grade recall; and a sharded query must
// encode exactly once, not once per shard.
func TestPreparedEquivalence(t *testing.T) {
	b, queries := shardBench(t)
	checkExactEquivalence(t, b, queries, []int{1, 2, 4, 8}, true)
	t.Run("ann-candidate-recall", func(t *testing.T) { checkANNRecall(t, b, queries, 8, true) })

	// Encode-once: one sharded query costs exactly NumCols base-model
	// encoding calls — the same as unsharded — regardless of shard count.
	t.Run("encode-once", func(t *testing.T) {
		for _, shards := range []int{1, 4, 8} {
			s := NewStarmie(b.Lake, shards, 4)
			defer s.Close()
			var calls atomic.Int64
			for _, part := range s.Parts() {
				part.(*search.Starmie).Encoder().Model.Instrument(&calls)
			}
			for qi, q := range queries {
				calls.Store(0)
				search.TopK(s, q, 5)
				if got, want := calls.Load(), int64(q.NumCols()); got != want {
					t.Fatalf("shards=%d query %d: %d encode calls, want %d (encode-once)",
						shards, qi, got, want)
				}
			}
		}
	})
}

// TestShardedIncrementalEquivalence drives interleaved AddTable/
// RemoveTable — including the over-budget table whose embeddings depend on
// the shared corpus — and requires the mutated shard set to rank exactly
// like a from-scratch unsharded index over the same table set, at workers
// 1 and 8.
func TestShardedIncrementalEquivalence(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("starmie/workers=%d", workers), func(t *testing.T) {
			b, queries := shardBench(t)
			s := NewStarmie(b.Lake, 3, workers)

			extra := bigTable("late_wide_vocab", 2401)
			small := table.New("late_small", queries[0].Headers()...)
			for i := 0; i < queries[0].NumRows(); i++ {
				small.MustAppendRow(queries[0].Row(i)...)
			}
			check := func(step string) {
				t.Helper()
				// The oracle lake must hold exactly the shard set's
				// current tables, in the same insertion order.
				oracle := lake.New("oracle")
				for _, sl := range b.Lake.Tables() {
					if s.owner(sl.Name) >= 0 {
						oracle.MustAdd(sl)
					}
				}
				for _, late := range []*table.Table{extra, small} {
					if s.owner(late.Name) >= 0 {
						oracle.MustAdd(late)
					}
				}
				want := search.NewStarmie(oracle, search.WithWorkers(workers))
				for qi, q := range queries {
					sameHits(t, fmt.Sprintf("%s query %d", step, qi), search.TopK(s, q, 8), search.TopK(want, q, 8))
				}
			}

			if err := s.AddTable(extra); err != nil {
				t.Fatal(err)
			}
			check("after add big")
			if err := s.AddTable(extra); !errors.Is(err, search.ErrDuplicateTable) {
				t.Fatalf("duplicate AddTable err = %v, want ErrDuplicateTable", err)
			}
			if err := s.AddTable(small); err != nil {
				t.Fatal(err)
			}
			check("after add small")
			// Dropping the original big table shifts the global corpus;
			// every shard must refresh against it.
			if err := s.RemoveTable("wide_vocab"); err != nil {
				t.Fatal(err)
			}
			check("after remove big")
			if err := s.RemoveTable("absent"); !errors.Is(err, search.ErrUnknownTable) {
				t.Fatalf("absent RemoveTable err = %v, want ErrUnknownTable", err)
			}
		})
	}
}

// TestShardedANNMutationsStayConsistent mutates an ANN-mode shard set and
// checks the per-shard graphs follow: results must match a freshly built
// ANN shard set over the same table set.
func TestShardedANNMutationsStayConsistent(t *testing.T) {
	b, queries := shardBench(t)
	s := NewStarmie(b.Lake, 2, 0)
	if err := s.SetMode(search.ANN); err != nil {
		t.Fatal(err)
	}
	extra := table.New("late_small", queries[0].Headers()...)
	for i := 0; i < queries[0].NumRows(); i++ {
		extra.MustAppendRow(queries[0].Row(i)...)
	}
	if err := s.AddTable(extra); err != nil {
		t.Fatal(err)
	}
	grown := b.Lake.Clone()
	grown.MustAdd(extra)
	fresh := NewStarmie(grown, 2, 0)
	if err := fresh.SetMode(search.ANN); err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		sameHits(t, fmt.Sprintf("ann query %d", qi), search.TopK(s, q, 8), search.TopK(fresh, q, 8))
	}
}

// TestShardedCloneIsolation pins the copy-on-write contract snapshot
// serving depends on: mutations on a clone never disturb the original.
func TestShardedCloneIsolation(t *testing.T) {
	b, queries := shardBench(t)
	q := queries[0]
	s := NewStarmie(b.Lake, 3, 0)
	before := search.TopK(s, q, 8)

	cl := s.CloneWithLake(b.Lake.Clone()).(*Searcher)
	if err := cl.RemoveTable("wide_vocab"); err != nil {
		t.Fatal(err)
	}
	extra := table.New("clone_only", q.Headers()...)
	for i := 0; i < q.NumRows(); i++ {
		extra.MustAppendRow(q.Row(i)...)
	}
	if err := cl.AddTable(extra); err != nil {
		t.Fatal(err)
	}
	sameHits(t, "original after clone mutations", search.TopK(s, q, 8), before)
	if cl.owner("clone_only") < 0 {
		t.Error("clone lost its own mutation")
	}
	if s.owner("clone_only") >= 0 {
		t.Error("clone mutation leaked into the original")
	}
}

// TestShardedQueryBoundAndCancel covers the serving-facing surfaces:
// QueryWorkers re-bounds without changing results, and a cancelled context
// aborts the scatter with the context's error.
func TestShardedQueryBoundAndCancel(t *testing.T) {
	b, queries := shardBench(t)
	q := queries[0]
	s := NewStarmie(b.Lake, 2, 4)
	bound := s.QueryWorkers(1).(*Searcher)
	sameHits(t, "rebound", search.TopK(bound, q, 6), search.TopK(s, q, 6))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := search.TopKCtx(ctx, s, q, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled TopKCtx err = %v, want context.Canceled", err)
	}
}

// TestPartitionAndAssign pins the deterministic layout: Assign is stable,
// Partition covers the lake disjointly, and every shard routes through
// Assign.
func TestPartitionAndAssign(t *testing.T) {
	b, _ := shardBench(t)
	for _, n := range []int{1, 2, 4, 7} {
		subs := Partition(b.Lake, n)
		if len(subs) != n {
			t.Fatalf("Partition(%d) returned %d lakes", n, len(subs))
		}
		total := 0
		for i, sl := range subs {
			total += sl.Len()
			for _, name := range sl.Names() {
				if Assign(name, n) != i {
					t.Errorf("n=%d: table %q in shard %d, Assign says %d", n, name, i, Assign(name, n))
				}
			}
		}
		if total != b.Lake.Len() {
			t.Errorf("n=%d: partition holds %d tables, lake holds %d", n, total, b.Lake.Len())
		}
	}
	if Assign("anything", 1) != 0 || Assign("anything", 0) != 0 {
		t.Error("degenerate shard counts must route to shard 0")
	}
}

// TestAssembleValidatesLayout exercises the warm-start validator.
func TestAssembleValidatesLayout(t *testing.T) {
	b, _ := shardBench(t)
	s := NewStarmie(b.Lake, 2, 0)
	defer s.Close()
	parts := s.Parts()
	got, err := Assemble(b.Lake, parts)
	if err != nil {
		t.Fatalf("valid parts rejected: %v", err)
	}
	defer got.Close()
	if n := len(got.Parts()); n != 2 {
		t.Errorf("assembled %d parts, want 2", n)
	}
	// One part bound to the lake itself already is the whole index: no
	// scatter is put in front of it.
	mono := search.NewStarmie(b.Lake)
	if got, err := Assemble(b.Lake, []search.Searcher{mono}); err != nil || got != search.Searcher(mono) {
		t.Errorf("single full-lake part = %v, %v; want the part itself", got, err)
	}
	foreign := []search.Searcher{struct{ search.Searcher }{parts[0]}, parts[1]}
	if _, err := Assemble(b.Lake, foreign); !errors.Is(err, ErrUnknownKind) {
		t.Errorf("foreign searcher type err = %v, want ErrUnknownKind", err)
	}
	if _, err := Assemble(b.Lake, parts[:1]); !errors.Is(err, ErrLayoutMismatch) {
		t.Errorf("partial cover err = %v, want ErrLayoutMismatch", err)
	}
	if _, err := Assemble(b.Lake, append(parts[:2:2], parts[0])); !errors.Is(err, ErrLayoutMismatch) {
		t.Errorf("duplicated shard err = %v, want ErrLayoutMismatch", err)
	}
}

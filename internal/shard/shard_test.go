package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
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

// TestShardedEquivalence is the acceptance gate of the sharding layer:
// exact-mode scatter-gather TopK must be bit-identical to the unsharded
// searcher for shards in {1, 2, 3, 4} at workers 1 and 8; and sharded ANN
// mode must clear the same recall@10 >= 0.95 bar the monolithic ANN engine
// is held to.
func TestShardedEquivalence(t *testing.T) {
	b, queries := shardBench(t)
	want := search.NewStarmie(b.Lake)
	for _, shards := range []int{1, 2, 3, 4} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("starmie/shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				s := NewStarmie(b.Lake, shards, Config{Workers: workers})
				if got := len(s.Parts()); got != shards {
					t.Fatalf("len(Parts()) = %d, want %d", got, shards)
				}
				for qi, q := range queries {
					for _, k := range []int{1, 5, 12} {
						label := fmt.Sprintf("query %d k=%d", qi, k)
						sameHits(t, label, search.TopK(s, q, k), search.TopK(want, q, k))
					}
					// k <= 0 asks for the full ranking.
					sameHits(t, fmt.Sprintf("query %d full", qi), search.TopK(s, q, 0), search.TopK(want, q, 0))
				}
			})
		}
	}

	t.Run("ann-recall", func(t *testing.T) {
		const k = 10
		exact := search.NewStarmie(b.Lake)
		approx := NewStarmie(b.Lake, 4, Config{})
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
			for _, h := range search.TopK(approx, q, k) {
				if truth[h.Table.Name] {
					hits++
				}
			}
			sum += float64(hits) / float64(len(truth))
		}
		if r := sum / float64(len(queries)); r < 0.95 {
			t.Fatalf("sharded ANN recall@%d = %.3f, want >= 0.95", k, r)
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
			s := NewStarmie(b.Lake, 3, Config{Workers: workers})

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
	s := NewStarmie(b.Lake, 2, Config{})
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
	fresh := NewStarmie(grown, 2, Config{})
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
	s := NewStarmie(b.Lake, 3, Config{})
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
	s := NewStarmie(b.Lake, 2, Config{Workers: 4})
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
	s := NewStarmie(b.Lake, 2, Config{})
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

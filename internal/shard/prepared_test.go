package shard

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"dust/internal/datagen"
	"dust/internal/search"
	"dust/internal/table"
)

// TestCloseSharedPool pins the family-wide pool lifecycle: Close is
// idempotent, clones share the pool so closing either side closes both,
// and query-bounded views — which scatter inline without the pool — keep
// serving after the family pool is gone.
func TestCloseSharedPool(t *testing.T) {
	b, queries := shardBench(t)
	q := queries[0]
	s := NewStarmie(b.Lake, 3, 4)
	bound := s.QueryWorkers(1).(*Searcher)
	want := search.TopK(s, q, 6)

	cl := s.CloneWithLake(b.Lake.Clone()).(*Searcher)
	sameHits(t, "clone before close", search.TopK(cl, q, 6), want)

	s.Close()
	s.Close()  // idempotent on the same member
	cl.Close() // and across the family
	sameHits(t, "bound view after family close", search.TopK(bound, q, 6), want)
}

// TestStageTimings checks the instrumentation hook: an attached
// accumulator sees every query with non-negative stage times and a
// non-zero encode stage.
func TestStageTimings(t *testing.T) {
	b, queries := shardBench(t)
	s := NewStarmie(b.Lake, 4, 4)
	defer s.Close()
	var st search.StageTimings
	s.Instrument(&st)
	for _, q := range queries {
		search.TopK(s, q, 8)
	}
	if got, want := st.Queries.Load(), int64(len(queries)); got != want {
		t.Fatalf("recorded %d queries, want %d", got, want)
	}
	if st.EncodeNS.Load() <= 0 {
		t.Error("encode stage recorded no time")
	}
	if st.ScatterNS.Load() < 0 || st.GatherNS.Load() < 0 {
		t.Error("negative stage time")
	}
}

// mergeHitsSort is the pre-heap gather — concatenate everything, sort the
// union, truncate — kept as the reference implementation the heap merge is
// differential-tested and benchmarked against.
func mergeHitsSort(hits [][]search.Scored, k int) []search.Scored {
	var all []search.Scored
	for _, h := range hits {
		all = append(all, h...)
	}
	sort.Slice(all, func(i, j int) bool { return hitLess(all[i], all[j]) })
	if k > 0 && len(all) > k {
		all = all[:k]
	}
	return all
}

// randomHitLists builds n sorted per-shard result lists over disjoint
// synthetic names, the shape mergeHits consumes.
func randomHitLists(rng *rand.Rand, n, maxLen int) [][]search.Scored {
	lists := make([][]search.Scored, n)
	for i := range lists {
		m := rng.Intn(maxLen + 1)
		h := make([]search.Scored, m)
		for j := range h {
			tb := table.New(fmt.Sprintf("t%02d_%03d", i, j))
			h[j] = search.Scored{Table: tb, Score: float64(rng.Intn(50)) / 10}
		}
		for a := 1; a < len(h); a++ {
			for b := a; b > 0 && hitLess(h[b], h[b-1]); b-- {
				h[b], h[b-1] = h[b-1], h[b]
			}
		}
		lists[i] = h
	}
	return lists
}

// TestMergeHitsMatchesSort differential-tests the k-way heap merge against
// the sort reference across list shapes, shard counts, and k values
// (including k <= 0, the full merge).
func TestMergeHitsMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(9)
		lists := randomHitLists(rng, n, 12)
		for _, k := range []int{0, 1, 3, 10, 1000} {
			got := mergeHits(lists, k)
			want := mergeHitsSort(lists, k)
			if len(got) != len(want) {
				t.Fatalf("trial %d k=%d: %d hits, want %d", trial, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d k=%d hit %d: (%s,%v), want (%s,%v)", trial, k, i,
						got[i].Table.Name, got[i].Score, want[i].Table.Name, want[i].Score)
				}
			}
		}
	}
	if out := mergeHits(nil, 5); out != nil {
		t.Errorf("mergeHits(nil) = %v, want nil", out)
	}
	if out := mergeHits([][]search.Scored{nil, {}}, 5); out != nil {
		t.Errorf("mergeHits(empties) = %v, want nil", out)
	}
}

// benchHitLists is the benchmark fixture: 8 shards x 40 sorted hits, the
// shape of an oversampled k=10 gather before the bounded rewrite.
func benchHitLists() [][]search.Scored {
	rng := rand.New(rand.NewSource(3))
	lists := randomHitLists(rng, 8, 0)
	for i := range lists {
		h := make([]search.Scored, 40)
		for j := range h {
			tb := table.New(fmt.Sprintf("t%02d_%03d", i, j))
			h[j] = search.Scored{Table: tb, Score: rng.Float64()}
		}
		for a := 1; a < len(h); a++ {
			for b := a; b > 0 && hitLess(h[b], h[b-1]); b-- {
				h[b], h[b-1] = h[b-1], h[b]
			}
		}
		lists[i] = h
	}
	return lists
}

// BenchmarkMergeHitsHeap measures the k-way heap merge (stops at k).
func BenchmarkMergeHitsHeap(b *testing.B) {
	lists := benchHitLists()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mergeHits(lists, 10)
	}
}

// BenchmarkMergeHitsSort measures the old concat+sort gather on the same
// input.
func BenchmarkMergeHitsSort(b *testing.B) {
	lists := benchHitLists()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mergeHitsSort(lists, 10)
	}
}

// benchLake builds a 1k-table lake so the two layouts' exact paths can be
// compared and profiled in isolation.
func benchLake(b *testing.B) (*datagen.Benchmark, []*table.Table) {
	b.Helper()
	bench := datagen.Generate("shard-bench", datagen.Config{
		Seed: 997, Domains: 10, TablesPerBase: 100, QueriesPerBase: 1,
		BaseRows: 30, MinRows: 4, MaxRows: 8,
	})
	return bench, bench.Queries
}

// BenchmarkExactMono is the monolithic exact TopK baseline.
func BenchmarkExactMono(b *testing.B) {
	bench, queries := benchLake(b)
	mono := search.NewStarmie(bench.Lake)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		search.TopK(mono, queries[i%len(queries)], 10)
	}
}

// BenchmarkExactSharded is the sharded exact TopK path over the same lake
// (8 shards), the configuration the CI bench gate compares against the
// monolithic baseline.
func BenchmarkExactSharded(b *testing.B) {
	bench, queries := benchLake(b)
	s := NewStarmie(bench.Lake, 8, 0)
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		search.TopK(s, queries[i%len(queries)], 10)
	}
}

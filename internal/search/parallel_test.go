package search

import (
	"context"
	"errors"
	"testing"
)

func assertSameHits(t *testing.T, label string, got, want []Scored) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d hits, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Table.Name != want[i].Table.Name || got[i].Score != want[i].Score {
			t.Fatalf("%s: hit %d = (%s, %v), want (%s, %v)", label, i,
				got[i].Table.Name, got[i].Score, want[i].Table.Name, want[i].Score)
		}
	}
}

func TestStarmieTopKDeterministicAcrossWorkers(t *testing.T) {
	b := testBench(t)
	seq := NewStarmie(b.Lake, WithWorkers(1))
	for _, workers := range []int{2, 8} {
		par := NewStarmie(b.Lake, WithWorkers(workers))
		for _, q := range b.Queries {
			assertSameHits(t, "starmie", TopK(par, q, 8), TopK(seq, q, 8))
		}
	}
}

// TestShardedQueryBoundAndCancel covers the serving-facing surfaces of a
// sharded index: QueryWorkers re-bounds without changing results, and a
// cancelled context aborts the query with the context's error.
func TestShardedQueryBoundAndCancel(t *testing.T) {
	b := testBench(t)
	q := b.Queries[0]
	s := NewStarmie(b.Lake, WithShards(2), WithWorkers(4))
	assertSameHits(t, "rebound", TopK(s.QueryWorkers(1), q, 6), TopK(s, q, 6))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := TopKCtx(ctx, s, q, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled TopKCtx err = %v, want context.Canceled", err)
	}
}

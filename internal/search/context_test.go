package search

import (
	"context"
	"errors"
	"testing"

	"dust/internal/datagen"
)

func ctxLake() *datagen.Benchmark {
	return datagen.Generate("ctx-search", datagen.Config{
		Seed: 11, Domains: 3, TablesPerBase: 4, BaseRows: 30, MinRows: 8, MaxRows: 15,
	})
}

// TestTupleSearchCancelled pins the cancellation contract of the tuple-level
// searcher: a cancelled context yields (nil, context.Canceled), never a
// truncated ranking. (The table-level searchers are covered by the contract
// conformance test in internal/shard.)
func TestTupleSearchCancelled(t *testing.T) {
	b := ctxLake()
	q := b.Queries[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	ts := NewTupleSearch(b.Lake.Tables())
	hits, err := ts.TopKPrepared(ctx, ts.Prepare(q), 5)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("tuplesearch: TopKPrepared = %v, want context.Canceled", err)
	}
	if hits != nil {
		t.Errorf("tuplesearch: cancelled TopKPrepared returned %d hits", len(hits))
	}
}

// TestCloneWithLakeIsolation pins the copy-on-write contract: mutations on
// a clone never change what the original searcher returns.
func TestCloneWithLakeIsolation(t *testing.T) {
	b := ctxLake()
	q := b.Queries[0]
	build := []func() Searcher{
		func() Searcher { return NewStarmie(b.Lake) },
		func() Searcher { return NewD3L(b.Lake) },
	}
	for _, f := range build {
		orig := f()
		want := TopK(orig, q, 5)

		l2 := b.Lake.Clone()
		clone := orig.CloneWithLake(l2)
		extra := b.Lake.Tables()[0].Clone("zz_cloned_extra")
		if err := l2.Add(extra); err != nil {
			t.Fatal(err)
		}
		if err := clone.AddTable(extra); err != nil {
			t.Fatalf("%s: clone AddTable: %v", orig.Name(), err)
		}
		victim := b.Lake.Names()[1]
		if err := clone.RemoveTable(victim); err != nil {
			t.Fatalf("%s: clone RemoveTable: %v", orig.Name(), err)
		}
		if err := l2.Remove(victim); err != nil {
			t.Fatal(err)
		}

		got := TopK(orig, q, 5)
		if len(got) != len(want) {
			t.Fatalf("%s: original changed after clone mutations: %d hits, want %d", orig.Name(), len(got), len(want))
		}
		for i := range want {
			if got[i].Table.Name != want[i].Table.Name || got[i].Score != want[i].Score {
				t.Fatalf("%s: original ranking changed after clone mutations at %d: %s/%g, want %s/%g",
					orig.Name(), i, got[i].Table.Name, got[i].Score, want[i].Table.Name, want[i].Score)
			}
		}
	}
}

package search

import (
	"testing"

	"dust/internal/datagen"
)

func ctxLake() *datagen.Benchmark {
	return datagen.Generate("ctx-search", datagen.Config{
		Seed: 11, Domains: 3, TablesPerBase: 4, BaseRows: 30, MinRows: 8, MaxRows: 15,
	})
}

// TestCloneWithLakeIsolation pins the copy-on-write contract: mutations on
// a clone never change what the original searcher returns.
func TestCloneWithLakeIsolation(t *testing.T) {
	b := ctxLake()
	q := b.Queries[0]
	orig := NewStarmie(b.Lake)
	want := TopK(orig, q, 5)

	l2 := b.Lake.Clone()
	clone := orig.CloneWithLake(l2)
	extra := b.Lake.Tables()[0].Clone("zz_cloned_extra")
	if err := l2.Add(extra); err != nil {
		t.Fatal(err)
	}
	if err := clone.AddTable(extra); err != nil {
		t.Fatalf("clone AddTable: %v", err)
	}
	victim := b.Lake.Names()[1]
	if err := clone.RemoveTable(victim); err != nil {
		t.Fatalf("clone RemoveTable: %v", err)
	}
	if err := l2.Remove(victim); err != nil {
		t.Fatal(err)
	}

	got := TopK(orig, q, 5)
	if len(got) != len(want) {
		t.Fatalf("original changed after clone mutations: %d hits, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Table.Name != want[i].Table.Name || got[i].Score != want[i].Score {
			t.Fatalf("original ranking changed after clone mutations at %d: %s/%g, want %s/%g",
				i, got[i].Table.Name, got[i].Score, want[i].Table.Name, want[i].Score)
		}
	}
}

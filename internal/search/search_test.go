package search

import (
	"testing"

	"dust/internal/datagen"
)

func testBench(t *testing.T) *datagen.Benchmark {
	t.Helper()
	return datagen.Generate("search-test", datagen.Config{
		Seed: 71, Domains: 5, TablesPerBase: 6, BaseRows: 60, MinRows: 15, MaxRows: 30,
	})
}

func TestStarmieRetrievesUnionableTables(t *testing.T) {
	b := testBench(t)
	s := NewStarmie(b.Lake)
	q := b.Queries[0]
	truth := map[string]bool{}
	for _, n := range b.Unionable[q.Name] {
		truth[n] = true
	}
	hits := 0
	for _, sc := range TopK(s, q, 6) {
		if truth[sc.Table.Name] {
			hits++
		}
	}
	if hits < 4 {
		t.Errorf("starmie top-6 contains %d/6 unionable tables, want >= 4", hits)
	}
}

func TestTopKBounds(t *testing.T) {
	b := testBench(t)
	s := NewStarmie(b.Lake)
	if got := len(TopK(s, b.Queries[0], 3)); got != 3 {
		t.Errorf("TopK(3) = %d results", got)
	}
	if got := len(TopK(s, b.Queries[0], 0)); got != b.Lake.Len() {
		t.Errorf("TopK(0) = %d results, want all %d", got, b.Lake.Len())
	}
}

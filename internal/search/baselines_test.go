package search_test

import (
	"testing"

	"dust/internal/datagen"
	"dust/internal/experiments/baselines"
	"dust/internal/lake"
	"dust/internal/search"
	"dust/internal/table"
)

// rankWith binds search.TopK to a Searcher, the ranking MAP takes.
func rankWith(s search.Searcher) func(*table.Table, int) []search.Scored {
	return func(q *table.Table, k int) []search.Scored { return search.TopK(s, q, k) }
}

func TestStarmieMAPReasonable(t *testing.T) {
	b := search.TestLake(t)
	m := baselines.MAP(rankWith(search.NewStarmie(b.Lake)), b, 6)
	if m < 0.6 {
		t.Errorf("starmie MAP = %v, want >= 0.6", m)
	}
	if m > 1.0001 {
		t.Errorf("MAP = %v out of range", m)
	}
}

func TestD3LRetrievesUnionableTables(t *testing.T) {
	b := search.TestLake(t)
	d := baselines.NewD3L(b.Lake, 0)
	m := baselines.MAP(d.TopK, b, 6)
	if m < 0.6 {
		t.Errorf("d3l MAP = %v, want >= 0.6", m)
	}
}

// TestMAPFullRanking pins MAP at k <= 0: it scores the full ranking, whose
// average precision runs over every unionable table — exactly MAP at a k
// as large as the lake — instead of counting no query at all.
func TestMAPFullRanking(t *testing.T) {
	b := search.TestLake(t)
	d := baselines.NewD3L(b.Lake, 0)
	full := baselines.MAP(d.TopK, b, 0)
	if full <= 0 {
		t.Fatalf("MAP at k=0 = %v, want > 0", full)
	}
	if whole := baselines.MAP(d.TopK, b, b.Lake.Len()); full != whole {
		t.Errorf("MAP at k=0 = %v, at k=%d = %v; want equal", full, b.Lake.Len(), whole)
	}
}

func TestMAPEmptyBenchmark(t *testing.T) {
	b := &datagen.Benchmark{}
	if baselines.MAP(rankWith(search.NewStarmie(lake.New("empty"))), b, 5) != 0 {
		t.Error("MAP of empty benchmark should be 0")
	}
}

func TestSearchersRankedDescending(t *testing.T) {
	b := search.TestLake(t)
	q := b.Queries[0]
	for name, res := range map[string][]search.Scored{
		"starmie": search.TopK(search.NewStarmie(b.Lake), q, 10), "d3l": baselines.NewD3L(b.Lake, 0).TopK(q, 10),
	} {
		for i := 1; i < len(res); i++ {
			if res[i].Score > res[i-1].Score {
				t.Errorf("%s results not sorted at %d", name, i)
			}
		}
	}
}

func TestD3LTopKDeterministicAcrossWorkers(t *testing.T) {
	b := search.TestLake(t)
	seq := baselines.NewD3L(b.Lake, 1)
	for _, workers := range []int{2, 8} {
		par := baselines.NewD3L(b.Lake, workers)
		for _, q := range b.Queries {
			search.SameHits(t, "d3l", par.TopK(q, 8), seq.TopK(q, 8))
		}
	}
}

func TestTupleSearchFavorsQueryDuplicates(t *testing.T) {
	// Build a lake table containing an exact copy of a query tuple plus
	// novel tuples: the duplicate must rank first (the redundancy
	// phenomenon of Example 1 / Table 3).
	q := table.New("q", "Park Name", "Country")
	q.MustAppendRow("River Park", "USA")
	q.MustAppendRow("Hyde Park", "UK")

	lt := table.New("lt", "Park Name", "Country")
	lt.MustAppendRow("Chippewa Park", "USA")
	lt.MustAppendRow("River Park", "USA") // duplicate of query row 0
	lt.MustAppendRow("Lawler Park", "USA")

	ts := baselines.NewTupleSearch([]*table.Table{lt}, 0)
	if ts.Len() != 3 {
		t.Fatalf("indexed %d tuples", ts.Len())
	}
	res := ts.TopK(q, 3)
	if res[0].Row != 1 {
		t.Errorf("top tuple = row %d, want the duplicate (row 1)", res[0].Row)
	}
	if res[0].Score <= res[1].Score {
		t.Error("duplicate should strictly outscore novel tuples")
	}
}

func TestTupleSearchDeterministicAcrossWorkers(t *testing.T) {
	b := search.TestLake(t)
	seq := baselines.NewTupleSearch(b.Lake.Tables(), 1)
	q := b.Queries[0]
	want := seq.TopK(q, 20)
	for _, workers := range []int{2, 8} {
		par := baselines.NewTupleSearch(b.Lake.Tables(), workers)
		got := par.TopK(q, 20)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: got %d hits, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i].Table.Name != want[i].Table.Name || got[i].Row != want[i].Row ||
				got[i].Score != want[i].Score {
				t.Fatalf("workers=%d: hit %d = (%s, %d, %v), want (%s, %d, %v)",
					workers, i, got[i].Table.Name, got[i].Row, got[i].Score,
					want[i].Table.Name, want[i].Row, want[i].Score)
			}
		}
	}
}

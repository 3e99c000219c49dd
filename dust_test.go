package dust

import (
	"strings"
	"testing"

	"dust/internal/datagen"
	"dust/internal/lake"
	"dust/internal/table"
)

func benchLake(t *testing.T) (*datagen.Benchmark, *table.Table) {
	t.Helper()
	b := datagen.Generate("api-test", datagen.Config{
		Seed: 81, Domains: 4, TablesPerBase: 5, BaseRows: 60, MinRows: 15, MaxRows: 30,
	})
	return b, b.Queries[0]
}

func TestPipelineEndToEnd(t *testing.T) {
	b, q := benchLake(t)
	p := New(b.Lake)
	res, err := p.Search(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tuples.NumRows() != 10 {
		t.Fatalf("result rows = %d, want 10", res.Tuples.NumRows())
	}
	if res.Tuples.NumCols() != q.NumCols() {
		t.Errorf("result cols = %d, want query schema %d", res.Tuples.NumCols(), q.NumCols())
	}
	if len(res.Provenance) != 10 {
		t.Errorf("provenance entries = %d", len(res.Provenance))
	}
	if len(res.UnionableTables) == 0 {
		t.Error("no unionable tables recorded")
	}
	if res.Unioned.NumRows() < 10 {
		t.Errorf("unioned pool smaller than k: %d", res.Unioned.NumRows())
	}
	// Provenance must reference retrieved tables only.
	retrieved := map[string]bool{}
	for _, n := range res.UnionableTables {
		retrieved[n] = true
	}
	for _, pv := range res.Provenance {
		if !retrieved[pv.Table] {
			t.Errorf("provenance table %s was not retrieved", pv.Table)
		}
	}
}

func TestPipelineMostlyRetrievesSameBase(t *testing.T) {
	// The lake has exactly 5 tables sharing the query's base, so retrieve
	// 5 and expect most of them to be the unionable ones.
	b, q := benchLake(t)
	res, err := New(b.Lake, WithTopTables(5)).Search(q, 8)
	if err != nil {
		t.Fatal(err)
	}
	sameBase := 0
	for _, n := range res.UnionableTables {
		if lt := b.Lake.Get(n); lt != nil && lt.Base == q.Base {
			sameBase++
		}
	}
	if sameBase < 3 {
		t.Errorf("only %d/%d retrieved tables share the query base", sameBase, len(res.UnionableTables))
	}
}

func TestPipelineValidation(t *testing.T) {
	b, q := benchLake(t)
	p := New(b.Lake)
	if _, err := p.Search(nil, 5); err == nil {
		t.Error("nil query should error")
	}
	if _, err := p.Search(q, 0); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := p.Search(q, -3); err == nil {
		t.Error("negative k should error")
	}
	empty := table.New("empty")
	if _, err := p.Search(empty, 5); err == nil {
		t.Error("query with no columns should error")
	}
}

func TestPipelineOptions(t *testing.T) {
	b, q := benchLake(t)
	p := New(b.Lake, WithTopTables(3))
	res, err := p.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.UnionableTables) != 3 {
		t.Errorf("retrieved %d tables, want 3 (WithTopTables)", len(res.UnionableTables))
	}
	if res.Tuples.NumRows() != 5 {
		t.Errorf("rows = %d", res.Tuples.NumRows())
	}
}

func TestPipelineDiverseBeatsSimilarBaseline(t *testing.T) {
	// Plant a near-duplicate of the query in the lake: the DUST pipeline
	// must not fill its result with the duplicate rows, while a
	// similarity-ranked selection would.
	q := table.New("q", "Park Name", "Supervisor", "Country")
	q.MustAppendRow("River Park", "Vera Onate", "USA")
	q.MustAppendRow("West Lawn Park", "Paul Veliotis", "USA")
	q.MustAppendRow("Hyde Park", "Jenny Rishi", "UK")

	dup := table.New("dup", "Park Name", "Supervisor", "Country")
	dup.MustAppendRow("River Park", "Vera Onate", "USA")
	dup.MustAppendRow("West Lawn Park", "Paul Veliotis", "USA")
	dup.MustAppendRow("Hyde Park", "Jenny Rishi", "UK")

	novel := table.New("novel", "Park Name", "Supervisor", "Country")
	novel.MustAppendRow("Chippewa Park", "Tim Erickson", "USA")
	novel.MustAppendRow("Lawler Park", "Enrique Garcia", "USA")
	novel.MustAppendRow("Cedar Grove", "Maria Silva", "Canada")

	l := lake.New("toy")
	l.MustAdd(dup)
	l.MustAdd(novel)

	res, err := New(l, WithTopTables(2)).Search(q, 3)
	if err != nil {
		t.Fatal(err)
	}
	queryRows := map[string]bool{}
	for i := 0; i < q.NumRows(); i++ {
		queryRows[strings.Join(q.Row(i), "|")] = true
	}
	dupCount := 0
	for i := 0; i < res.Tuples.NumRows(); i++ {
		if queryRows[strings.Join(res.Tuples.Row(i), "|")] {
			dupCount++
		}
	}
	if dupCount > 1 {
		t.Errorf("diverse result contains %d query duplicates of 3 rows", dupCount)
	}
}

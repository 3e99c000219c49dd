package dust

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"dust/internal/datagen"
	"dust/internal/model"
	"dust/internal/search"
	"dust/internal/table"
)

// sameResult asserts two pipeline results are byte-identical: same rows in
// the same order, same provenance, same retrieved tables.
func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if strings.Join(got.UnionableTables, "|") != strings.Join(want.UnionableTables, "|") {
		t.Fatalf("%s: retrieved tables %v, want %v", label, got.UnionableTables, want.UnionableTables)
	}
	for _, pair := range [][2]*table.Table{{got.Tuples, want.Tuples}, {got.Unioned, want.Unioned}} {
		g, w := pair[0], pair[1]
		if g.NumRows() != w.NumRows() || g.NumCols() != w.NumCols() {
			t.Fatalf("%s: shape (%d,%d), want (%d,%d)", label,
				g.NumRows(), g.NumCols(), w.NumRows(), w.NumCols())
		}
		for r := 0; r < w.NumRows(); r++ {
			if strings.Join(g.Row(r), "\x1f") != strings.Join(w.Row(r), "\x1f") {
				t.Fatalf("%s: row %d = %v, want %v", label, r, g.Row(r), w.Row(r))
			}
		}
	}
	if len(got.Provenance) != len(want.Provenance) {
		t.Fatalf("%s: provenance length %d, want %d", label, len(got.Provenance), len(want.Provenance))
	}
	for i := range want.Provenance {
		if got.Provenance[i] != want.Provenance[i] {
			t.Fatalf("%s: provenance[%d] = %v, want %v", label, i,
				got.Provenance[i], want.Provenance[i])
		}
	}
}

func TestSearchDeterministicAcrossWorkers(t *testing.T) {
	b, q := benchLake(t)
	want, err := New(b.Lake, WithWorkers(1)).Search(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := New(b.Lake, WithWorkers(workers)).Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("workers=%d vs 1", workers), got, want)
	}
}

// TestWithWorkersReboundsSuppliedSearcher covers the WithSearcher +
// WithWorkers combination: the explicit workers bound must reach the
// caller-built searcher's scoring too, and results must stay identical.
func TestWithWorkersReboundsSuppliedSearcher(t *testing.T) {
	b, q := benchLake(t)
	want, err := New(b.Lake, WithSearcher(search.NewStarmie(b.Lake)), WithWorkers(1)).Search(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	got, err := New(b.Lake, WithSearcher(search.NewStarmie(b.Lake)), WithWorkers(8)).Search(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "supplied searcher workers=8 vs 1", got, want)
}

func TestSearchBatchMatchesSequentialSearch(t *testing.T) {
	b, _ := benchLake(t)
	queries := b.Queries
	if len(queries) < 2 {
		t.Fatalf("benchmark generated %d queries, want >= 2", len(queries))
	}
	p := New(b.Lake, WithWorkers(8))
	results, err := p.SearchBatch(queries, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(queries) {
		t.Fatalf("got %d results, want %d", len(results), len(queries))
	}
	for i, q := range queries {
		want, err := p.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "batch vs single "+q.Name, results[i], want)
	}
}

func TestSearchBatchReportsPerQueryErrors(t *testing.T) {
	b, q := benchLake(t)
	p := New(b.Lake, WithWorkers(4))
	empty := table.New("empty-query")
	results, err := p.SearchBatch([]*table.Table{q, empty, nil}, 5)
	if err == nil {
		t.Fatal("expected an error for the empty and nil queries")
	}
	if results[0] == nil {
		t.Error("valid query result missing")
	}
	if results[1] != nil || results[2] != nil {
		t.Error("failed queries should leave nil result slots")
	}
	msg := err.Error()
	if !strings.Contains(msg, "query 1 (empty-query)") || !strings.Contains(msg, "query 2 (<nil>)") {
		t.Errorf("error does not attribute failures to queries: %v", msg)
	}
}

// TestFineTunedBatchEncodeDeterministic exercises the concurrent inference
// path of a trained model (the nn layers must not mutate state when
// train=false) and its batch determinism.
func TestFineTunedBatchEncodeDeterministic(t *testing.T) {
	bench := datagen.Generate("par-model", datagen.Config{
		Seed: 83, Domains: 3, TablesPerBase: 4, BaseRows: 30, MinRows: 8, MaxRows: 12,
	})
	ds := datagen.Pairs(bench, 120, 84)
	cfg := model.DefaultConfig()
	cfg.Epochs = 2
	m := model.Train("par-test", model.NewRoBERTaFeaturizer(), ds.Train, ds.Val, cfg)

	headers := bench.Queries[0].Headers()
	rows := make([][]string, bench.Queries[0].NumRows())
	for i := range rows {
		rows[i] = bench.Queries[0].Row(i)
	}
	want, err := m.EncodeTupleBatch(context.Background(), headers, rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.EncodeTupleBatch(context.Background(), headers, rows, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("row %d dim %d: %v, want %v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

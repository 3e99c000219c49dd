package dust

import (
	"context"
	"errors"
	"testing"
	"time"

	"dust/internal/table"
	"dust/internal/vector"
)

// slowEncoder is a TupleEncoder whose every EncodeTuple call sleeps,
// standing in for an expensive model. It deliberately does not implement
// the batch surface, so EncodeBatchContext takes the sequential per-row
// path with its per-row cancellation checks.
type slowEncoder struct{ delay time.Duration }

func (s slowEncoder) Name() string { return "slow" }

func (s slowEncoder) EncodeTuple(headers, values []string) vector.Vec {
	time.Sleep(s.delay)
	v := make(vector.Vec, 4)
	v[0] = 1
	return v
}

func TestSearchContextCancelledBeforeStart(t *testing.T) {
	b, q := benchLake(t)
	p := New(b.Lake, WithTopTables(5))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.SearchContext(ctx, q, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchContext with cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestSearchContextCancelReturnsPromptly(t *testing.T) {
	b, q := benchLake(t)
	// ~100+ tuples to embed at 5ms each: an uncancellable search would run
	// for at least half a second. Cancel after 25ms and require the call to
	// come back well before the full-run floor.
	p := New(b.Lake, WithTopTables(5), WithTupleEncoder(slowEncoder{delay: 5 * time.Millisecond}))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(25 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := p.SearchContext(ctx, q, 5)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchContext = %v, want context.Canceled", err)
	}
	if elapsed > 300*time.Millisecond {
		t.Fatalf("cancelled search took %v, want prompt return", elapsed)
	}
}

func TestSearchContextDeadline(t *testing.T) {
	b, q := benchLake(t)
	p := New(b.Lake, WithTopTables(5), WithTupleEncoder(slowEncoder{delay: 5 * time.Millisecond}))
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	if _, err := p.SearchContext(ctx, q, 5); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SearchContext past deadline = %v, want context.DeadlineExceeded", err)
	}
}

func TestSearchBatchContextCancelled(t *testing.T) {
	b, q := benchLake(t)
	p := New(b.Lake, WithTopTables(5), WithWorkers(2), WithTupleEncoder(slowEncoder{delay: 2 * time.Millisecond}))
	queries := []*table.Table{q, q, q, q}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	results, err := p.SearchBatchContext(ctx, queries, 5)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchBatchContext = %v, want context.Canceled", err)
	}
	for i, r := range results {
		if r != nil {
			t.Errorf("cancelled query %d returned a result", i)
		}
	}
	if elapsed := time.Since(start); elapsed > 300*time.Millisecond {
		t.Fatalf("cancelled batch took %v, want prompt return", elapsed)
	}
}

// TestSearchContextMatchesSearch pins SearchContext under a background
// context to plain Search: the cancellation plumbing must not change
// results.
func TestSearchContextMatchesSearch(t *testing.T) {
	b, q := benchLake(t)
	p := New(b.Lake, WithTopTables(5))
	want, err := p.Search(q, 8)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.SearchContext(context.Background(), q, 8)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "ctx vs plain", got, want)
}

// extraTable builds a small table union-compatible with q under a fresh
// name, for mutation tests.
func extraTable(q *table.Table, name string) *table.Table {
	t := table.New(name, q.Headers()...)
	for i := 0; i < q.NumRows() && i < 5; i++ {
		t.MustAppendRow(q.Row(i)...)
	}
	return t
}

func TestEpochPersistsThroughSaveLoad(t *testing.T) {
	b, q := benchLake(t)
	p, err := New(b.Lake, WithTopTables(5)).WithTable(extraTable(q, "zz_epoch_a"))
	if err != nil {
		t.Fatal(err)
	}
	if p, err = p.WithoutTable("zz_epoch_a"); err != nil {
		t.Fatal(err)
	}
	if p.Epoch() != 2 {
		t.Fatalf("epoch %d after add+remove, want 2", p.Epoch())
	}

	dir := t.TempDir()
	if err := p.SaveIndex(dir); err != nil {
		t.Fatal(err)
	}
	warm, err := LoadPipelineLake(b.Lake, dir)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Epoch() != 2 {
		t.Fatalf("warm-started epoch %d, want 2", warm.Epoch())
	}
}

package search

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"dust/internal/datagen"
	"dust/internal/lake"
	"dust/internal/table"
)

// alienPrepared is a preparation no searcher in the repository produced.
type alienPrepared struct{ q *table.Table }

// scanned is the number of candidate tables one traced query scored or
// cut by either bound.
func scanned(t *testing.T, s Searcher, q *table.Table, k int) int64 {
	t.Helper()
	var tr Trace
	if _, err := s.TopKPrepared(context.Background(), s.Prepare(q), k, &tr); err != nil {
		t.Fatal(err)
	}
	var n int64
	for exit := range tr.Scan {
		n += tr.Scan[exit].Load()
	}
	return n
}

// TestSearcherConformance runs the Searcher contract over Starmie: it
// indexes the lake it was built over under the name "starmie", TopKCtx is
// bit-identical to Prepare + TopKPrepared, a cancelled context yields
// ctx.Err() and no hits, a foreign preparation is refused with
// ErrForeignPrepared, the scan covers the
// whole lake, and ModeView answers both modes with the searcher itself and
// no other value. A searcher built
// over an empty lake answers every query with nothing, and so does the
// successor of its one-table successor; over tables without columns it
// ranks every table at score 0.
func TestSearcherConformance(t *testing.T) {
	b := datagen.Generate("conformance", datagen.Config{
		Seed: 61, Domains: 8, TablesPerBase: 20, QueriesPerBase: 2,
		BaseRows: 60, MinRows: 8, MaxRows: 16,
	})
	q := b.Queries[0]
	t.Run("starmie", func(t *testing.T) {
		s := NewStarmie(b.Lake)
		ctx := context.Background()

		if s.Name() != "starmie" {
			t.Fatalf("fresh searcher is %q, want starmie", s.Name())
		}
		if s.Lake() != b.Lake {
			t.Fatal("Lake() is not the indexed lake")
		}

		// One query path: the helpers are Prepare + TopKPrepared.
		for _, k := range []int{5, 0} {
			want, err := s.TopKPrepared(ctx, s.Prepare(q), k, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := TopKCtx(ctx, s, q, k)
			if err != nil {
				t.Fatal(err)
			}
			assertSameHits(t, "TopKCtx vs Prepare+TopKPrepared", got, want)
			assertSameHits(t, "TopK vs TopKCtx", TopK(s, q, k), want)
			if k == 0 && len(got) != b.Lake.Len() {
				t.Fatalf("full ranking holds %d of %d tables", len(got), b.Lake.Len())
			}
		}

		// Cancellation: ctx.Err(), never a truncated ranking.
		cctx, cancel := context.WithCancel(ctx)
		pq := s.Prepare(q)
		cancel()
		if hits, err := TopKCtx(cctx, s, q, 5); !errors.Is(err, context.Canceled) || hits != nil {
			t.Errorf("cancelled TopKCtx = %d hits, %v; want nil, context.Canceled", len(hits), err)
		}
		if hits, err := s.TopKPrepared(cctx, pq, 5, nil); !errors.Is(err, context.Canceled) || hits != nil {
			t.Errorf("cancelled TopKPrepared = %d hits, %v; want nil, context.Canceled", len(hits), err)
		}

		// A preparation only means something to the family that made it.
		if _, err := s.TopKPrepared(ctx, alienPrepared{q}, 5, nil); !errors.Is(err, ErrForeignPrepared) {
			t.Errorf("foreign TopKPrepared err = %v, want ErrForeignPrepared", err)
		}
		if _, err := s.ScoreTables(alienPrepared{q}, b.Lake.Names()[:1]); !errors.Is(err, ErrForeignPrepared) {
			t.Errorf("foreign ScoreTables err = %v, want ErrForeignPrepared", err)
		}

		if n := scanned(t, s, q, 10); n != int64(b.Lake.Len()) {
			t.Fatalf("the scan covered %d of %d tables", n, b.Lake.Len())
		}
		for _, m := range []Mode{Exact, ANN} {
			if view, ok := s.ModeView(m); !ok || view != Searcher(s) {
				t.Fatalf("%v view: ok=%v, want the searcher itself", m, ok)
			}
		}
		if view, ok := s.ModeView(Mode(99)); ok || view != nil {
			t.Fatalf("ModeView(99) = %v, %v; want nil, false", view, ok)
		}
	})
	t.Run("starmie/empty-lake", func(t *testing.T) {
		empty := lake.New("empty")
		s := NewStarmie(empty)
		if s.Lake() != empty {
			t.Fatal("Lake() is not the empty lake")
		}
		for _, k := range []int{5, 0} {
			if hits, err := TopKCtx(context.Background(), s, q, k); err != nil || len(hits) != 0 {
				t.Fatalf("k=%d: %d hits, %v; want none", k, len(hits), err)
			}
		}
		// A successor grows it to one table and its successor empties it
		// again; neither writes its predecessor's lake.
		grown := withTable(t, s, q.Clone("only"))
		if hits := TopK(grown, q, 0); len(hits) != 1 || empty.Len() != 0 {
			t.Fatalf("grown: %d hits, the empty lake holds %d tables; want 1 and 0", len(hits), empty.Len())
		}
		if back := withoutTable(t, grown, "only"); len(TopK(back, q, 0)) != 0 || grown.Lake().Len() != 1 {
			t.Fatalf("shrunk back: %d tables, its predecessor %d; want 0 and 1", back.Lake().Len(), grown.Lake().Len())
		}
	})
	t.Run("starmie/no-columns", func(t *testing.T) {
		bare := lake.New("bare")
		for i := 0; i < 4; i++ {
			bare.MustAdd(table.New(fmt.Sprintf("bare%d", i)))
		}
		s := NewStarmie(bare)
		if hits := TopK(s, q, 5); len(hits) != bare.Len() || hits[0].Score != 0 {
			t.Fatalf("ranked %v, want every table at score 0", hits)
		}
	})
}

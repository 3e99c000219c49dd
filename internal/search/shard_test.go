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

// TestPartitionAndAssign pins the deterministic layout: Assign is stable,
// the parts cover the lake disjointly, and every part routes through
// Assign.
func TestPartitionAndAssign(t *testing.T) {
	b := persistBench(t)
	for _, n := range []int{1, 2, 4, 7} {
		parts := partition(b.Lake, n)
		if len(parts) != n {
			t.Fatalf("partition(%d) returned %d parts", n, len(parts))
		}
		total := 0
		for i, p := range parts {
			total += p.Len()
			for _, name := range p.Names() {
				if Assign(name, n) != i {
					t.Errorf("n=%d: table %q in part %d, Assign says %d", n, name, i, Assign(name, n))
				}
			}
		}
		if total != b.Lake.Len() {
			t.Errorf("n=%d: partition holds %d tables, lake holds %d", n, total, b.Lake.Len())
		}
	}
	if Assign("anything", 1) != 0 || Assign("anything", 0) != 0 {
		t.Error("degenerate part counts must route to part 0")
	}
}

// TestJoinValidatesLayout exercises the warm-start merge: parts that
// partition the lake join into one searcher answering like the original,
// and anything else fails as ErrLayoutMismatch.
func TestJoinValidatesLayout(t *testing.T) {
	b := persistBench(t)
	s := NewStarmie(b.Lake, WithShards(2))
	var parts []*Starmie
	for _, p := range s.Parts() {
		parts = append(parts, p.(*Starmie))
	}
	got, err := Join(b.Lake, parts)
	if err != nil {
		t.Fatalf("valid parts rejected: %v", err)
	}
	if n := len(got.Parts()); n != 2 || got.Name() != s.Name() {
		t.Errorf("joined %d parts named %q, want 2 named %q", n, got.Name(), s.Name())
	}
	assertSameHits(t, "joined", TopK(got, b.Queries[0], 8), TopK(s, b.Queries[0], 8))
	// One part bound to the lake itself already is the whole index.
	mono := NewStarmie(b.Lake)
	if got, err := Join(b.Lake, []*Starmie{mono}); err != nil || got != mono {
		t.Errorf("single full-lake part = %v, %v; want the part itself", got, err)
	}
	if _, err := Join(b.Lake, nil); !errors.Is(err, ErrLayoutMismatch) {
		t.Errorf("no parts err = %v, want ErrLayoutMismatch", err)
	}
	if _, err := Join(b.Lake, parts[:1]); !errors.Is(err, ErrLayoutMismatch) {
		t.Errorf("partial cover err = %v, want ErrLayoutMismatch", err)
	}
	if _, err := Join(b.Lake, append(parts[:2:2], parts[0])); !errors.Is(err, ErrLayoutMismatch) {
		t.Errorf("duplicated part err = %v, want ErrLayoutMismatch", err)
	}
}

// alienPrepared is a preparation no searcher in the repository produced.
type alienPrepared struct{ q *table.Table }

func (a alienPrepared) Query() *table.Table { return a.q }

// scanned is the number of candidate tables one traced query scored or
// cut by either bound.
func scanned(t *testing.T, s Searcher, q *table.Table, k int) int64 {
	t.Helper()
	var tr Trace
	if _, err := TopKCtx(WithTrace(context.Background(), &tr), s, q, k); err != nil {
		t.Fatal(err)
	}
	return tr.ScanCoded.Load() + tr.ScanBounded.Load() + tr.ScanGreedy.Load() + tr.ScanMatched.Load()
}

// TestSearcherConformance runs the Searcher contract over a one-part and a
// 3-part Starmie: the parts partition the lake, TopKCtx is bit-identical to
// Prepare + TopKPrepared, a cancelled context yields ctx.Err() and no hits,
// a foreign preparation is refused with ErrForeignPrepared, the scan
// covers the whole lake, and ModeView answers both modes with the searcher
// itself and no other value. Each searcher built over an empty lake
// answers every query with nothing; over tables without columns it ranks
// every table at score 0, at every part count.
func TestSearcherConformance(t *testing.T) {
	b := datagen.Generate("conformance", datagen.Config{
		Seed: 61, Domains: 8, TablesPerBase: 20, QueriesPerBase: 2,
		BaseRows: 60, MinRows: 8, MaxRows: 16,
	})
	q := b.Queries[0]
	cases := []struct {
		name  string
		parts int
	}{{"starmie", 1}, {"sharded3(starmie)", 3}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStarmie(b.Lake, WithShards(tc.parts))
			ctx := context.Background()

			if s.Name() != tc.name {
				t.Fatalf("fresh searcher is %q, want %q", s.Name(), tc.name)
			}
			if s.Lake() != b.Lake {
				t.Fatal("Lake() is not the indexed lake")
			}
			parts := s.Parts()
			if len(parts) != tc.parts {
				t.Fatalf("%d parts, want %d", len(parts), tc.parts)
			}
			if tc.parts == 1 && parts[0] != Searcher(s) {
				t.Fatal("a one-part searcher must be its own single part")
			}
			covered := 0
			for _, part := range parts {
				covered += part.Lake().Len()
			}
			if covered != b.Lake.Len() {
				t.Fatalf("parts cover %d tables, lake holds %d", covered, b.Lake.Len())
			}

			// One query path: the helpers are Prepare + TopKPrepared.
			for _, k := range []int{5, 0} {
				want, err := s.TopKPrepared(ctx, s.Prepare(q), k)
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
			if hits, err := s.TopKPrepared(cctx, pq, 5); !errors.Is(err, context.Canceled) || hits != nil {
				t.Errorf("cancelled TopKPrepared = %d hits, %v; want nil, context.Canceled", len(hits), err)
			}

			// A preparation only means something to the family that made it.
			if _, err := s.TopKPrepared(ctx, alienPrepared{q}, 5); !errors.Is(err, ErrForeignPrepared) {
				t.Errorf("foreign TopKPrepared err = %v, want ErrForeignPrepared", err)
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
		t.Run(tc.name+"/empty-lake", func(t *testing.T) {
			empty := lake.New("empty")
			s := NewStarmie(empty, WithShards(tc.parts))
			if s.Lake() != empty || len(s.Parts()) != tc.parts {
				t.Fatalf("Lake() is not the empty lake, or %d parts, want %d", len(s.Parts()), tc.parts)
			}
			for _, k := range []int{5, 0} {
				if hits, err := TopKCtx(context.Background(), s, q, k); err != nil || len(hits) != 0 {
					t.Fatalf("k=%d: %d hits, %v; want none", k, len(hits), err)
				}
			}
		})
		t.Run(tc.name+"/no-columns", func(t *testing.T) {
			bare := lake.New("bare")
			for i := 0; i < 4; i++ {
				bare.MustAdd(table.New(fmt.Sprintf("bare%d", i)))
			}
			s := NewStarmie(bare, WithShards(tc.parts))
			if hits := TopK(s, q, 5); len(hits) != bare.Len() || hits[0].Score != 0 {
				t.Fatalf("ranked %v, want every table at score 0", hits)
			}
		})
	}
}

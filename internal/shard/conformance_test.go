package shard

import (
	"context"
	"errors"
	"testing"

	"dust/internal/datagen"
	"dust/internal/lake"
	"dust/internal/search"
	"dust/internal/table"
)

// Both searchers in the repository satisfy the one contract in full.
var (
	_ search.Searcher = (*search.Starmie)(nil)
	_ search.Searcher = (*Searcher)(nil)
)

// alienPrepared is a preparation no searcher in the repository produced.
type alienPrepared struct{ q *table.Table }

func (a alienPrepared) Query() *table.Table { return a.q }

// TestSearcherConformance runs the search.Searcher contract over both
// implementers — monolithic Starmie and a 3-shard Starmie set: the parts
// partition the lake, TopKCtx is bit-identical to Prepare + TopKPrepared,
// a cancelled context yields ctx.Err() and no hits, a foreign preparation
// is refused with ErrForeignPrepared, and a mode flip shows in the name
// (which serving config tags key on) and turns the nomination stage from
// the whole lake into a proper subset. Each searcher built over an empty
// lake answers every query with nothing, in either mode.
func TestSearcherConformance(t *testing.T) {
	// Large enough that ANN nominees are a real subset of the lake.
	b := datagen.Generate("conformance", datagen.Config{
		Seed: 61, Domains: 8, TablesPerBase: 20, QueriesPerBase: 2,
		BaseRows: 60, MinRows: 8, MaxRows: 16,
	})
	q := b.Queries[0]
	cases := []struct {
		name  string
		build func(l *lake.Lake) search.Searcher
		parts int
	}{
		{"starmie", func(l *lake.Lake) search.Searcher { return search.NewStarmie(l) }, 1},
		{"sharded3(starmie)", func(l *lake.Lake) search.Searcher { return NewStarmie(l, 3, 0) }, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.build(b.Lake)
			defer s.Close()
			ctx := context.Background()

			if s.Name() != tc.name || s.RetrievalMode() != search.Exact {
				t.Fatalf("fresh searcher is %q in mode %v, want %q in exact mode", s.Name(), s.RetrievalMode(), tc.name)
			}
			if s.Lake() != b.Lake {
				t.Fatal("Lake() is not the indexed lake")
			}
			parts := s.Parts()
			if len(parts) != tc.parts {
				t.Fatalf("%d parts, want %d", len(parts), tc.parts)
			}
			if tc.parts == 1 && parts[0] != s {
				t.Fatal("a monolithic searcher must be its own single part")
			}
			covered := 0
			for _, part := range parts {
				covered += part.Lake().Len()
			}
			if covered != b.Lake.Len() {
				t.Fatalf("parts cover %d tables, lake holds %d", covered, b.Lake.Len())
			}
			if got, want := s.Instrument(&search.StageTimings{}), tc.parts > 1; got != want {
				t.Fatalf("Instrument reported %v, want %v", got, want)
			}

			// One query path: the helpers are Prepare + TopKPrepared.
			for _, k := range []int{5, 0} {
				want, err := s.TopKPrepared(ctx, s.Prepare(q), k)
				if err != nil {
					t.Fatal(err)
				}
				got, err := search.TopKCtx(ctx, s, q, k)
				if err != nil {
					t.Fatal(err)
				}
				sameHits(t, "TopKCtx vs Prepare+TopKPrepared", got, want)
				sameHits(t, "TopK vs TopKCtx", search.TopK(s, q, k), want)
				if k == 0 && len(got) != b.Lake.Len() {
					t.Fatalf("full ranking holds %d of %d tables", len(got), b.Lake.Len())
				}
			}

			// Cancellation: ctx.Err(), never a truncated ranking.
			cctx, cancel := context.WithCancel(ctx)
			pq := s.Prepare(q)
			cancel()
			if hits, err := search.TopKCtx(cctx, s, q, 5); !errors.Is(err, context.Canceled) || hits != nil {
				t.Errorf("cancelled TopKCtx = %d hits, %v; want nil, context.Canceled", len(hits), err)
			}
			if hits, err := s.TopKPrepared(cctx, pq, 5); !errors.Is(err, context.Canceled) || hits != nil {
				t.Errorf("cancelled TopKPrepared = %d hits, %v; want nil, context.Canceled", len(hits), err)
			}
			if _, err := s.NominatePrepared(cctx, pq, 5); !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled NominatePrepared err = %v, want context.Canceled", err)
			}

			// A preparation only means something to the family that made it.
			alien := alienPrepared{q}
			if _, err := s.TopKPrepared(ctx, alien, 5); !errors.Is(err, search.ErrForeignPrepared) {
				t.Errorf("foreign TopKPrepared err = %v, want ErrForeignPrepared", err)
			}
			if _, err := s.NominatePrepared(ctx, alien, 5); !errors.Is(err, search.ErrForeignPrepared) {
				t.Errorf("foreign NominatePrepared err = %v, want ErrForeignPrepared", err)
			}

			// Nomination and scoring are the two halves of the ranking.
			names, err := s.NominatePrepared(ctx, pq, 10)
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != b.Lake.Len() {
				t.Fatalf("exact mode nominated %d of %d tables", len(names), b.Lake.Len())
			}
			for _, h := range search.TopK(s, q, 5) {
				if got := s.ScorePrepared(pq, h.Table); got != h.Score {
					t.Fatalf("ScorePrepared(%s) = %v, ranked with %v", h.Table.Name, got, h.Score)
				}
			}

			// Mode flip: visible in the name, and the candidate stage shrinks.
			if err := s.SetMode(search.ANN); err != nil {
				t.Fatal(err)
			}
			if s.Name() == tc.name || s.RetrievalMode() != search.ANN {
				t.Fatalf("after SetMode(ANN): name %q, mode %v", s.Name(), s.RetrievalMode())
			}
			names, err = s.NominatePrepared(ctx, pq, 10)
			if err != nil {
				t.Fatal(err)
			}
			if len(names) == 0 || len(names) >= b.Lake.Len() {
				t.Fatalf("ANN mode nominated %d of %d tables", len(names), b.Lake.Len())
			}
			if view, ok := s.ModeView(search.Exact); !ok || view.Name() != tc.name {
				t.Fatalf("exact view of an ANN searcher: ok=%v", ok)
			}
			if err := s.SetMode(search.Mode(99)); !errors.Is(err, search.ErrUnknownMode) {
				t.Fatalf("SetMode(99) err = %v, want ErrUnknownMode", err)
			}
		})
		t.Run(tc.name+"/empty-lake", func(t *testing.T) {
			empty := lake.New("empty")
			s := tc.build(empty)
			defer s.Close()
			if s.Lake() != empty || len(s.Parts()) != tc.parts {
				t.Fatalf("Lake() is not the empty lake, or %d parts, want %d", len(s.Parts()), tc.parts)
			}
			for _, m := range []search.Mode{search.Exact, search.ANN} {
				if err := s.SetMode(m); err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{5, 0} {
					if hits, err := search.TopKCtx(context.Background(), s, q, k); err != nil || len(hits) != 0 {
						t.Fatalf("%v k=%d: %d hits, %v; want none", m, k, len(hits), err)
					}
				}
				if names, err := s.NominatePrepared(context.Background(), s.Prepare(q), 10); err != nil || len(names) != 0 {
					t.Fatalf("%v: nominated %v, %v; want nothing", m, names, err)
				}
			}
		})
	}
}

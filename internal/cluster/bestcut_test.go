package cluster_test

import (
	"fmt"
	"math/rand"
	"testing"

	"dust/internal/align"
	"dust/internal/cluster"
	"dust/internal/datagen"
	"dust/internal/embed"
	"dust/internal/search"
	"dust/internal/table"
	"dust/internal/vector"
)

// TestBestCutMatchesReference requires BestPartition to return what
// clustering by the reference chain and scoring every cut from scratch
// returns — clusters and score bits — on random items with duplicate rows
// and on a distance of five values with tied cells everywhere, with and
// without cannot-link (including links that stop the dendrogram early), at
// every kind of out-of-range bound, and on the alignment universes of a
// benchmark-shaped lake.
func TestBestCutMatchesReference(t *testing.T) {
	// ties is a distance of the items' indices, carried as their one
	// coordinate: five values, so nearly every scan is a tie.
	ties := func(a, b vector.Vec) float64 {
		i, j := int(a[0]), int(b[0])
		return float64((i*j + i + j) % 5)
	}
	indices := func(n int) []vector.Vec {
		items := make([]vector.Vec, n)
		for i := range items {
			items[i] = vector.Vec{float64(i)}
		}
		return items
	}
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		links := []struct {
			name string
			f    func(i, j int) bool
		}{
			{"none", nil},
			{"tables", func(i, j int) bool { return i/6 == j/6 }},
			{"mod5", func(i, j int) bool { return i%5 == j%5 }},
			{"halves", func(i, j int) bool { return i%2 == j%2 }}, // stops at ⌈n/2⌉ clusters
			{"isolated", func(i, j int) bool { return i == 0 || j == 0 }},
		}
		for _, n := range []int{2, 3, 4, 7, 16, 33, 65, 130} {
			for _, in := range []struct {
				items []vector.Vec
				dist  vector.DistanceFunc
			}{{cluster.DuplicatedVecs(n, 8), vector.Euclidean}, {indices(n), ties}} {
				for _, link := range links {
					bounds := [][2]int{{2, n - 1}, {2, n}, {5, n - 1}, {n / 2, n / 2}}
					for range 4 {
						lo := rng.Intn(n + 2)
						bounds = append(bounds, [2]int{lo, lo + rng.Intn(n+2)})
					}
					for _, b := range bounds {
						if err := cluster.CheckBestCut(in.items, in.dist, cluster.Options{CannotLink: link.f}, b[0], b[1]); err != nil {
							t.Fatalf("n=%d, cannot-link %s: %v", n, link.name, err)
						}
					}
				}
			}
		}
	})

	t.Run("bounds", func(t *testing.T) {
		for _, n := range []int{0, 1, 2, 3, 12} {
			items := cluster.DuplicatedVecs(n, 4)
			for _, b := range [][2]int{{5, 3}, {n + 1, n + 3}, {-3, 1}, {0, n - 1}, {1, n}, {2, n + 9}, {n, n}} {
				if err := cluster.CheckBestCut(items, vector.Euclidean, cluster.Options{}, b[0], b[1]); err != nil {
					t.Fatal(err)
				}
			}
		}
	})

	t.Run("universes", func(t *testing.T) {
		spec, err := datagen.ParseLakeSpec("tables=120,rows=30,zipf=1.5,parents=11,fk=0.3,null=0.01,seed=7")
		if err != nil {
			t.Fatal(err)
		}
		s := search.NewStarmie(spec.Generate(), search.WithWorkers(1))
		enc := embed.ColumnLevel{Model: embed.NewRoBERTa()}
		for i := 0; i < 40; i++ {
			q := spec.Query(i)
			var retrieved []*table.Table
			for _, h := range search.TopK(s, q, 10) {
				retrieved = append(retrieved, h.Table)
			}
			// The universe and constraint as align.HolisticWorkers
			// clusters them.
			cols := align.EmbedColumns(q, retrieved, enc)
			vecs := make([]vector.Vec, len(cols))
			numQuery := 0
			for c, col := range cols {
				vecs[c] = col.Vec
				if col.IsQuery {
					numQuery++
				}
			}
			opts := cluster.Options{CannotLink: func(a, b int) bool {
				return cols[a].Table == cols[b].Table && cols[a].IsQuery == cols[b].IsQuery
			}}
			if err := cluster.CheckBestCut(vecs, vector.Euclidean, opts, numQuery, len(cols)-1); err != nil {
				t.Fatal(fmt.Errorf("%s: %w", q.Name, err))
			}
		}
	})
}

package search

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"dust/internal/datagen"
	"dust/internal/embed"
	"dust/internal/lake"
	"dust/internal/table"
)

// bigTable builds a table whose columns exceed the encoder token budget, so
// its Starmie embedding depends on the corpus TF-IDF selection — the hard
// case for incremental updates, where mutating any table must refresh it.
func bigTable(name string, seed int64) *table.Table {
	rng := rand.New(rand.NewSource(seed))
	t := table.New(name, "Myth", "Definition")
	for i := 0; i < 3*embed.TokenBudget/4; i++ {
		t.MustAppendRow(
			fmt.Sprintf("creature%d%d", seed, rng.Intn(1000)),
			fmt.Sprintf("legend%d whispered%d", rng.Intn(1000), rng.Intn(1000)),
		)
	}
	return t
}

func snapshotScored(queries []*table.Table, s Searcher) []string {
	var out []string
	for _, q := range queries {
		for i, sc := range TopK(s, q, 8) {
			out = append(out, fmt.Sprintf("%s#%d:%s=%x", q.Name, i, sc.Table.Name, sc.Score))
		}
	}
	return out
}

// TestIncrementalEquivalence drives randomized interleaved AddTable /
// RemoveTable sequences against Starmie and checks, at every step, that
// query results are bit-identical to a from-scratch rebuild over the
// mutated lake — for the sequential and the parallel execution paths.
func TestIncrementalEquivalence(t *testing.T) {
	base := datagen.Generate("inc-test", datagen.Config{
		Seed: 29, Domains: 3, TablesPerBase: 4, BaseRows: 24, MinRows: 8, MaxRows: 12,
	})
	queries := base.Queries[:2]

	// The mutation pool: the benchmark's lake tables plus two corpus-heavy
	// tables that force Starmie's TF-IDF refresh path.
	pool := append([]*table.Table{}, base.Lake.Tables()...)
	pool = append(pool, bigTable("big_a", 1), bigTable("big_b", 2))

	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("starmie/workers=%d", workers), func(t *testing.T) {
			rng := rand.New(rand.NewSource(97))
			l := lake.New("inc")
			inLake := map[string]bool{}
			for _, tab := range pool[:len(pool)/2] {
				l.MustAdd(tab)
				inLake[tab.Name] = true
			}
			s := NewStarmie(l, WithWorkers(workers))

			for step := 0; step < 10; step++ {
				var absent, present []*table.Table
				for _, tab := range pool {
					if inLake[tab.Name] {
						present = append(present, tab)
					} else {
						absent = append(absent, tab)
					}
				}
				// Bias toward adds so the lake stays populated.
				if len(present) > 1 && (len(absent) == 0 || rng.Intn(3) == 0) {
					victim := present[rng.Intn(len(present))]
					if err := s.RemoveTable(victim.Name); err != nil {
						t.Fatalf("step %d: remove %s: %v", step, victim.Name, err)
					}
					if err := l.Remove(victim.Name); err != nil {
						t.Fatal(err)
					}
					inLake[victim.Name] = false
				} else {
					added := absent[rng.Intn(len(absent))]
					l.MustAdd(added)
					if err := s.AddTable(added); err != nil {
						t.Fatalf("step %d: add %s: %v", step, added.Name, err)
					}
					inLake[added.Name] = true
				}

				got := snapshotScored(queries, s)
				want := snapshotScored(queries, NewStarmie(l, WithWorkers(workers)))
				if len(got) != len(want) {
					t.Fatalf("step %d: %d results, rebuild has %d", step, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("step %d result %d:\nincremental: %s\nrebuilt:     %s",
							step, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestIncrementalWorkersAgree drives the same mutation sequence with one
// and eight workers and checks the incremental indexes agree with each
// other at every step (rebuild equivalence is covered above; this pins the
// parallel refresh path against the sequential one directly).
func TestIncrementalWorkersAgree(t *testing.T) {
	base := datagen.Generate("inc-workers", datagen.Config{
		Seed: 31, Domains: 2, TablesPerBase: 3, BaseRows: 20, MinRows: 6, MaxRows: 10,
	})
	queries := base.Queries[:1]
	pool := append([]*table.Table{}, base.Lake.Tables()...)
	pool = append(pool, bigTable("big_w", 3))

	t.Run("starmie", func(t *testing.T) {
		drive := func(workers int) [][]string {
			rng := rand.New(rand.NewSource(5))
			l := lake.New("inc")
			for _, tab := range pool[:3] {
				l.MustAdd(tab)
			}
			s := NewStarmie(l, WithWorkers(workers))
			var snaps [][]string
			for _, tab := range pool[3:] {
				l.MustAdd(tab)
				if err := s.AddTable(tab); err != nil {
					t.Fatal(err)
				}
				snaps = append(snaps, snapshotScored(queries, s))
				if rng.Intn(2) == 0 {
					if err := s.RemoveTable(tab.Name); err != nil {
						t.Fatal(err)
					}
					if err := l.Remove(tab.Name); err != nil {
						t.Fatal(err)
					}
					snaps = append(snaps, snapshotScored(queries, s))
				}
			}
			return snaps
		}
		seq, par := drive(1), drive(8)
		if len(seq) != len(par) {
			t.Fatalf("snapshot counts differ: %d vs %d", len(seq), len(par))
		}
		for i := range seq {
			for j := range seq[i] {
				if seq[i][j] != par[i][j] {
					t.Fatalf("snapshot %d entry %d: workers=1 %s, workers=8 %s",
						i, j, seq[i][j], par[i][j])
				}
			}
		}
	})
}

func TestIncrementalErrors(t *testing.T) {
	b := persistBench(t)
	s := NewStarmie(b.Lake)
	if err := s.AddTable(b.Lake.Tables()[0]); !errors.Is(err, ErrDuplicateTable) {
		t.Errorf("duplicate AddTable err = %v, want ErrDuplicateTable", err)
	}
	if err := s.RemoveTable("never-indexed"); !errors.Is(err, ErrUnknownTable) {
		t.Errorf("RemoveTable of unknown err = %v, want ErrUnknownTable", err)
	}
}

package search

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"dust/internal/codec"
	"dust/internal/datagen"
	"dust/internal/lake"
	"dust/internal/table"
)

// annBench is the recall fixture: large enough that the ANN candidate
// pool is a real subset of the lake (not everything), small enough for CI.
func annBench(t testing.TB) *datagen.Benchmark {
	t.Helper()
	return datagen.Generate("ann-bench", datagen.Config{
		Seed: 61, Domains: 8, TablesPerBase: 40, QueriesPerBase: 2,
		BaseRows: 60, MinRows: 8, MaxRows: 16,
	})
}

// annBenchSmall backs the behavioral tests (determinism, mode flips,
// persistence) that do not need lake scale; it keeps the race-enabled CI
// run affordable.
func annBenchSmall(t testing.TB) *datagen.Benchmark {
	t.Helper()
	return datagen.Generate("ann-bench-small", datagen.Config{
		Seed: 62, Domains: 6, TablesPerBase: 12, QueriesPerBase: 2,
		BaseRows: 40, MinRows: 6, MaxRows: 12,
	})
}

// recallAtK measures |approx∩exact|/k averaged over queries, the metric
// the acceptance bar (>= 0.95) is stated in.
func recallAtK(queries []*table.Table, k int, exact, approx func(*table.Table, int) []string) float64 {
	var sum float64
	for _, q := range queries {
		want := exact(q, k)
		got := approx(q, k)
		in := make(map[string]bool, len(got))
		for _, n := range got {
			in[n] = true
		}
		hits := 0
		for _, n := range want {
			if in[n] {
				hits++
			}
		}
		sum += float64(hits) / float64(len(want))
	}
	return sum / float64(len(queries))
}

func scoredNames(hits []Scored) []string {
	out := make([]string, len(hits))
	for i, h := range hits {
		out[i] = h.Table.Name
	}
	return out
}

// TestANNRecall is the recall regression gate: HNSW candidates + exact
// re-rank must find at least 95% of the brute-force top 10 on the datagen
// benchmark.
func TestANNRecall(t *testing.T) {
	b := annBench(t)
	const k = 10

	t.Run("starmie", func(t *testing.T) {
		exact := NewStarmie(b.Lake)
		approx := exact.CloneWithLake(b.Lake).(*Starmie)
		if err := approx.SetMode(ANN); err != nil {
			t.Fatal(err)
		}
		r := recallAtK(b.Queries, k,
			func(q *table.Table, k int) []string { return scoredNames(TopK(exact, q, k)) },
			func(q *table.Table, k int) []string { return scoredNames(TopK(approx, q, k)) })
		if r < 0.95 {
			t.Fatalf("starmie ANN recall@%d = %.3f, want >= 0.95", k, r)
		}
	})
}

// TestExactModeUnchanged pins the refactor: a searcher in Exact
// mode — including one that visited ANN mode and came back, carrying a
// graph — ranks bit-identically to the plain constructor-default path,
// at workers 1 and 8. This is the "exact mode stays seed behavior"
// equivalence the staged query plan must not disturb.
func TestExactModeUnchanged(t *testing.T) {
	b := annBenchSmall(t)
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			base := NewStarmie(b.Lake, WithWorkers(workers))
			want := snapshotScored(b.Queries[:3], base)

			toggled := base.CloneWithLake(b.Lake).(*Starmie)
			if err := toggled.SetMode(ANN); err != nil {
				t.Fatal(err)
			}
			if err := toggled.SetMode(Exact); err != nil {
				t.Fatal(err)
			}
			if got := snapshotScored(b.Queries[:3], toggled); !reflect.DeepEqual(got, want) {
				t.Fatal("exact mode after an ANN round trip ranks differently")
			}
			if base.Name() != "starmie" || toggled.Name() != "starmie" {
				t.Fatalf("exact-mode names changed: %q / %q", base.Name(), toggled.Name())
			}
		})
	}
}

// TestANNWorkersAgree pins the ANN plan's determinism across worker
// counts: the staged plan threads the same candidate set through the
// parallel scorer, so workers must not change results.
func TestANNWorkersAgree(t *testing.T) {
	b := annBenchSmall(t)
	s1 := NewStarmie(b.Lake, WithWorkers(1), WithMode(ANN))
	s8 := NewStarmie(b.Lake, WithWorkers(8), WithMode(ANN))
	if got, want := snapshotScored(b.Queries[:4], s8), snapshotScored(b.Queries[:4], s1); !reflect.DeepEqual(got, want) {
		t.Fatal("starmie ANN results differ between workers=1 and workers=8")
	}
}

// TestANNIncrementalMutations drives AddTable/RemoveTable through an
// ANN-mode Starmie — including enough removals to trip the tombstone
// rebuild — checking after every step that the staged results match a
// from-scratch ANN index over the same lake built in the same table
// order, and that recall against the exact oracle holds.
func TestANNIncrementalMutations(t *testing.T) {
	b := datagen.Generate("ann-inc", datagen.Config{
		Seed: 67, Domains: 4, TablesPerBase: 10, QueriesPerBase: 1,
		BaseRows: 40, MinRows: 8, MaxRows: 12,
	})
	pool := b.Lake.Tables()
	q := b.Queries[0]

	l := lake.New("ann-inc")
	for _, tab := range pool[:len(pool)/2] {
		l.MustAdd(tab)
	}
	s := NewStarmie(l, WithMode(ANN))

	step := func(i int) {
		exact := NewStarmie(l)
		wantNames := scoredNames(TopK(exact, q, 5))
		in := map[string]bool{}
		for _, h := range TopK(s, q, 5) {
			in[h.Table.Name] = true
		}
		hits := 0
		for _, n := range wantNames {
			if in[n] {
				hits++
			}
		}
		if float64(hits)/float64(len(wantNames)) < 0.8 {
			t.Fatalf("step %d: mutated ANN index recalls %d/%d of the exact top-5", i, hits, len(wantNames))
		}
	}

	// Grow to the full pool, then shrink far enough to force a rebuild.
	for i, tab := range pool[len(pool)/2:] {
		l.MustAdd(tab)
		if err := s.AddTable(tab); err != nil {
			t.Fatal(err)
		}
		step(i)
	}
	removed := 0
	for _, tab := range pool {
		if l.Len() <= 6 || tab.Name == "" {
			break
		}
		// Keep the query's own domain so TopK stays meaningful.
		if b.Unionable[q.Name] != nil {
			skip := false
			for _, n := range b.Unionable[q.Name] {
				if n == tab.Name {
					skip = true
					break
				}
			}
			if skip {
				continue
			}
		}
		if err := s.RemoveTable(tab.Name); err != nil {
			t.Fatal(err)
		}
		if err := l.Remove(tab.Name); err != nil {
			t.Fatal(err)
		}
		removed++
		step(100 + removed)
	}
	if removed < 10 {
		t.Fatalf("only %d removals, not enough to exercise the rebuild threshold", removed)
	}
}

// TestSaveLoadANN round-trips the Starmie HNSW graph and checks the
// loaded searcher ranks identically to the saver in ANN mode; corrupt
// and mismatched inputs must fail with typed errors.
func TestSaveLoadANN(t *testing.T) {
	b := annBenchSmall(t)
	s := NewStarmie(b.Lake, WithMode(ANN))
	var buf bytes.Buffer
	if err := s.SaveANN(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	loaded, err := LoadStarmie(func() *bytes.Reader {
		var idx bytes.Buffer
		if err := s.Save(&idx); err != nil {
			t.Fatal(err)
		}
		return bytes.NewReader(idx.Bytes())
	}(), b.Lake)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.LoadANN(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if err := loaded.SetMode(ANN); err != nil {
		t.Fatal(err)
	}
	want := snapshotScored(b.Queries[:3], s)
	if got := snapshotScored(b.Queries[:3], loaded); !reflect.DeepEqual(got, want) {
		t.Fatal("loaded ANN graph ranks differently from the saved one")
	}

	// Corruption: flip a payload byte -> checksum failure.
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0xFF
	if err := loaded.LoadANN(bytes.NewReader(bad)); !errors.Is(err, codec.ErrChecksum) {
		t.Fatalf("corrupted ann graph load err = %v, want ErrChecksum", err)
	}
	// A graph saved against a different lake must be rejected.
	other := datagen.Generate("ann-other", datagen.Config{
		Seed: 68, Domains: 2, TablesPerBase: 3, BaseRows: 20, MinRows: 6, MaxRows: 8,
	})
	so := NewStarmie(other.Lake, WithMode(ANN))
	var bufO bytes.Buffer
	if err := so.SaveANN(&bufO); err != nil {
		t.Fatal(err)
	}
	if err := loaded.LoadANN(bytes.NewReader(bufO.Bytes())); !errors.Is(err, ErrLakeMismatch) {
		t.Fatalf("foreign graph load err = %v, want ErrLakeMismatch", err)
	}
	// SaveANN without a graph is an error.
	if err := NewStarmie(other.Lake).SaveANN(&bytes.Buffer{}); err == nil {
		t.Fatal("SaveANN without a graph did not error")
	}

	// A zero-column table contributes no graph nodes and must not break
	// the save/load round trip.
	withEmpty := lake.New("with-empty")
	for _, tab := range other.Lake.Tables() {
		withEmpty.MustAdd(tab)
	}
	withEmpty.MustAdd(table.New("columnless"))
	se := NewStarmie(withEmpty, WithMode(ANN))
	var bufE bytes.Buffer
	if err := se.SaveANN(&bufE); err != nil {
		t.Fatal(err)
	}
	le := NewStarmie(withEmpty)
	if err := le.LoadANN(bytes.NewReader(bufE.Bytes())); err != nil {
		t.Fatalf("graph over a lake with a zero-column table did not load: %v", err)
	}
}

package search

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"dust/internal/ann"
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

// TestIndexFootprint checks the IndexBytes accounting behind the
// dust_index_bytes gauge and /stats: no graph reports 0 bytes, and a graph
// reports its adjacency alone, which stays under the float32 copy of its
// rows the graph no longer keeps (the rows are the blocks').
func TestIndexFootprint(t *testing.T) {
	s := NewStarmie(annBenchSmall(t).Lake)
	if n := s.IndexBytes().Bytes; n != 0 {
		t.Fatalf("graphless IndexBytes = %d, want 0", n)
	}
	if err := s.SetMode(ANN); err != nil {
		t.Fatal(err)
	}
	g := s.Graph()
	if n, rows := s.IndexBytes().Bytes, int64(g.Len()*s.enc.Dim()*4); n != g.Bytes() || n <= 0 || n >= rows {
		t.Fatalf("IndexBytes = %d (graph %d), want positive and under the %d B float32 row copy", n, g.Bytes(), rows)
	}
}

// TestSaveLoadANN round-trips the Starmie HNSW graph: a tombstone-free
// graph reloads with the saver's ANN answers and adjacency, a tombstoned
// one reloads equal to its own compaction while the saver keeps its
// tombstones, and corrupt and mismatched inputs fail with typed errors.
func TestSaveLoadANN(t *testing.T) {
	b := annBenchSmall(t)
	s := NewStarmie(b.Lake, WithMode(ANN))
	data := saveANN(t, s)

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
	if !bytes.Equal(saveANN(t, loaded), data) {
		t.Fatal("loaded ANN graph re-saves with different adjacency")
	}

	// Tombstones: re-index one table with compaction held off, so the graph
	// carries its old nodes as tombstones over an unchanged table set.
	moved := b.Lake.Tables()[0]
	s.SetAutoCompact(false)
	if err := s.RemoveTable(moved.Name); err != nil {
		t.Fatal(err)
	}
	if err := b.Lake.Remove(moved.Name); err != nil {
		t.Fatal(err)
	}
	b.Lake.MustAdd(moved)
	if err := s.AddTable(moved); err != nil {
		t.Fatal(err)
	}
	nodes := s.Graph().Len()
	tomb := saveANN(t, s)
	if s.Graph().Len() != nodes || s.Graph().Live() == nodes {
		t.Fatal("SaveANN changed the in-memory tombstoned graph")
	}
	compacted := s.CloneWithLake(b.Lake).(*Starmie)
	compacted.Compact()
	reloaded := NewStarmie(b.Lake)
	if err := reloaded.LoadANN(bytes.NewReader(tomb)); err != nil {
		t.Fatal(err)
	}
	if err := reloaded.SetMode(ANN); err != nil {
		t.Fatal(err)
	}
	if reloaded.Graph().Len() != compacted.Graph().Len() || !bytes.Equal(saveANN(t, compacted), tomb) {
		t.Fatal("a tombstoned graph did not save as its compaction")
	}
	if got, want := snapshotScored(b.Queries[:3], reloaded), snapshotScored(b.Queries[:3], compacted); !reflect.DeepEqual(got, want) {
		t.Fatal("reloaded tombstoned graph ranks differently from its compaction")
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
	foreign := saveANN(t, NewStarmie(other.Lake, WithMode(ANN)))
	if err := loaded.LoadANN(bytes.NewReader(foreign)); !errors.Is(err, ErrLakeMismatch) {
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
	withEmptyGraph := saveANN(t, NewStarmie(withEmpty, WithMode(ANN)))
	if err := NewStarmie(withEmpty).LoadANN(bytes.NewReader(withEmptyGraph)); err != nil {
		t.Fatalf("graph over a lake with a zero-column table did not load: %v", err)
	}
}

// saveANN is SaveANN into memory.
func saveANN(t testing.TB, s *Starmie) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.SaveANN(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// legacyV1 hand-writes a version 1 graph file over s's columns: one layer,
// a ring with each node linked to its two neighbours. Every node carries
// the float32 row version 1 stored (zeros here; the loader drops them).
// With dead, one more node, a tombstone under the first table's name,
// closes the ring.
func legacyV1(t *testing.T, s *Starmie, dead bool) []byte {
	names := slices.Clone(s.parts[0].annTables)
	if dead {
		names = append(names, names[0])
	}
	n, dim := len(names), s.enc.Dim()
	var b codec.Buffer
	b.String(s.enc.Name())
	b.String(s.enc.Model.Fingerprint())
	b.Int(dim)
	b.Strings(names)
	b.Int(dim)
	b.Int(ann.DefaultM)
	b.Int(ann.DefaultEfConstruction)
	b.Uvarint(ann.DefaultSeed)
	b.Int(n)
	b.Int(0) // entry
	b.Int(0) // max level
	for i := 0; i < n; i++ {
		b.Int(0) // level
		b.Bool(dead && i == n-1)
		b.Float32s(make([]float32, dim))
		b.Int(2)
		b.Int((i + n - 1) % n)
		b.Int((i + 1) % n)
	}
	var file bytes.Buffer
	if err := codec.WriteEnvelope(&file, codec.KindANN, 1, b.Bytes()); err != nil {
		t.Fatal(err)
	}
	return file.Bytes()
}

// TestLoadANNLegacy loads graph files from before version 3, whose nodes
// carried a float32 or SQ8 copy of their rows. Each loads with the file's
// node and edge counts (a tombstoned one as the compaction of its live
// nodes), answers ANN queries from Starmie's own rows, and re-saves as
// version 3. The v2 float file is testdata/golden_v4_mono's. The v2 SQ8
// file was written by commit f7cfcaa, the last with SQ8 storage, as
//
//	NewStarmie(persistBench(t).Lake, WithMode(ANN), WithQuantized(true)).SaveANN(f)
//
// into testdata/golden_ann_v2_sq8.idx.
func TestLoadANNLegacy(t *testing.T) {
	b := persistBench(t)
	host := NewStarmie(b.Lake, WithMode(ANN))
	mono := filepath.Join("..", "..", "testdata", "golden_v4_mono")
	monoLake, err := lake.Load(filepath.Join(mono, "lake"))
	if err != nil {
		t.Fatal(err)
	}
	read := func(path string) []byte {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for _, c := range []struct {
		name         string
		lake         *lake.Lake
		file         []byte
		nodes, edges int // edges < 0: tombstoned, loads as a fresh build
	}{
		{"v1 float", b.Lake, legacyV1(t, host, false), 36, 72},
		{"v1 float tombstoned", b.Lake, legacyV1(t, host, true), 36, -1},
		{"v2 float", monoLake, read(filepath.Join(mono, "index", "ann.dustidx")), 19, 342},
		{"v2 sq8", b.Lake, read(filepath.Join("testdata", "golden_ann_v2_sq8.idx")), 36, 889},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := NewStarmie(c.lake)
			if err := s.LoadANN(bytes.NewReader(c.file)); err != nil {
				t.Fatal(err)
			}
			g := s.Graph()
			if g.Len() != c.nodes || g.Live() != c.nodes || c.edges >= 0 && g.Edges() != c.edges {
				t.Fatalf("loaded %d nodes (%d live), %d edges; file holds %d nodes, %d edges",
					g.Len(), g.Live(), g.Edges(), c.nodes, c.edges)
			}
			// Below the build's warm prefix a compaction and a fresh build
			// both insert one node at a time, in lake order.
			if c.edges < 0 && !bytes.Equal(saveANN(t, s), saveANN(t, host)) {
				t.Fatal("tombstoned graph did not load as its compaction")
			}
			if err := s.SetMode(ANN); err != nil {
				t.Fatal(err)
			}
			if hits := TopK(s, c.lake.Tables()[0], 2); len(hits) != 2 {
				t.Fatalf("ANN TopK answered %d hits, want 2", len(hits))
			}
			resaved := saveANN(t, s)
			if v, _, err := codec.ReadEnvelope(bytes.NewReader(resaved), codec.KindANN, ANNFormatVersion); err != nil || v != 3 {
				t.Fatalf("re-save: version %d, err %v; want version 3", v, err)
			}
			again := NewStarmie(c.lake)
			if err := again.LoadANN(bytes.NewReader(resaved)); err != nil || again.Graph().Edges() != g.Edges() {
				t.Fatalf("version 3 re-save did not reload to the same graph: %v", err)
			}
		})
	}
}

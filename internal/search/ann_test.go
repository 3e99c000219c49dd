package search

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"dust/internal/ann"
	"dust/internal/codec"
	"dust/internal/datagen"
	"dust/internal/lake"
	"dust/internal/table"
)

// TestIndexFootprint checks the IndexBytes accounting behind the
// dust_index_bytes gauge and /stats: no graph reports 0 bytes, and a graph
// reports its adjacency alone, which stays under the float32 copy of its
// rows the graph no longer keeps (the rows are the blocks').
func TestIndexFootprint(t *testing.T) {
	s := NewStarmie(persistBench(t).Lake)
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
	b := persistBench(t)
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
	sameAnswers := func(label string, got, want Searcher) {
		for qi, q := range b.Queries {
			assertSameHits(t, fmt.Sprintf("%s, query %d", label, qi), TopK(got, q, 8), TopK(want, q, 8))
		}
	}
	sameAnswers("loaded ANN graph vs the saved one", loaded, s)
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
	sameAnswers("reloaded tombstoned graph vs its compaction", reloaded, compacted)

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

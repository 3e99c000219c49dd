package search

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

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
	s := annStarmie(t, b.Lake)
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
	foreign := saveANN(t, annStarmie(t, other.Lake))
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
	withEmptyGraph := saveANN(t, annStarmie(t, withEmpty))
	if err := NewStarmie(withEmpty).LoadANN(bytes.NewReader(withEmptyGraph)); err != nil {
		t.Fatalf("graph over a lake with a zero-column table did not load: %v", err)
	}
}

// annStarmie builds a searcher over l and switches it to ANN mode.
func annStarmie(t testing.TB, l *lake.Lake) *Starmie {
	t.Helper()
	s := NewStarmie(l)
	if err := s.SetMode(ANN); err != nil {
		t.Fatal(err)
	}
	return s
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

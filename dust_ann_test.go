package dust

import (
	"os"
	"path/filepath"
	"testing"

	"dust/internal/search"
)

// TestPipelineANNParity pins the -ann serving contract the CI smoke also
// asserts over HTTP: on a lake small enough that the oversampled candidate
// pool covers it, the ANN pipeline returns exactly what the exact pipeline
// returns — same tables, same diverse tuples — while a distinct ConfigTag
// keeps epoch-keyed result caches from ever conflating the two plans.
func TestPipelineANNParity(t *testing.T) {
	b, q := benchLake(t)
	exact := New(b.Lake, WithTopTables(5))
	approx := New(b.Lake, WithTopTables(5), WithRetriever(search.ANN))

	if exact.ConfigTag() == approx.ConfigTag() {
		t.Fatalf("exact and ANN pipelines share a config tag: %q", exact.ConfigTag())
	}
	want, err := exact.Search(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	got, err := approx.Search(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "ann vs exact on a covered lake", got, want)
}

// TestPipelineANNWarmStart round-trips an ANN-mode pipeline through
// SaveIndex/LoadPipeline: the graph file persists beside the searcher
// index, the manifest records the mode, and the warm pipeline answers
// identically — still in ANN mode — without rebuilding the graph.
func TestPipelineANNWarmStart(t *testing.T) {
	b, q := benchLake(t)
	lakeDir := filepath.Join(t.TempDir(), "lake")
	if err := b.Lake.Save(lakeDir); err != nil {
		t.Fatal(err)
	}
	cold := New(b.Lake, WithTopTables(5), WithRetriever(search.ANN))
	want, err := cold.Search(q, 10)
	if err != nil {
		t.Fatal(err)
	}

	idxDir := filepath.Join(t.TempDir(), "index")
	if err := cold.SaveIndex(idxDir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(idxDir, "shard-000.ann.dustidx")); err != nil {
		t.Fatalf("ann graph file not written: %v", err)
	}

	warm, err := LoadPipeline(lakeDir, idxDir, WithTopTables(5))
	if err != nil {
		t.Fatal(err)
	}
	if warm.searcher.RetrievalMode() != search.ANN {
		t.Fatal("warm start did not restore ANN mode")
	}
	got, err := warm.Search(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "ann warm vs cold", got, want)

	// Re-saving in exact mode must drop the now-orphaned graph file.
	if err := New(b.Lake, WithTopTables(5)).SaveIndex(idxDir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(idxDir, "shard-000.ann.dustidx")); !os.IsNotExist(err) {
		t.Errorf("stale shard-000.ann.dustidx survived an exact-mode overwrite (err = %v)", err)
	}
}

// TestPipelineANNMutations drives live mutations through an ANN pipeline
// the way dustserve's snapshot swaps do — Clone, mutate, query both sides
// — checking the clone's graph is independent and the original still
// answers.
func TestPipelineANNMutations(t *testing.T) {
	b, q := benchLake(t)
	p := New(b.Lake, WithTopTables(5), WithRetriever(search.ANN))
	want, err := p.Search(q, 10)
	if err != nil {
		t.Fatal(err)
	}

	shadow := p.Clone()
	grown := q.Clone("late_arrival")
	if err := shadow.AddTable(grown); err != nil {
		t.Fatal(err)
	}
	if shadow.Epoch() != p.Epoch()+1 {
		t.Fatalf("shadow epoch %d, original %d", shadow.Epoch(), p.Epoch())
	}
	// A near-copy of the query must surface in the mutated clone's search
	// and stay invisible to the original.
	res, err := shadow.Search(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range res.UnionableTables {
		if n == "late_arrival" {
			found = true
		}
	}
	if !found {
		t.Errorf("ANN clone did not retrieve the newly added near-copy (got %v)", res.UnionableTables)
	}
	after, err := p.Search(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "original after clone mutation", after, want)

	if err := shadow.RemoveTable("late_arrival"); err != nil {
		t.Fatal(err)
	}
	back, err := shadow.Search(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "clone after add+remove", back, want)
}

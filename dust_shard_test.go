package dust

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dust/internal/codec"
	"dust/internal/datagen"
	"dust/internal/lake"
	"dust/internal/search"
	"dust/internal/table"
)

// TestPipelineShardedOverwriteChangesLayout re-saves a different layout
// into the same directory and checks no stale component files survive in
// either direction, graph files of an ANN save included.
func TestPipelineShardedOverwriteChangesLayout(t *testing.T) {
	b, q := benchLake(t)
	lakeDir := filepath.Join(t.TempDir(), "lake")
	if err := b.Lake.Save(lakeDir); err != nil {
		t.Fatal(err)
	}
	idxDir := filepath.Join(t.TempDir(), "index")
	if err := New(b.Lake, WithShards(4), WithRetriever(search.ANN)).SaveIndex(idxDir); err != nil {
		t.Fatal(err)
	}
	// Shrink to 2 exact shards: shard-002/003 and every graph file must disappear.
	if err := New(b.Lake, WithShards(2)).SaveIndex(idxDir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(idxDir, "shard-002.dustidx")); !os.IsNotExist(err) {
		t.Error("stale shard file survived a smaller re-save")
	}
	if m, _ := filepath.Glob(filepath.Join(idxDir, "*.ann.dustidx")); len(m) != 0 {
		t.Errorf("stale graph files %v survived an exact-mode re-save", m)
	}
	warm, err := LoadPipeline(lakeDir, idxDir)
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.Shards(); got != 2 {
		t.Fatalf("Shards() = %d after re-save, want 2", got)
	}
	// Back to monolithic: one part, so only shard-000 may remain.
	if err := New(b.Lake).SaveIndex(idxDir); err != nil {
		t.Fatal(err)
	}
	if m, _ := filepath.Glob(filepath.Join(idxDir, "shard-*.dustidx")); len(m) != 1 || filepath.Base(m[0]) != "shard-000.dustidx" {
		t.Errorf("monolithic re-save left shard files %v, want only shard-000.dustidx", m)
	}
	warm, err = LoadPipeline(lakeDir, idxDir)
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.Shards(); got != 1 {
		t.Fatalf("Shards() = %d after monolithic re-save, want 1", got)
	}
	want, err := New(b.Lake).Search(q, 8)
	if err != nil {
		t.Fatal(err)
	}
	got, err := warm.Search(q, 8)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "after layout churn", got, want)
}

// TestLoadGoldenShardedV4 reads a two-part index directory written by an
// earlier build (testdata/golden_v4_sharded: 7 tables, one of them over the
// encoder's token budget, so its vectors depend on the lake-wide corpus).
// It must answer exactly like a fresh WithShards(2) build in both retrieval
// modes, and re-save every part file byte for byte. The fixture was written
// by commit e5bdf00 with
//
//	b := datagen.Generate("golden", datagen.Config{Seed: 5, Domains: 2, TablesPerBase: 3,
//		QueriesPerBase: 1, BaseRows: 12, MinRows: 4, MaxRows: 6})
//	big := table.New("wide_vocab", "terms")
//	for i := 0; i < 90; i++ {
//		big.MustAppendRow(fmt.Sprintf("w%d_a w%d_b w%d_c w%d_d w%d_e w%d_f %s",
//			i, i, i, i, i, i, b.Lake.Tables()[i%6].Cell(0, 0)))
//	}
//	b.Lake.MustAdd(big)
//	b.Lake.Save("lake"); b.Queries[0].SaveCSV("query.csv")
//	l, _ := lake.Load("lake") // directory order, as a later load reads it
//	dust.New(l, dust.WithShards(2), dust.WithRetriever(search.ANN)).SaveIndex("index")
//
// Do not regenerate it: the point is that directories saved before keep
// loading.
func TestLoadGoldenShardedV4(t *testing.T) {
	golden := filepath.Join("testdata", "golden_v4_sharded")
	idxDir := filepath.Join(golden, "index")
	q, err := table.LoadCSV(filepath.Join(golden, "query.csv"))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := LoadPipeline(filepath.Join(golden, "lake"), idxDir)
	if err != nil {
		t.Fatalf("golden index did not load: %v", err)
	}
	fresh := New(warm.Lake(), WithShards(2), WithRetriever(search.ANN))
	if warm.Shards() != 2 || warm.ConfigTag() != fresh.ConfigTag() {
		t.Fatalf("loaded %d shard(s) tagged %q, want 2 tagged %q", warm.Shards(), warm.ConfigTag(), fresh.ConfigTag())
	}
	hits := func(p *Pipeline, k int) string {
		var out []string
		for _, h := range search.TopK(p.searcher, q, k) {
			out = append(out, fmt.Sprintf("%s=%x", h.Table.Name, h.Score))
		}
		return fmt.Sprint(out)
	}
	for _, mode := range []search.Mode{search.ANN, search.Exact} {
		wv, ok := warm.ModeView(mode)
		fv, fok := fresh.ModeView(mode)
		if !ok || !fok {
			t.Fatalf("no %v view", mode)
		}
		for _, k := range []int{1, 3, 0} {
			if got, want := hits(wv, k), hits(fv, k); got != want {
				t.Fatalf("%v k=%d: golden %s, fresh %s", mode, k, got, want)
			}
		}
		got, err := wv.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fv.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "golden vs fresh "+mode.String(), got, want)
	}

	out := filepath.Join(t.TempDir(), "index")
	if err := warm.SaveIndex(out); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"shard-000.dustidx", "shard-000.ann.dustidx", "shard-001.dustidx", "shard-001.ann.dustidx"} {
		want, err := os.ReadFile(filepath.Join(idxDir, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(out, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("re-saved %s differs from the golden file", name)
		}
	}
}

// TestShardedIndexErrorPaths drives every failure mode of the sharded
// on-disk layout through LoadPipeline and requires typed errors — never a
// panic, never a silently wrong index.
func TestShardedIndexErrorPaths(t *testing.T) {
	b, _ := benchLake(t)
	lakeDir := filepath.Join(t.TempDir(), "lake")
	if err := b.Lake.Save(lakeDir); err != nil {
		t.Fatal(err)
	}
	save := func(t *testing.T) string {
		t.Helper()
		idxDir := filepath.Join(t.TempDir(), "index")
		if err := New(b.Lake, WithShards(2)).SaveIndex(idxDir); err != nil {
			t.Fatal(err)
		}
		return idxDir
	}

	t.Run("truncated-manifest", func(t *testing.T) {
		idxDir := save(t)
		mf := filepath.Join(idxDir, "manifest.dustidx")
		raw, err := os.ReadFile(mf)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(mf, raw[:len(raw)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadPipeline(lakeDir, idxDir); err == nil {
			t.Error("truncated shard manifest loaded without error")
		}
	})

	t.Run("corrupt-manifest", func(t *testing.T) {
		idxDir := save(t)
		mf := filepath.Join(idxDir, "manifest.dustidx")
		raw, err := os.ReadFile(mf)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0x41
		if err := os.WriteFile(mf, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadPipeline(lakeDir, idxDir); err == nil {
			t.Error("corrupted shard manifest loaded without error")
		}
	})

	t.Run("shard-count-mismatch", func(t *testing.T) {
		idxDir := save(t)
		if err := os.Remove(filepath.Join(idxDir, "shard-001.dustidx")); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadPipeline(lakeDir, idxDir); !errors.Is(err, ErrShardLayout) {
			t.Errorf("missing shard file: err = %v, want ErrShardLayout", err)
		}
	})

	t.Run("corrupt-shard-file", func(t *testing.T) {
		idxDir := save(t)
		sf := filepath.Join(idxDir, "shard-000.dustidx")
		raw, err := os.ReadFile(sf)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0x41
		if err := os.WriteFile(sf, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadPipeline(lakeDir, idxDir); err == nil {
			t.Error("corrupted shard file loaded without error")
		}
	})

	t.Run("cross-index-shard-reuse", func(t *testing.T) {
		// A shard file from a DIFFERENT index (another lake's partition)
		// dropped into this one must be rejected by its self-validation:
		// the table set cannot match the manifest's shard map.
		idxDir := save(t)
		other := datagen.Generate("other-lake", datagen.Config{
			Seed: 99, Domains: 3, TablesPerBase: 4, BaseRows: 30, MinRows: 8, MaxRows: 12,
		})
		otherDir := filepath.Join(t.TempDir(), "other-index")
		if err := New(other.Lake, WithShards(2)).SaveIndex(otherDir); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(otherDir, "shard-000.dustidx"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(idxDir, "shard-000.dustidx"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadPipeline(lakeDir, idxDir); !errors.Is(err, search.ErrLakeMismatch) {
			t.Errorf("cross-index shard reuse: err = %v, want ErrLakeMismatch", err)
		}
	})

	t.Run("wrong-kind-shard-file", func(t *testing.T) {
		// The part's own HNSW graph envelope in its searcher slot must fail
		// the codec's kind check, not decode as garbage.
		idxDir := filepath.Join(t.TempDir(), "index")
		if err := New(b.Lake, WithShards(2), WithRetriever(search.ANN)).SaveIndex(idxDir); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(idxDir, "shard-000.ann.dustidx"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(idxDir, "shard-000.dustidx"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadPipeline(lakeDir, idxDir); !errors.Is(err, codec.ErrWrongKind) {
			t.Errorf("wrong-kind shard file: err = %v, want ErrWrongKind", err)
		}
	})

	t.Run("shard-map-names-missing-table", func(t *testing.T) {
		// Deleting a mapped table from the lake CSVs must be caught before
		// any shard file is trusted.
		idxDir := save(t)
		staleDir := filepath.Join(t.TempDir(), "stale-lake")
		if err := b.Lake.Save(staleDir); err != nil {
			t.Fatal(err)
		}
		name := b.Lake.Names()[0]
		if err := os.Remove(filepath.Join(staleDir, name+".csv")); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadPipeline(staleDir, idxDir); !errors.Is(err, search.ErrLakeMismatch) {
			t.Errorf("missing mapped table: err = %v, want ErrLakeMismatch", err)
		}
	})
}

// TestPipelineMoreShardsThanTables pins the empty-shard layout: a lake
// smaller than its shard count must build, answer, save, and warm-start —
// a regression test for the manifest loader rejecting shard counts above
// the table count.
func TestPipelineMoreShardsThanTables(t *testing.T) {
	b, q := benchLake(t)
	small := lake.New("tiny")
	for _, lt := range b.Lake.Tables()[:3] {
		small.MustAdd(lt)
	}
	lakeDir := filepath.Join(t.TempDir(), "lake")
	if err := small.Save(lakeDir); err != nil {
		t.Fatal(err)
	}
	cold := New(small, WithTopTables(2), WithShards(8))
	want, err := cold.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	idxDir := filepath.Join(t.TempDir(), "index")
	if err := cold.SaveIndex(idxDir); err != nil {
		t.Fatal(err)
	}
	warm, err := LoadPipeline(lakeDir, idxDir, WithTopTables(2))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Shards() != 8 {
		t.Fatalf("warm Shards() = %d, want 8", warm.Shards())
	}
	got, err := warm.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "warm with empty shards", got, want)
}

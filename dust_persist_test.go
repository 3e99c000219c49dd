package dust

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dust/internal/codec"
	"dust/internal/datagen"
	"dust/internal/model"
	"dust/internal/search"
	"dust/internal/table"
)

func TestPipelineSaveLoadWithModel(t *testing.T) {
	b, q := benchLake(t)
	lakeDir := filepath.Join(t.TempDir(), "lake")
	if err := b.Lake.Save(lakeDir); err != nil {
		t.Fatal(err)
	}
	pairs := datagen.Pairs(b, 60, 7)
	m := model.Train("dust-tiny", model.NewRoBERTaFeaturizer(), pairs.Train, pairs.Val, model.Config{
		Hidden: 16, OutDim: 8, Epochs: 2, Patience: 2, LR: 0.01, Seed: 1,
	})
	cold := New(b.Lake, WithTupleEncoder(m))
	want, err := cold.Search(q, 8)
	if err != nil {
		t.Fatal(err)
	}

	idxDir := filepath.Join(t.TempDir(), "index")
	if err := cold.SaveIndex(idxDir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(idxDir, "tuple.model")); err != nil {
		t.Fatalf("model file not written: %v", err)
	}
	warm, err := LoadPipeline(lakeDir, idxDir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := warm.Search(q, 8)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "warm vs cold with model", got, want)
}

func TestSaveIndexOverwriteDropsStaleModel(t *testing.T) {
	b, q := benchLake(t)
	lakeDir := filepath.Join(t.TempDir(), "lake")
	if err := b.Lake.Save(lakeDir); err != nil {
		t.Fatal(err)
	}
	pairs := datagen.Pairs(b, 40, 3)
	m := model.Train("dust-tiny", model.NewRoBERTaFeaturizer(), pairs.Train, pairs.Val, model.Config{
		Hidden: 16, OutDim: 8, Epochs: 1, Patience: 1, LR: 0.01, Seed: 1,
	})
	idxDir := filepath.Join(t.TempDir(), "index")
	if err := New(b.Lake, WithTupleEncoder(m)).SaveIndex(idxDir); err != nil {
		t.Fatal(err)
	}

	// Re-saving a model-less pipeline into the same directory must not
	// leave the old tuple.model behind for the new manifest to miss.
	cold := New(b.Lake)
	if err := cold.SaveIndex(idxDir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(idxDir, "tuple.model")); !os.IsNotExist(err) {
		t.Errorf("stale tuple.model survived the overwrite (err = %v)", err)
	}
	warm, err := LoadPipeline(lakeDir, idxDir)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cold.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := warm.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "overwritten index", got, want)
}

func TestLoadPipelineErrors(t *testing.T) {
	b, _ := benchLake(t)
	lakeDir := filepath.Join(t.TempDir(), "lake")
	if err := b.Lake.Save(lakeDir); err != nil {
		t.Fatal(err)
	}

	if _, err := LoadPipeline(lakeDir, t.TempDir()); !errors.Is(err, ErrNoIndex) {
		t.Errorf("empty index dir: err = %v, want ErrNoIndex", err)
	}

	idxDir := filepath.Join(t.TempDir(), "index")
	if err := New(b.Lake).SaveIndex(idxDir); err != nil {
		t.Fatal(err)
	}

	// A lake that gained a table since the save must be rejected.
	staleDir := filepath.Join(t.TempDir(), "stale-lake")
	if err := b.Lake.Save(staleDir); err != nil {
		t.Fatal(err)
	}
	extra := table.New("newcomer", "a", "b")
	extra.MustAppendRow("x", "y")
	if err := extra.SaveCSV(filepath.Join(staleDir, "newcomer.csv")); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPipeline(staleDir, idxDir); !errors.Is(err, search.ErrLakeMismatch) {
		t.Errorf("stale lake: err = %v, want ErrLakeMismatch", err)
	}

	// A corrupted searcher file must be rejected by its checksum.
	raw, err := os.ReadFile(filepath.Join(idxDir, "shard-000.dustidx"))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x20
	if err := os.WriteFile(filepath.Join(idxDir, "shard-000.dustidx"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPipeline(lakeDir, idxDir); err == nil {
		t.Error("corrupted searcher file loaded without error")
	}
}

// TestLoadPipelineRetiredKind loads a hand-built manifest recording the
// "d3l" searcher kind, which earlier builds wrote and this one no longer
// reads. The intact file is no bit rot: the load must fail as
// codec.ErrWrongKind naming the kind, before any part file is looked for.
func TestLoadPipelineRetiredKind(t *testing.T) {
	b, _ := benchLake(t)
	var m codec.Buffer
	m.String("d3l")
	m.String(b.Lake.Name)
	m.Strings(b.Lake.Names())
	m.Bool(false) // no tuple model
	m.Uvarint(0)  // epoch
	m.Bool(false) // exact mode
	m.Bool(false) // no graph files
	m.Uvarint(1)  // one part, holding the whole lake
	m.Strings(b.Lake.Names())
	dir := t.TempDir()
	if err := writeFile(filepath.Join(dir, manifestFile), func(w io.Writer) error {
		return codec.WriteEnvelope(w, codec.KindManifest, ManifestFormatVersion, m.Bytes())
	}); err != nil {
		t.Fatal(err)
	}
	_, err := LoadPipelineLake(b.Lake, dir)
	if !errors.Is(err, codec.ErrWrongKind) || !strings.Contains(err.Error(), "d3l") {
		t.Fatalf("retired-kind manifest: err = %v, want ErrWrongKind naming d3l", err)
	}
}

// TestLoadGoldenMonolithicV4 reads an index directory written by the commit
// before the single on-disk layout — a monolithic Starmie index in ANN mode
// saved as searcher.dustidx + ann.dustidx under a zero-shard v4 manifest
// (testdata/golden_v4_mono, 4 tables) — as one part: it must load, answer
// exactly like a fresh build over the same lake, and re-save in the one
// layout under the shard-000 names. The searcher file re-saves byte for
// byte; ann.dustidx is a version 2 graph and re-saves as version 3, which
// stores adjacency only (internal/search TestLoadANNLegacy pins that load).
func TestLoadGoldenMonolithicV4(t *testing.T) {
	golden := filepath.Join("testdata", "golden_v4_mono")
	lakeDir, idxDir := filepath.Join(golden, "lake"), filepath.Join(golden, "index")
	q, err := table.LoadCSV(filepath.Join(golden, "query.csv"))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := LoadPipeline(lakeDir, idxDir)
	if err != nil {
		t.Fatalf("golden index did not load: %v", err)
	}
	fresh := New(warm.Lake(), WithRetriever(search.ANN))
	if warm.Shards() != 1 || warm.ConfigTag() != fresh.ConfigTag() {
		t.Fatalf("loaded %d shard(s) tagged %q, want 1 tagged %q", warm.Shards(), warm.ConfigTag(), fresh.ConfigTag())
	}
	if warm.IndexBytes().Bytes <= 0 {
		t.Fatalf("saved graph not installed: index footprint %+v", warm.IndexBytes())
	}
	check := func(label string, p *Pipeline) {
		t.Helper()
		for _, mode := range []search.Mode{search.ANN, search.Exact} {
			pv, ok := p.ModeView(mode)
			fv, fok := fresh.ModeView(mode)
			if !ok || !fok {
				t.Fatalf("%s: no %v view", label, mode)
			}
			got, err := pv.Search(q, 5)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fv.Search(q, 5)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, label+" vs fresh "+mode.String(), got, want)
		}
	}
	check("golden", warm)

	out := filepath.Join(t.TempDir(), "index")
	if err := warm.SaveIndex(out); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if got, want := strings.Join(names, " "), "manifest.dustidx shard-000.ann.dustidx shard-000.dustidx"; got != want {
		t.Fatalf("re-save wrote %q, want %q", got, want)
	}
	want, err := os.ReadFile(filepath.Join(idxDir, "searcher.dustidx"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(out, "shard-000.dustidx"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("shard-000.dustidx differs from the golden searcher.dustidx it was loaded from")
	}
	resaved, err := LoadPipeline(lakeDir, out)
	if err != nil {
		t.Fatal(err)
	}
	check("re-saved", resaved)
}

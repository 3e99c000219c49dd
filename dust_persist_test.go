package dust

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
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

	// An earlier build's monolithic files, which the CLIs' rebuild of an
	// older-format directory saves over.
	for _, f := range []string{"searcher.dustidx", "ann.dustidx"} {
		if err := os.WriteFile(filepath.Join(idxDir, f), []byte("DSTIDX"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Re-saving a model-less pipeline into the same directory must not
	// leave the old tuple.model or any other earlier file behind for the
	// new manifest to miss.
	cold := New(b.Lake)
	if err := cold.SaveIndex(idxDir); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"tuple.model", "searcher.dustidx", "ann.dustidx"} {
		if _, err := os.Stat(filepath.Join(idxDir, f)); !os.IsNotExist(err) {
			t.Errorf("stale %s survived the overwrite (err = %v)", f, err)
		}
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

// TestLoadPipelineRetiredKind loads index files in formats earlier builds
// wrote: a manifest naming the retired "d3l" kind, one recording the
// zero-shard monolithic layout, today's manifest under an older header
// version (the CRC covers only the payload), and an older graph envelope.
// Each must fail as codec.ErrVersion, which the CLIs answer with a cold
// build. The directory holds the manifest alone, so a loader that opened a
// part file first would fail as ErrShardLayout instead — as today's
// manifest does.
func TestLoadPipelineRetiredKind(t *testing.T) {
	b, _ := benchLake(t)
	manifest := func(kind string, shards int) []byte {
		var m codec.Buffer
		m.String(kind)
		m.String(b.Lake.Name)
		m.Strings(b.Lake.Names())
		m.Bool(false) // no tuple model
		m.Uvarint(0)  // epoch
		m.Bool(false) // exact mode
		m.Bool(false) // no graph files
		m.Uvarint(uint64(shards))
		for i := 0; i < shards; i++ {
			m.Strings(b.Lake.Names())
		}
		return m.Bytes()
	}
	for _, c := range []struct {
		name    string
		version uint16
		payload []byte
		want    error
	}{
		{"d3l kind", ManifestFormatVersion, manifest("d3l", 1), codec.ErrVersion},
		{"zero shards", ManifestFormatVersion, manifest(kindStarmie, 0), codec.ErrVersion},
		{"header v3", 3, manifest(kindStarmie, 1), codec.ErrVersion},
		{"current", ManifestFormatVersion, manifest(kindStarmie, 1), ErrShardLayout},
	} {
		dir := t.TempDir()
		if err := writeFile(filepath.Join(dir, manifestFile), func(w io.Writer) error {
			return codec.WriteEnvelope(w, codec.KindManifest, c.version, c.payload)
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadPipelineLake(b.Lake, dir); !errors.Is(err, c.want) {
			t.Errorf("%s manifest: err = %v, want %v", c.name, err, c.want)
		}
	}

	var graph bytes.Buffer
	approx := search.NewStarmie(b.Lake)
	if err := approx.SetMode(search.ANN); err != nil {
		t.Fatal(err)
	}
	if err := approx.SaveANN(&graph); err != nil {
		t.Fatal(err)
	}
	v2 := graph.Bytes()
	v2[7], v2[8] = 2, 0
	if err := search.NewStarmie(b.Lake).LoadANN(bytes.NewReader(v2)); !errors.Is(err, codec.ErrVersion) {
		t.Errorf("version 2 graph: err = %v, want ErrVersion", err)
	}
}

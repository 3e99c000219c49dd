package dust

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dust/internal/codec"
	"dust/internal/datagen"
	"dust/internal/lake"
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

	// Earlier builds' files — monolithic ones, the part files of a sharded
	// layout and a part's candidate graph — which the CLIs' rebuild of an
	// older-format directory saves over.
	stale := []string{"searcher.dustidx", "ann.dustidx", "shard-000.dustidx", "shard-003.dustidx", "shard-000.ann.dustidx"}
	for _, f := range stale {
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
	for _, f := range append(stale, "tuple.model") {
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

// TestLoadPipelineErrors drives the failure modes of an index directory
// through LoadPipeline and requires typed errors — never a panic, never a
// silently wrong index: no manifest, a lake that gained or lost a table
// since the save, a damaged manifest, and a searcher file that is missing,
// truncated, bit-flipped, of the wrong kind or another lake's.
func TestLoadPipelineErrors(t *testing.T) {
	b, _ := benchLake(t)
	lakeDir := filepath.Join(t.TempDir(), "lake")
	if err := b.Lake.Save(lakeDir); err != nil {
		t.Fatal(err)
	}

	if _, err := LoadPipeline(lakeDir, t.TempDir()); !errors.Is(err, ErrNoIndex) {
		t.Errorf("empty index dir: err = %v, want ErrNoIndex", err)
	}

	save := func(t *testing.T) string {
		t.Helper()
		idxDir := filepath.Join(t.TempDir(), "index")
		if err := New(b.Lake).SaveIndex(idxDir); err != nil {
			t.Fatal(err)
		}
		return idxDir
	}
	// rewrite replaces the named file of idxDir with edit's result.
	rewrite := func(t *testing.T, idxDir, name string, edit func([]byte) []byte) {
		t.Helper()
		path := filepath.Join(idxDir, name)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, edit(raw), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	flip := func(raw []byte) []byte { raw[len(raw)/2] ^= 0x41; return raw }
	half := func(raw []byte) []byte { return raw[:len(raw)/2] }

	t.Run("stale-lake", func(t *testing.T) {
		// A lake that gained a table since the save must be rejected.
		idxDir := save(t)
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
	})

	t.Run("manifest-table-not-in-lake", func(t *testing.T) {
		// A table deleted from the lake CSVs must be caught before the
		// searcher file is trusted.
		idxDir := save(t)
		staleDir := filepath.Join(t.TempDir(), "stale-lake")
		if err := b.Lake.Save(staleDir); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(filepath.Join(staleDir, b.Lake.Names()[0]+".csv")); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadPipeline(staleDir, idxDir); !errors.Is(err, search.ErrLakeMismatch) {
			t.Errorf("missing table: err = %v, want ErrLakeMismatch", err)
		}
	})

	t.Run("truncated-manifest", func(t *testing.T) {
		idxDir := save(t)
		rewrite(t, idxDir, manifestFile, half)
		if _, err := LoadPipeline(lakeDir, idxDir); !errors.Is(err, codec.ErrTruncated) {
			t.Errorf("truncated manifest: err = %v, want codec.ErrTruncated", err)
		}
	})

	t.Run("corrupt-manifest", func(t *testing.T) {
		idxDir := save(t)
		rewrite(t, idxDir, manifestFile, flip)
		if _, err := LoadPipeline(lakeDir, idxDir); !errors.Is(err, codec.ErrChecksum) {
			t.Errorf("corrupted manifest: err = %v, want codec.ErrChecksum", err)
		}
	})

	t.Run("missing-searcher-file", func(t *testing.T) {
		// HasIndex holds for the directory, so this is no ErrNoIndex: the
		// manifest promised a file that is not there.
		idxDir := save(t)
		if err := os.Remove(filepath.Join(idxDir, searcherFile)); err != nil {
			t.Fatal(err)
		}
		_, err := LoadPipeline(lakeDir, idxDir)
		if !errors.Is(err, codec.ErrCorrupt) || !strings.Contains(fmt.Sprint(err), searcherFile) {
			t.Errorf("missing searcher file: err = %v, want codec.ErrCorrupt naming %s", err, searcherFile)
		}
	})

	t.Run("truncated-searcher-file", func(t *testing.T) {
		idxDir := save(t)
		rewrite(t, idxDir, searcherFile, half)
		if _, err := LoadPipeline(lakeDir, idxDir); !errors.Is(err, codec.ErrTruncated) {
			t.Errorf("truncated searcher file: err = %v, want codec.ErrTruncated", err)
		}
	})

	t.Run("corrupt-searcher-file", func(t *testing.T) {
		// A corrupted searcher file must be rejected by its checksum.
		idxDir := save(t)
		rewrite(t, idxDir, searcherFile, flip)
		if _, err := LoadPipeline(lakeDir, idxDir); !errors.Is(err, codec.ErrChecksum) {
			t.Errorf("corrupted searcher file: err = %v, want codec.ErrChecksum", err)
		}
	})

	t.Run("wrong-kind-searcher-file", func(t *testing.T) {
		// The directory's own manifest envelope in the searcher slot must
		// fail the codec's kind check, not decode as garbage.
		idxDir := save(t)
		manifest, err := os.ReadFile(filepath.Join(idxDir, manifestFile))
		if err != nil {
			t.Fatal(err)
		}
		rewrite(t, idxDir, searcherFile, func([]byte) []byte { return manifest })
		if _, err := LoadPipeline(lakeDir, idxDir); !errors.Is(err, codec.ErrWrongKind) {
			t.Errorf("wrong-kind searcher file: err = %v, want codec.ErrWrongKind", err)
		}
	})

	t.Run("other-index-searcher-file", func(t *testing.T) {
		// A searcher file from a different index (another lake's) dropped
		// into this one must be rejected by its self-validation.
		idxDir := save(t)
		other := datagen.Generate("other-lake", datagen.Config{
			Seed: 99, Domains: 3, TablesPerBase: 4, BaseRows: 30, MinRows: 8, MaxRows: 12,
		})
		otherDir := filepath.Join(t.TempDir(), "other-index")
		if err := New(other.Lake).SaveIndex(otherDir); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(otherDir, searcherFile))
		if err != nil {
			t.Fatal(err)
		}
		rewrite(t, idxDir, searcherFile, func([]byte) []byte { return raw })
		if _, err := LoadPipeline(lakeDir, idxDir); !errors.Is(err, search.ErrLakeMismatch) {
			t.Errorf("another index's searcher file: err = %v, want ErrLakeMismatch", err)
		}
	})
}

// manifestPayload is a manifest payload over l's table set in the layout
// format version v wrote: version 6 records the kind, the lake's name and
// table list, whether a tuple model was saved and the epoch; versions 3 to
// 5 also recorded a shard map of parts parts, each listed here with the
// whole table list; version 4 also recorded the retrieval mode and whether
// graph files were saved.
func manifestPayload(l *lake.Lake, kind string, v uint16, parts int) []byte {
	var m codec.Buffer
	m.String(kind)
	m.String(l.Name)
	m.Strings(l.Names())
	m.Bool(false) // no tuple model
	m.Uvarint(0)  // epoch
	if v == 4 {
		m.Bool(false) // exact mode
		m.Bool(false) // no graph files
	}
	if v < 6 {
		m.Uvarint(uint64(parts))
		for i := 0; i < parts; i++ {
			m.Strings(l.Names())
		}
	}
	return m.Bytes()
}

// manifestEnvelope wraps payload as a manifest file of header version v.
func manifestEnvelope(t testing.TB, v uint16, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := codec.WriteEnvelope(&buf, codec.KindManifest, v, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadPipelineRetiredKind loads manifests in formats earlier builds
// wrote: one naming the retired "d3l" kind, one recording the zero-shard
// monolithic layout, today's payload under an older header version (the
// CRC covers only the payload), a version 4 manifest, which also recorded
// the retrieval mode and whether graph files were saved, and a version 5
// one with its shard map. Each must fail as codec.ErrVersion, which the
// CLIs answer with a cold build. The directory holds the manifest alone,
// so a loader that opened the searcher file first would fail as a missing
// file instead — as today's manifest does.
func TestLoadPipelineRetiredKind(t *testing.T) {
	b, _ := benchLake(t)
	for _, c := range []struct {
		name    string
		version uint16
		payload []byte
		want    error
	}{
		{"d3l kind", ManifestFormatVersion, manifestPayload(b.Lake, "d3l", 6, 0), codec.ErrVersion},
		{"zero shards", 5, manifestPayload(b.Lake, kindStarmie, 5, 0), codec.ErrVersion},
		{"header v3", 3, manifestPayload(b.Lake, kindStarmie, 6, 0), codec.ErrVersion},
		{"header v4", 4, manifestPayload(b.Lake, kindStarmie, 4, 1), codec.ErrVersion},
		{"header v5", 5, manifestPayload(b.Lake, kindStarmie, 5, 1), codec.ErrVersion},
		{"current", ManifestFormatVersion, manifestPayload(b.Lake, kindStarmie, 6, 0), codec.ErrCorrupt},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestFile), manifestEnvelope(t, c.version, c.payload), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadPipelineLake(b.Lake, dir); !errors.Is(err, c.want) {
			t.Errorf("%s manifest: err = %v, want %v", c.name, err, c.want)
		}
	}
}

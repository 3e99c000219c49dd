package dust

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

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
	onlyIndexFile(t, idxDir)
	// The searcher's envelope follows the manifest byte for byte as
	// Starmie.Save writes it, so its golden file and loader hold.
	var saved bytes.Buffer
	if err := cold.searcher.(*search.Starmie).Save(&saved); err != nil {
		t.Fatal(err)
	}
	if _, got := splitIndex(t, readIndex(t, idxDir)); !bytes.Equal(got, saved.Bytes()) {
		t.Errorf("the saved searcher envelope (%d bytes) is not Starmie.Save's (%d bytes)", len(got), saved.Len())
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

	// The files of the directory layout version 6 and earlier wrote — its
	// manifest, searcher file and model, a sharded layout's part files and a
	// part's candidate graph — which the CLIs' cold start saves over.
	stale := []string{"manifest.dustidx", "starmie.dustidx", "tuple.model", "searcher.dustidx",
		"ann.dustidx", "shard-000.dustidx", "shard-003.dustidx", "shard-000.ann.dustidx"}
	for _, f := range stale {
		if err := os.WriteFile(filepath.Join(idxDir, f), []byte("DSTIDX"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Re-saving a model-less pipeline into the same directory leaves only
	// the index file: no earlier file, and no model in the new save.
	cold := New(b.Lake)
	if err := cold.SaveIndex(idxDir); err != nil {
		t.Fatal(err)
	}
	onlyIndexFile(t, idxDir)
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
	if _, ok := warm.tupleEnc.(*model.Model); ok {
		t.Error("a model-less save loaded with the earlier save's model")
	}
}

// TestSaveIndexKeepsLastGoodIndex fails and interrupts saves over a good
// index: a searcher with no persistent form, a searcher whose lake gained a
// table behind its back, a temporary path taken by a directory, and a
// truncated temporary file left by a save that died mid-write. Every failed
// save returns an error and leaves the last good index byte-identical and
// loadable; a save after an interrupted one succeeds.
func TestSaveIndexKeepsLastGoodIndex(t *testing.T) {
	b, q := benchLake(t)
	good := New(b.Lake)
	want, err := good.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	save := func(t *testing.T) (string, []byte) {
		t.Helper()
		dir := t.TempDir()
		if err := good.SaveIndex(dir); err != nil {
			t.Fatal(err)
		}
		return dir, readIndex(t, dir)
	}
	// intact requires dir to hold raw as its index, answering like good.
	intact := func(t *testing.T, dir string, raw []byte) {
		t.Helper()
		if !bytes.Equal(readIndex(t, dir), raw) {
			t.Fatal("the last good index changed")
		}
		p, err := LoadPipelineLake(b.Lake, dir)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "last good index", got, want)
	}

	t.Run("searcher-without-persistent-form", func(t *testing.T) {
		dir, raw := save(t)
		wrapped := New(b.Lake, WithSearcher(wrappedSearcher{good.searcher}))
		if err := wrapped.SaveIndex(dir); err == nil {
			t.Fatal("a wrapped searcher saved")
		}
		intact(t, dir, raw)
		onlyIndexFile(t, dir)
	})

	t.Run("searcher-save-fails", func(t *testing.T) {
		dir, raw := save(t)
		l := b.Lake.Clone()
		p := New(l)
		extra := table.New("unindexed", "a", "b")
		extra.MustAppendRow("x", "y")
		if err := l.Add(extra); err != nil {
			t.Fatal(err)
		}
		if err := p.SaveIndex(dir); !errors.Is(err, search.ErrLakeMismatch) {
			t.Fatalf("save over an unindexed table: err = %v, want ErrLakeMismatch", err)
		}
		intact(t, dir, raw)
		onlyIndexFile(t, dir)
	})

	t.Run("temp-path-is-a-directory", func(t *testing.T) {
		dir, raw := save(t)
		if err := os.Mkdir(filepath.Join(dir, indexFile+".tmp"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := good.SaveIndex(dir); err == nil {
			t.Fatal("saved over a directory at the temporary path")
		}
		intact(t, dir, raw)
	})

	t.Run("truncated-temp-file", func(t *testing.T) {
		dir, raw := save(t)
		if err := os.WriteFile(filepath.Join(dir, indexFile+".tmp"), raw[:len(raw)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		intact(t, dir, raw)
		if err := good.SaveIndex(dir); err != nil {
			t.Fatal(err)
		}
		onlyIndexFile(t, dir)
		intact(t, dir, raw)
	})
}

// wrappedSearcher is a searcher SaveIndex cannot persist: it is not a
// *search.Starmie, though it wraps one.
type wrappedSearcher struct{ search.Searcher }

// readIndex returns the index file saved under dir.
func readIndex(t *testing.T, dir string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, indexFile))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// splitIndex cuts a saved index file into its manifest envelope and the
// searcher envelope that follows it.
func splitIndex(t testing.TB, raw []byte) (manifest, searcher []byte) {
	t.Helper()
	r := bytes.NewReader(raw)
	err := codec.ReadEnvelope(r, codec.KindManifest, ManifestFormatVersion, func(d *codec.Decoder) error {
		d.Uvarint()
		if d.Bool() {
			_ = d.String()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	n := len(raw) - r.Len()
	return raw[:n:n], raw[n:]
}

// onlyIndexFile requires dir to list exactly the index file.
func onlyIndexFile(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != indexFile {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("%s lists %v, want only %s", dir, names, indexFile)
	}
}

// TestLoadPipelineErrors drives the failure modes of a saved index
// through LoadPipeline and requires typed errors — never a panic, never a
// silently wrong index: no index file, a lake that gained or lost a table
// since the save, a damaged manifest, and a searcher envelope that is
// missing, truncated, bit-flipped, of the wrong kind or another lake's.
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
	// rewrite replaces idxDir's index file with edit's result over its
	// manifest and searcher envelopes.
	rewrite := func(t *testing.T, idxDir string, edit func(manifest, searcher []byte) []byte) {
		t.Helper()
		manifest, searcher := splitIndex(t, readIndex(t, idxDir))
		if err := os.WriteFile(filepath.Join(idxDir, indexFile), edit(manifest, searcher), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	other := datagen.Generate("other-lake", datagen.Config{
		Seed: 99, Domains: 3, TablesPerBase: 4, BaseRows: 30, MinRows: 8, MaxRows: 12,
	})
	otherDir := t.TempDir()
	if err := New(other.Lake).SaveIndex(otherDir); err != nil {
		t.Fatal(err)
	}
	_, otherSearcher := splitIndex(t, readIndex(t, otherDir))
	staleLake := func(t *testing.T, edit func(dir string)) string {
		t.Helper()
		dir := filepath.Join(t.TempDir(), "stale-lake")
		if err := b.Lake.Save(dir); err != nil {
			t.Fatal(err)
		}
		edit(dir)
		return dir
	}

	for _, c := range []struct {
		name   string
		lake   func(t *testing.T) string
		edit   func(manifest, searcher []byte) []byte
		want   error
		reason string
	}{
		{"stale-lake", func(t *testing.T) string {
			return staleLake(t, func(dir string) {
				extra := table.New("newcomer", "a", "b")
				extra.MustAppendRow("x", "y")
				if err := extra.SaveCSV(filepath.Join(dir, "newcomer.csv")); err != nil {
					t.Fatal(err)
				}
			})
		}, nil, search.ErrLakeMismatch, "the lake gained a table since the save"},
		{"indexed-table-not-in-lake", func(t *testing.T) string {
			return staleLake(t, func(dir string) {
				if err := os.Remove(filepath.Join(dir, b.Lake.Names()[0]+".csv")); err != nil {
					t.Fatal(err)
				}
			})
		}, nil, search.ErrLakeMismatch, "a saved table was deleted from the lake CSVs"},
		{"truncated-manifest", nil, func(m, _ []byte) []byte { return m[:len(m)/2] },
			codec.ErrTruncated, "the file ends inside the manifest"},
		{"corrupt-manifest", nil, func(m, s []byte) []byte {
			m[17] ^= 0x41 // the first payload byte
			return append(m, s...)
		}, codec.ErrChecksum, "a flipped manifest payload bit"},
		{"missing-searcher-file", nil, func(m, _ []byte) []byte { return m },
			codec.ErrBadMagic, "the file ends after the manifest"},
		{"truncated-searcher-file", nil, func(m, s []byte) []byte { return append(m, s[:len(s)/2]...) },
			codec.ErrTruncated, "the file ends inside the searcher envelope"},
		{"corrupt-searcher-file", nil, func(m, s []byte) []byte {
			s[len(s)/2] ^= 0x41
			return append(m, s...)
		}, codec.ErrChecksum, "a flipped searcher payload bit"},
		{"wrong-kind-searcher-file", nil, func(m, _ []byte) []byte { return append(m, m...) },
			codec.ErrWrongKind, "a second manifest where the searcher envelope belongs"},
		{"other-index-searcher-file", nil, func(m, _ []byte) []byte { return append(m, otherSearcher...) },
			search.ErrLakeMismatch, "another lake's searcher envelope"},
	} {
		t.Run(c.name, func(t *testing.T) {
			idxDir, dir := save(t), lakeDir
			if c.edit != nil {
				rewrite(t, idxDir, c.edit)
			}
			if c.lake != nil {
				dir = c.lake(t)
			}
			if _, err := LoadPipeline(dir, idxDir); !errors.Is(err, c.want) {
				t.Errorf("%s: err = %v, want %v", c.reason, err, c.want)
			}
		})
	}
}

// manifestEnvelope is an empty manifest envelope of header version v.
func manifestEnvelope(t testing.TB, v uint16) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := codec.WriteEnvelope(&buf, codec.KindManifest, v, func(*codec.Encoder) error { return nil }); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// withVersion returns raw with its first envelope's header version set to
// v; the CRC covers only the payload, so the result is otherwise valid.
func withVersion(raw []byte, v uint16) []byte {
	out := bytes.Clone(raw)
	binary.LittleEndian.PutUint16(out[7:], v)
	return out
}

// TestLoadPipelineRetiredKind loads what earlier builds saved. A directory
// of the layout versions 3 to 6 wrote holds a manifest.dustidx and no index
// file, so it reads as ErrNoIndex and the CLIs cold-start and re-save. An
// index file under any header version but today's fails as codec.ErrVersion,
// which the CLIs answer the same way.
func TestLoadPipelineRetiredKind(t *testing.T) {
	b, _ := benchLake(t)
	for v := uint16(3); v <= 6; v++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "manifest.dustidx"), manifestEnvelope(t, v), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadPipelineLake(b.Lake, dir); HasIndex(dir) || !errors.Is(err, ErrNoIndex) {
			t.Errorf("a version %d directory: HasIndex = %v, err = %v, want ErrNoIndex", v, HasIndex(dir), err)
		}
	}

	saved := t.TempDir()
	if err := New(b.Lake).SaveIndex(saved); err != nil {
		t.Fatal(err)
	}
	raw := readIndex(t, saved)
	for _, v := range []uint16{0, 1, 5, 6, ManifestFormatVersion + 1, 0xffff} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, indexFile), withVersion(raw, v), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadPipelineLake(b.Lake, dir); !errors.Is(err, codec.ErrVersion) {
			t.Errorf("an index file of header version %d: err = %v, want codec.ErrVersion", v, err)
		}
	}
}

// TestOlderSearcherPayloadRebuilds boots from an index file whose manifest
// is today's and whose searcher envelope declares format version 1, the
// layout that still held the lake-wide corpus. The loader refuses it as
// codec.ErrVersion on its header alone; Boot logs the rebuild, answers as a
// cold start does, and re-saves an index that loads.
func TestOlderSearcherPayloadRebuilds(t *testing.T) {
	b, q := benchLake(t)
	dir := t.TempDir()
	cold := New(b.Lake)
	if err := cold.SaveIndex(dir); err != nil {
		t.Fatal(err)
	}
	manifest, searcher := splitIndex(t, readIndex(t, dir))
	if err := os.WriteFile(filepath.Join(dir, indexFile), append(manifest, withVersion(searcher, 1)...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPipelineLake(b.Lake, dir); !errors.Is(err, codec.ErrVersion) {
		t.Fatalf("a version 1 searcher payload: err = %v, want codec.ErrVersion", err)
	}
	var log bytes.Buffer
	booted, err := Boot(&log, b.Lake, dir, "", false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "rebuilding index in "+dir) {
		t.Errorf("Boot logged %q, want a rebuild", log.String())
	}
	got, err := booted.Search(q, 8)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cold.Search(q, 8)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "booted vs cold", got, want)
	if _, err := LoadPipelineLake(b.Lake, dir); err != nil {
		t.Errorf("the index Boot re-saved does not load: %v", err)
	}
}

// TestIndexFileAllocs bounds what saving and loading an index allocate by
// the size of its file: both stream, so neither holds the payload whole. A
// save allocates its buffer, a load the index it fills (the embedding
// blocks, which are most of the file, and their codes). The blocks and
// codes are mapped outside the
// heap (search.RegionBytes), so what is counted is the heap's allocations
// plus the growth of the mapped bytes.
func TestIndexFileAllocs(t *testing.T) {
	spec, err := datagen.ParseLakeSpec("tables=1000,rows=12,seed=7,zipf=1.5,parents=11,fk=0.3,null=0.01")
	if err != nil {
		t.Fatal(err)
	}
	l := spec.Generate()
	p := New(l)
	dir := t.TempDir()
	allocated := func(fn func() error) float64 {
		t.Helper()
		var before, after runtime.MemStats
		// Collect until every dropped region is unmapped, so that none is
		// released while fn runs and taken off its growth.
		for still, last := 0, int64(-1); still < 3; {
			runtime.GC()
			time.Sleep(time.Millisecond)
			if n := search.RegionBytes(); n != last {
				still, last = 0, n
			} else {
				still++
			}
		}
		mapped := search.RegionBytes()
		runtime.ReadMemStats(&before)
		if err := fn(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) + float64(search.RegionBytes()-mapped)
	}
	save := allocated(func() error { return p.SaveIndex(dir) })
	size := float64(len(readIndex(t, dir)))
	load := allocated(func() error {
		_, err := LoadPipelineLake(l, dir)
		return err
	})
	if save > size/4 {
		t.Errorf("SaveIndex allocated %.0f bytes, %.2f× its %.0f-byte file; want at most 0.25×", save, save/size, size)
	}
	if load > size*3/2 {
		t.Errorf("LoadPipelineLake allocated %.0f bytes, %.2f× its %.0f-byte file; want at most 1.5×", load, load/size, size)
	}
	t.Logf("file %.0f bytes: save %.3f×, load %.3f×", size, save/size, load/size)
}

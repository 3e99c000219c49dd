package dust

import (
	"os"
	"path/filepath"
	"testing"

	"dust/internal/datagen"
	"dust/internal/search"
)

// FuzzLoadManifest throws arbitrary bytes at the index-directory manifest
// loader — the shard-map extension of the FuzzLoadIndex family: the
// manifest sits over valid component files (the two shard files of the
// last save, so a mutated manifest has plausible files to chase) and every
// input must return a usable pipeline or a typed error, never panic.
// Seeds are the real manifests of an unsharded, a sharded, and a sharded
// ANN save.
func FuzzLoadManifest(f *testing.F) {
	b := datagen.Generate("manifest-fuzz", datagen.Config{
		Seed: 23, Domains: 2, TablesPerBase: 3, BaseRows: 16, MinRows: 5, MaxRows: 8,
	})
	dir := f.TempDir()
	manifest := filepath.Join(dir, "manifest.dustidx")
	seed := func(p *Pipeline) {
		f.Helper()
		if err := p.SaveIndex(dir); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(manifest)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// Each save retires the previous one's files: the last lays down the
	// shard files the fuzzed manifests sit over.
	seed(New(b.Lake))
	seed(New(b.Lake, WithShards(2)))
	seed(New(b.Lake, WithShards(2), WithRetriever(search.ANN)))
	f.Add([]byte{})
	f.Add([]byte("DSTIDXM\x04\x00\xff\xff\xff\xff\xff\xff\xff\xff"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(manifest, data, 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := LoadPipelineLake(b.Lake, dir)
		if err != nil {
			return
		}
		// An accepted manifest must yield a pipeline that can serve a
		// query.
		if _, err := p.Search(b.Queries[0], 3); err != nil {
			t.Logf("loaded pipeline failed to search: %v", err)
		}
	})
}

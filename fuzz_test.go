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
// manifest sits over valid component files (two shard files and a
// monolithic searcher file side by side, so whichever layout the mutated
// manifest claims, a plausible file exists for the loader to chase) and
// every input must return a usable pipeline or a typed error, never panic.
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
	// Order matters: each save retires the previous one's files, so save
	// the monolithic index first and let the final sharded save lay down
	// the shard files, then put the monolithic searcher file beside them
	// under its legacy name for manifests that mutate to the zero-shard
	// (pre-single-layout) form.
	seed(New(b.Lake))
	mono, err := os.ReadFile(filepath.Join(dir, "shard-000.dustidx"))
	if err != nil {
		f.Fatal(err)
	}
	seed(New(b.Lake, WithShards(2)))
	seed(New(b.Lake, WithShards(2), WithRetriever(search.ANN)))
	if err := os.WriteFile(filepath.Join(dir, "searcher.dustidx"), mono, 0o644); err != nil {
		f.Fatal(err)
	}
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

package dust

import (
	"os"
	"path/filepath"
	"testing"

	"dust/internal/datagen"
)

// FuzzLoadManifest throws arbitrary bytes at the index-directory manifest
// loader — the directory-level member of the FuzzLoadIndex family: the
// manifest sits over valid component files (the searcher file of a real
// save, so a mutated manifest has a plausible file to chase) and every
// input must return a usable pipeline or a typed error, never panic.
// Seeds are the real manifest of a save, the version 5 manifests an
// earlier build wrote for a one- and a two-part layout of the same lake,
// an empty file and a header with a runaway length.
func FuzzLoadManifest(f *testing.F) {
	b := datagen.Generate("manifest-fuzz", datagen.Config{
		Seed: 23, Domains: 2, TablesPerBase: 3, BaseRows: 16, MinRows: 5, MaxRows: 8,
	})
	dir := f.TempDir()
	manifest := filepath.Join(dir, manifestFile)
	if err := New(b.Lake).SaveIndex(dir); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(manifest)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(manifestEnvelope(f, 5, manifestPayload(b.Lake, kindStarmie, 5, 2)))
	f.Add(manifestEnvelope(f, 5, manifestPayload(b.Lake, kindStarmie, 5, 1)))
	f.Add([]byte{})
	f.Add([]byte("DSTIDXM\x06\x00\xff\xff\xff\xff\xff\xff\xff\xff"))

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

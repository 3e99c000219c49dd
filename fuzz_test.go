package dust

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"dust/internal/codec"
	"dust/internal/datagen"
	"dust/internal/embed"
	"dust/internal/model"
	"dust/internal/search"
)

// FuzzLoadManifest throws arbitrary bytes at the saved-index loader — the
// pipeline-level member of the FuzzLoadIndex family: the input is the whole
// index file, manifest and searcher envelope, and every input must return a
// usable pipeline or a typed error, never panic. Seeds are a save with a
// tuple model, a save without one, the latter under header version 6, an
// empty file, a header with a runaway length, and a valid manifest followed
// by a searcher envelope with a valid CRC whose payload declares 2^22
// document frequencies and ends, so mutations start past both frames.
func FuzzLoadManifest(f *testing.F) {
	b := datagen.Generate("manifest-fuzz", datagen.Config{
		Seed: 23, Domains: 2, TablesPerBase: 3, BaseRows: 16, MinRows: 5, MaxRows: 8,
	})
	pairs := datagen.Pairs(b, 20, 3)
	m := model.Train("dust-tiny", model.NewRoBERTaFeaturizer(), pairs.Train, pairs.Val, model.Config{
		Hidden: 8, OutDim: 4, Epochs: 1, Patience: 1, LR: 0.01, Seed: 1,
	})
	dir := f.TempDir()
	save := func(p *Pipeline) []byte {
		if err := p.SaveIndex(dir); err != nil {
			f.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, indexFile))
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	f.Add(save(New(b.Lake, WithTupleEncoder(m))))
	plain := save(New(b.Lake))
	f.Add(plain)
	f.Add(withVersion(plain, 6))
	f.Add([]byte{})
	f.Add([]byte("DSTIDXM\x07\x00\xff\xff\xff\xff\xff\xff\xff\xff"))
	manifest, _ := splitIndex(f, plain)
	f.Add(append(bytes.Clone(manifest), hostileSearcher(f, 1<<22)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(filepath.Join(dir, indexFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := LoadPipelineLake(b.Lake, dir)
		if err != nil {
			return
		}
		// An accepted index must yield a pipeline that can serve a query.
		if _, err := p.Search(b.Queries[0], 3); err != nil {
			t.Logf("loaded pipeline failed to search: %v", err)
		}
	})
}

// hostileSearcher is a searcher envelope with a valid CRC whose payload
// declares count document frequencies and ends there.
func hostileSearcher(t testing.TB, count int) []byte {
	t.Helper()
	enc := embed.NewStarmie()
	var buf bytes.Buffer
	err := codec.WriteEnvelope(&buf, codec.KindStarmie, search.StarmieFormatVersion, func(e *codec.Encoder) error {
		e.String(enc.Name())
		e.String(enc.Model.Fingerprint())
		e.Int(enc.Dim())
		e.Float64(enc.ContextWeight)
		e.Float64(0)
		e.Int(1)     // documents
		e.Int(count) // document frequencies
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

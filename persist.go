package dust

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"dust/internal/codec"
	"dust/internal/lake"
	"dust/internal/model"
	"dust/internal/search"
	"dust/internal/table"
)

// ManifestFormatVersion is the index-directory manifest payload version.
// An index directory is a cache rebuildable from its lake, so the loader
// reads this version alone: any other — or a manifest naming a kind other
// than "starmie" or zero shards, layouts earlier builds wrote — fails with
// codec.ErrVersion, which the CLIs answer with a cold build and a fresh
// save.
const ManifestFormatVersion uint16 = 5

// Index-directory layout. Every index is a set of n >= 1 parts (a
// monolithic index is its own single part): part i stores its searcher as
// shard-NNN.dustidx, with the shard map recorded in the manifest. The
// manifest is written last so a directory with a partial save (crash
// mid-write) is treated as having no index at all.
const (
	manifestFile = "manifest.dustidx"
	modelFile    = "tuple.model"
)

// kindStarmie is the searcher kind every manifest records: each part is a
// Starmie index.
const kindStarmie = "starmie"

// shardSearcherFile names part i's searcher index file.
func shardSearcherFile(i int) string { return fmt.Sprintf("shard-%03d.dustidx", i) }

// Typed failures of the pipeline persistence surface.
var (
	// ErrNoIndex reports a LoadPipeline directory without a manifest.
	ErrNoIndex = errors.New("dust: no saved index in directory")
	// ErrShardLayout reports an index directory whose shard files do not
	// match the manifest's recorded shard map — most often a shard count
	// mismatch (files missing after a partial copy, or a manifest from a
	// different save).
	ErrShardLayout = errors.New("dust: shard files do not match the saved shard map")
)

// Lake returns the data lake this pipeline searches.
func (p *Pipeline) Lake() *lake.Lake { return p.lake }

// Epoch returns the pipeline's index mutation epoch: 0 for a freshly built
// pipeline (or the saved epoch for one warm-started from an index
// directory), incremented by every successful AddTable/RemoveTable and
// carried over by Clone. Two pipeline states with different epochs may rank
// queries differently, so serving layers key their result caches by it.
func (p *Pipeline) Epoch() uint64 { return p.epoch }

// Clone returns an independently mutable copy of the pipeline: the lake and
// the searcher's mutable containers are copied while the heavy immutable
// index state (the embedding blocks) is shared, so the clone costs
// O(tables), not O(index). AddTable/RemoveTable on the clone leave the
// original — and any queries in flight against it — untouched, which is
// what lets a serving layer apply mutations on a copy-on-write shadow and
// atomically swap it in.
func (p *Pipeline) Clone() *Pipeline {
	c := *p
	c.lake = p.lake.Clone()
	c.searcher = p.searcher.CloneWithLake(c.lake)
	return &c
}

// AddTable adds a table to the lake and, via the searcher's delta update,
// to the search index — no rebuild. Query results afterwards are
// bit-identical to a pipeline constructed from scratch over the grown lake.
func (p *Pipeline) AddTable(t *table.Table) error {
	if err := p.lake.Add(t); err != nil {
		return err
	}
	if err := p.searcher.AddTable(t); err != nil {
		// Keep lake and index in sync: a table the index refused must not
		// linger in the lake (the lake Add above was this call's own).
		_ = p.lake.Remove(t.Name)
		return err
	}
	p.epoch++
	return nil
}

// RemoveTable removes a table from the search index and the lake, costing
// O(delta) instead of a rebuild.
func (p *Pipeline) RemoveTable(name string) error {
	// Reject up front a table the lake does not hold, before the index is
	// touched: not every searcher consults the lake on removal, and a
	// half-applied removal would leave the index and lake disagreeing.
	if p.lake.Get(name) == nil {
		return fmt.Errorf("dust: RemoveTable: %w: %q", lake.ErrUnknownTable, name)
	}
	// Searchers un-index while the table is still in the lake (Starmie has
	// to retire its columns from the corpus).
	if err := p.searcher.RemoveTable(name); err != nil {
		return err
	}
	// The index has mutated: bump the epoch before the lake sync so an
	// epoch-keyed cache can never conflate the new index state with the
	// old, even if the (practically impossible, membership was checked
	// above) lake removal fails.
	p.epoch++
	return p.lake.Remove(name)
}

// savePart writes part i of an index under dir: its Starmie searcher file.
func savePart(dir string, i int, part search.Searcher) error {
	s, ok := part.(*search.Starmie)
	if !ok {
		return fmt.Errorf("%T has no persistent form", part)
	}
	return writeFile(filepath.Join(dir, shardSearcherFile(i)), s.Save)
}

// loadPart reads part i written by savePart under dir and binds it to sl; a
// missing file breaks the manifest's shard map.
func loadPart(dir string, i int, sl *lake.Lake) (*search.Starmie, error) {
	name := shardSearcherFile(i)
	f, err := os.Open(filepath.Join(dir, name))
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("missing %s: %w", name, ErrShardLayout)
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return search.LoadStarmie(f, sl)
}

// SaveIndex persists the pipeline's index state under dir so a later
// LoadPipeline can skip the cold rebuild: the searcher index (versioned,
// checksummed; one file per part), the fine-tuned tuple model when one is
// installed, and a manifest recording the searcher kind, the lake's table
// set, and the shard map.
func (p *Pipeline) SaveIndex(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// Retire any existing manifest before touching component files: the
	// manifest is the marker of a complete save, so a crash mid-overwrite
	// must leave a directory that reads as "no index", never as the old
	// manifest over new component files.
	if err := os.Remove(filepath.Join(dir, manifestFile)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("dust: save index: %w", err)
	}
	// Drop every component file of an earlier save — every index file,
	// whichever build wrote it, and the model — so the directory mirrors
	// exactly this save: a layout change must never leave orphans for a
	// later load to trip over.
	stale, _ := filepath.Glob(filepath.Join(dir, "*.dustidx"))
	for _, f := range append(stale, filepath.Join(dir, modelFile)) {
		if err := os.Remove(f); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("dust: save index: %w", err)
		}
	}

	parts := p.searcher.Parts()
	for i, part := range parts {
		if err := savePart(dir, i, part); err != nil {
			return fmt.Errorf("dust: save shard %d: %w", i, err)
		}
	}
	m, hasModel := p.tupleEnc.(*model.Model)
	if hasModel {
		if err := writeFile(filepath.Join(dir, modelFile), m.Save); err != nil {
			return fmt.Errorf("dust: save model: %w", err)
		}
	}

	var b codec.Buffer
	b.String(kindStarmie)
	b.String(p.lake.Name)
	b.Strings(p.lake.Names())
	b.Bool(hasModel)
	b.Uvarint(p.epoch)
	// The shard map. n >= 1 promises shard-000..shard-(n-1) files, each
	// covering the recorded table list (in sub-lake iteration order, which
	// the loaders rebuild the partition in).
	b.Uvarint(uint64(len(parts)))
	for _, part := range parts {
		b.Strings(part.Lake().Names())
	}
	if err := writeFile(filepath.Join(dir, manifestFile), func(f io.Writer) error {
		return codec.WriteEnvelope(f, codec.KindManifest, ManifestFormatVersion, b.Bytes())
	}); err != nil {
		return fmt.Errorf("dust: save manifest: %w", err)
	}
	return nil
}

// HasIndex reports whether dir holds a complete saved index (a manifest is
// only written after every component file).
func HasIndex(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestFile))
	return err == nil
}

// LoadPipeline reconstructs a pipeline from lake CSVs plus an index
// directory written by SaveIndex, skipping the cold index build. The lake
// must hold exactly the table set recorded in the manifest (the loaders
// also self-validate); options apply on top of the restored searcher and
// model, so e.g. WithWorkers re-bounds query parallelism as usual.
func LoadPipeline(lakeDir, indexDir string, opts ...Option) (*Pipeline, error) {
	l, err := lake.Load(lakeDir)
	if err != nil {
		return nil, fmt.Errorf("dust: load lake: %w", err)
	}
	return LoadPipelineLake(l, indexDir, opts...)
}

// LoadPipelineLake is LoadPipeline for a lake already in memory.
func LoadPipelineLake(l *lake.Lake, indexDir string, opts ...Option) (*Pipeline, error) {
	mf, err := os.Open(filepath.Join(indexDir, manifestFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("dust: %s: %w", indexDir, ErrNoIndex)
		}
		return nil, err
	}
	payload, err := codec.ReadEnvelope(mf, codec.KindManifest, ManifestFormatVersion)
	mf.Close()
	if err != nil {
		return nil, fmt.Errorf("dust: load manifest: %w", err)
	}
	sc := codec.NewScanner(payload)
	kind := sc.String()
	_ = sc.String() // saved lake name; informational only
	names := sc.Strings()
	hasModel := sc.Bool()
	epoch := sc.Uvarint()
	numShards := sc.Uvarint()
	// A hostile manifest could declare an absurd shard count; cap it well
	// above any real deployment. Empty shards are legal (a lake smaller
	// than its shard count saves and loads fine), so the cap must not
	// depend on the table count.
	const maxShards = 1 << 16
	if sc.Err() == nil && numShards > maxShards {
		return nil, fmt.Errorf("dust: load manifest: %d shards exceeds the %d cap: %w",
			numShards, maxShards, codec.ErrCorrupt)
	}
	var shardTables [][]string
	for i := uint64(0); i < numShards && sc.Err() == nil; i++ {
		shardTables = append(shardTables, sc.Strings())
	}
	if err := sc.Finish(); err != nil {
		return nil, fmt.Errorf("dust: load manifest: %w", err)
	}
	// Earlier builds wrote a "d3l" kind and a zero-shard monolithic layout;
	// neither is an index this build reads.
	if kind != kindStarmie || numShards == 0 {
		return nil, fmt.Errorf("dust: load manifest: a %q index in %d shards is an earlier build's layout: %w",
			kind, numShards, codec.ErrVersion)
	}
	if len(names) != l.Len() {
		return nil, fmt.Errorf("dust: index holds %d tables, lake holds %d: %w",
			len(names), l.Len(), search.ErrLakeMismatch)
	}
	for _, name := range names {
		if l.Get(name) == nil {
			return nil, fmt.Errorf("dust: indexed table %q not in lake: %w", name, search.ErrLakeMismatch)
		}
	}

	lakes, err := partLakes(l, shardTables)
	if err != nil {
		return nil, err
	}
	parts := make([]*search.Starmie, len(lakes))
	for i, sl := range lakes {
		parts[i], err = loadPart(indexDir, i, sl)
		if err != nil {
			return nil, fmt.Errorf("dust: load shard %d/%d: %w", i, len(lakes), err)
		}
	}
	searcher, err := search.Join(l, parts)
	if err != nil {
		// Keeps search.ErrLayoutMismatch reachable through errors.Is.
		return nil, fmt.Errorf("dust: load index: %w", err)
	}

	loaded := []Option{WithSearcher(searcher)}
	if hasModel {
		f, err := os.Open(filepath.Join(indexDir, modelFile))
		if err != nil {
			return nil, fmt.Errorf("dust: load model: %w", err)
		}
		m, err := model.Load(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("dust: load model: %w", err)
		}
		loaded = append(loaded, WithTupleEncoder(m))
	}
	p := New(l, append(loaded, opts...)...)
	// Resume the saved mutation epoch so serving-layer caches keyed by
	// (fingerprint, epoch) stay distinct across a save/load cycle.
	p.epoch = epoch
	return p, nil
}

// partLakes rebuilds each part's lake from the manifest's shard map, tables
// in their saved order (which the part loaders self-validate against:
// encoder fingerprint, table set, checksums). The single part of a
// monolithic index is bound to l itself, as a monolithic searcher always
// is, so pipeline mutations — which add to the lake first — reach it.
func partLakes(l *lake.Lake, shardTables [][]string) ([]*lake.Lake, error) {
	if len(shardTables) == 1 && len(shardTables[0]) == l.Len() {
		return []*lake.Lake{l}, nil
	}
	lakes := make([]*lake.Lake, len(shardTables))
	for i, names := range shardTables {
		lakes[i] = lake.New(fmt.Sprintf("%s#%d", l.Name, i))
		for _, name := range names {
			t := l.Get(name)
			if t == nil {
				return nil, fmt.Errorf("dust: shard %d table %q not in lake: %w", i, name, search.ErrLakeMismatch)
			}
			if err := lakes[i].Add(t); err != nil {
				return nil, fmt.Errorf("dust: shard %d map: %v: %w", i, err, codec.ErrCorrupt)
			}
		}
	}
	return lakes, nil
}

// writeFile creates path, streams content through write, and closes it,
// reporting the first error.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

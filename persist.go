package dust

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dust/internal/codec"
	"dust/internal/lake"
	"dust/internal/model"
	"dust/internal/search"
	"dust/internal/table"
)

// ManifestFormatVersion is the version of the manifest envelope that opens
// a saved index. A saved index is a cache rebuildable from its lake, so the
// loader reads this version alone: any other fails with codec.ErrVersion,
// which the CLIs answer with a cold build and a fresh save. Version 6 and
// earlier saved a directory of files under a manifest.dustidx, which this
// build does not look for.
const ManifestFormatVersion uint16 = 7

// indexFile is a saved index: the manifest envelope (mutation epoch and the
// tuple model, when one is installed) followed by the searcher's envelope,
// exactly as search.Starmie.Save writes it. SaveIndex writes it under
// indexFile+".tmp" and renames it into place, so the directory holds either
// the last complete save or this one.
const indexFile = "index.dustidx"

// ErrNoIndex reports a LoadPipeline directory without an index file.
var ErrNoIndex = errors.New("dust: no saved index in directory")

// Lake returns the data lake this pipeline searches: its searcher's, which
// nothing may change.
func (p *Pipeline) Lake() *lake.Lake { return p.searcher.Lake() }

// Epoch returns the pipeline's index mutation epoch: 0 for a freshly built
// pipeline (or the saved epoch for one warm-started from an index
// directory), one more for each WithTable/WithoutTable successor. Two
// pipeline states with different epochs may rank queries differently, so a
// serving layer reports the epoch of every answer and revalidates a cached
// one from an older epoch (Revalidate).
func (p *Pipeline) Epoch() uint64 { return p.epoch }

// WithTable returns the pipeline one epoch on, whose lake and index hold t
// too, built by the searcher's delta update — no rebuild — and answering
// bit-identically to a pipeline constructed from scratch over the grown
// lake. It shares the receiver's encoders and every embedding block the
// update does not re-embed, and leaves the receiver, and any query in
// flight on it, untouched whether it succeeds or fails. A table of t's name
// already in the lake yields a nil pipeline and lake.ErrDuplicateTable.
func (p *Pipeline) WithTable(t *table.Table) (*Pipeline, error) {
	s, err := p.searcher.WithTable(t)
	if err != nil {
		return nil, fmt.Errorf("dust: WithTable: %w", err)
	}
	return p.successor(s), nil
}

// WithoutTable is WithTable's dual: the pipeline one epoch on without the
// named table. A name the lake does not hold yields a nil pipeline and
// lake.ErrUnknownTable.
func (p *Pipeline) WithoutTable(name string) (*Pipeline, error) {
	s, err := p.searcher.WithoutTable(name)
	if err != nil {
		return nil, fmt.Errorf("dust: WithoutTable: %w", err)
	}
	return p.successor(s), nil
}

// successor is p over s, one epoch on.
func (p *Pipeline) successor(s search.Searcher) *Pipeline {
	c := *p
	c.searcher = s
	c.epoch++
	return &c
}

// SaveIndex persists the pipeline's index state as one file under dir so a
// later LoadPipeline can skip the cold rebuild: the mutation epoch, the
// fine-tuned tuple model when one is installed, and the searcher index. The
// file is written under a temporary name, synced and renamed over the
// previous save, so a failed or interrupted save leaves that save intact.
func (p *Pipeline) SaveIndex(dir string) error {
	s, ok := p.searcher.(*search.Starmie)
	if !ok {
		return fmt.Errorf("dust: save index: %T has no persistent form", p.searcher)
	}
	m, hasModel := p.tupleEnc.(*model.Model)
	var savedModel strings.Builder
	if hasModel {
		if err := m.Save(&savedModel); err != nil {
			return fmt.Errorf("dust: save model: %w", err)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("dust: save index: %w", err)
	}
	path, tmp := filepath.Join(dir, indexFile), filepath.Join(dir, indexFile+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("dust: save index: %w", err)
	}
	err = codec.WriteEnvelope(f, codec.KindManifest, ManifestFormatVersion, func(e *codec.Encoder) error {
		e.Uvarint(p.epoch)
		e.Bool(hasModel)
		if hasModel {
			e.String(savedModel.String())
		}
		return nil
	})
	if err == nil {
		err = s.Save(f)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp) // best effort: the error to report is err
		return fmt.Errorf("dust: save index: %w", err)
	}
	// Sync the directory too, so the rename itself survives a crash.
	d, err := os.Open(dir)
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	if err != nil {
		return fmt.Errorf("dust: save index: %w", err)
	}
	// Only now that the new index is in place, sweep the files of the
	// directory layout version 6 and earlier wrote.
	stale, _ := filepath.Glob(filepath.Join(dir, "*.dustidx"))
	for _, f := range append(stale, filepath.Join(dir, "tuple.model")) {
		if f == path {
			continue
		}
		if err := os.Remove(f); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("dust: save index: %w", err)
		}
	}
	return nil
}

// HasIndex reports whether dir holds a saved index. The file is renamed
// into place complete, so its presence is the whole test.
func HasIndex(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, indexFile))
	return err == nil
}

// Boot returns a pipeline over l for a command-line tool, logging each
// step to w. It installs the tuple model saved at modelPath when one is
// named, then warm-starts from indexDir when that holds an index. An index
// in another format version is logged and rebuilt; with no index, or with
// rebuild set, the pipeline is built cold and, when indexDir is set, saved
// there.
func Boot(w io.Writer, l *lake.Lake, indexDir, modelPath string, rebuild bool, opts ...Option) (*Pipeline, error) {
	if modelPath != "" {
		f, err := os.Open(modelPath)
		if err != nil {
			return nil, err
		}
		m, err := model.Load(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("dust: load model %s: %w", modelPath, err)
		}
		opts = append(opts, WithTupleEncoder(m))
	}
	start := time.Now()
	if indexDir != "" && !rebuild && HasIndex(indexDir) {
		p, err := LoadPipelineLake(l, indexDir, opts...)
		switch {
		case errors.Is(err, codec.ErrVersion):
			fmt.Fprintf(w, "rebuilding index in %s: %v\n", indexDir, err)
		case err != nil:
			return nil, err
		default:
			fmt.Fprintf(w, "warm start: loaded index from %s in %v (epoch %d)\n",
				indexDir, time.Since(start).Round(time.Millisecond), p.Epoch())
			return p, nil
		}
	}
	p := New(l, opts...)
	fmt.Fprintf(w, "cold start: indexed %s in %v\n", l.Stats(), time.Since(start).Round(time.Millisecond))
	if indexDir != "" {
		if err := p.SaveIndex(indexDir); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "saved index to %s\n", indexDir)
	}
	return p, nil
}

// LoadPipeline reconstructs a pipeline from lake CSVs plus an index
// directory written by SaveIndex, skipping the cold index build. The lake
// must hold exactly the saved table set (the searcher's loader checks it);
// options apply on top of the restored searcher and model, so e.g.
// WithWorkers re-bounds query parallelism as usual.
func LoadPipeline(lakeDir, indexDir string, opts ...Option) (*Pipeline, error) {
	l, err := lake.Load(lakeDir)
	if err != nil {
		return nil, fmt.Errorf("dust: load lake: %w", err)
	}
	return LoadPipelineLake(l, indexDir, opts...)
}

// LoadPipelineLake is LoadPipeline for a lake already in memory.
func LoadPipelineLake(l *lake.Lake, indexDir string, opts ...Option) (*Pipeline, error) {
	f, err := os.Open(filepath.Join(indexDir, indexFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("dust: %s: %w", indexDir, ErrNoIndex)
		}
		return nil, err
	}
	defer f.Close()
	var (
		epoch      uint64
		hasModel   bool
		savedModel string
	)
	err = codec.ReadEnvelope(f, codec.KindManifest, ManifestFormatVersion, func(d *codec.Decoder) error {
		epoch = d.Uvarint()
		if hasModel = d.Bool(); hasModel {
			savedModel = d.String()
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("dust: load manifest: %w", err)
	}
	searcher, err := search.LoadStarmie(f, l)
	if err != nil {
		return nil, fmt.Errorf("dust: load index: %w", err)
	}

	loaded := []Option{WithSearcher(searcher)}
	if hasModel {
		m, err := model.Load(strings.NewReader(savedModel))
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

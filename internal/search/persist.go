package search

import (
	"fmt"
	"io"
	"sort"

	"dust/internal/codec"
	"dust/internal/embed"
	"dust/internal/lake"
	"dust/internal/par"
)

// StarmieFormatVersion is the Starmie index payload version. Bump it when
// the payload layout changes; the loader reads exactly its current version
// and refuses any other, older or newer, as codec.ErrVersion, so a binary
// never misreads an index.
const StarmieFormatVersion uint16 = 1

// Save writes the Starmie index — encoder identity, corpus document
// frequencies, and the column embeddings of every table of its lake — as
// one versioned, checksummed envelope. Every lake table must be indexed.
func (s *Starmie) Save(w io.Writer) error {
	tables := s.lake.Tables()
	var b codec.Buffer
	b.String(s.enc.Name())
	b.String(s.enc.Model.Fingerprint())
	b.Int(s.enc.Dim())
	b.Float64(s.enc.ContextWeight)
	b.Float64(s.MinSim)

	b.Int(s.corpus.NumDocs())
	type df struct {
		tok string
		n   int
	}
	var freqs []df
	s.corpus.DocFreqs(func(tok string, n int) { freqs = append(freqs, df{tok, n}) })
	sort.Slice(freqs, func(i, j int) bool { return freqs[i].tok < freqs[j].tok })
	b.Int(len(freqs))
	for _, f := range freqs {
		b.String(f.tok)
		b.Int(f.n)
	}

	b.Int(len(tables))
	for _, t := range tables {
		e := s.idx.get(t.Name)
		if e == nil {
			return fmt.Errorf("starmie: save: lake table %q not indexed: %w", t.Name, ErrLakeMismatch)
		}
		b.String(t.Name)
		b.Bool(e.big)
		b.Int(len(e.block) / s.enc.Dim())
		s.blockRows(e.block, b.Float64s)
	}
	return codec.WriteEnvelope(w, codec.KindStarmie, StarmieFormatVersion, b.Bytes())
}

// LoadStarmie reads an index written by Starmie.Save and attaches it to l,
// which must hold exactly the saved table set (lake iteration order may
// differ; TopK results do not depend on it). The index must have been built
// with the default NewStarmie encoder — a different encoder name, base
// model, or dimension fails with ErrEncoderMismatch.
func LoadStarmie(r io.Reader, l *lake.Lake, opts ...Option) (*Starmie, error) {
	payload, err := codec.ReadEnvelope(r, codec.KindStarmie, StarmieFormatVersion)
	if err != nil {
		return nil, fmt.Errorf("starmie: load: %w", err)
	}
	o := applyOptions(opts)
	s := emptyStarmie(l, embed.NewStarmie(), o)

	sc := codec.NewScanner(payload)
	encName := sc.String()
	modelPrint := sc.String()
	dim := sc.Int()
	contextWeight := sc.Float64()
	s.MinSim = sc.Float64()

	numDocs := sc.Int()
	nFreqs := sc.Int()
	docFreq := make(map[string]int, nFreqs)
	for i := 0; i < nFreqs && sc.Err() == nil; i++ {
		tok := sc.String()
		docFreq[tok] = sc.Int()
	}

	// The entries follow the lake's order, their blocks carved from one
	// allocation sized by the lake the index must match. A saved table the
	// lake does not hold in the same shape gets no block — its columns are
	// still scanned, so corruption is reported before the mismatch, as the
	// checks below order them. The codes are not saved: they are derived
	// from the loaded blocks once all of them are in.
	lakeTables := l.Tables()
	blocks, codes := carveBlocks(lakeTables, s.enc.Dim())
	for i, block := range blocks {
		s.idx.add(entry{t: lakeTables[i], block: block, code: codes[i]})
	}
	nTables := sc.Int()
	type saved struct {
		name  string
		ncols int
	}
	tabs := make([]saved, 0, min(nTables, len(lakeTables)))
	for i := 0; i < nTables && sc.Err() == nil; i++ {
		name := sc.String()
		big := sc.Bool()
		ncols := sc.Int()
		var block []float64
		if e := s.idx.get(name); e != nil && dim == s.enc.Dim() && len(e.block) == ncols*dim {
			block, e.big = e.block, big
		}
		for c := 0; c < ncols && sc.Err() == nil; c++ {
			v := sc.Float64s()
			if sc.Err() == nil && len(v) != dim {
				return nil, fmt.Errorf("starmie: load: table %q column %d has dim %d, want %d: %w",
					name, c, len(v), dim, codec.ErrCorrupt)
			}
			if block != nil {
				copy(block[c*dim:], v)
			}
		}
		tabs = append(tabs, saved{name, ncols})
	}
	if err := sc.Finish(); err != nil {
		return nil, fmt.Errorf("starmie: load: %w", err)
	}

	if encName != s.enc.Name() || modelPrint != s.enc.Model.Fingerprint() || dim != s.enc.Dim() {
		return nil, fmt.Errorf("starmie: load: index built with %s/%s, searcher uses %s/%s: %w",
			encName, modelPrint, s.enc.Name(), s.enc.Model.Fingerprint(), ErrEncoderMismatch)
	}
	s.enc.ContextWeight = contextWeight
	s.corpus.Restore(numDocs, docFreq)

	if len(tabs) != l.Len() {
		return nil, fmt.Errorf("starmie: load: index holds %d tables, lake holds %d: %w",
			len(tabs), l.Len(), ErrLakeMismatch)
	}
	seen := make(map[string]bool, len(tabs))
	for _, t := range tabs {
		lt := l.Get(t.name)
		if lt == nil {
			return nil, fmt.Errorf("starmie: load: indexed table %q not in lake: %w", t.name, ErrLakeMismatch)
		}
		if lt.NumCols() != t.ncols {
			return nil, fmt.Errorf("starmie: load: table %q has %d columns, index holds %d: %w",
				t.name, lt.NumCols(), t.ncols, ErrLakeMismatch)
		}
		seen[t.name] = true
	}
	if len(seen) != len(tabs) {
		return nil, fmt.Errorf("starmie: load: a table is indexed twice: %w", codec.ErrCorrupt)
	}
	par.For(s.workers, len(s.idx.entries), func(i int) {
		e := &s.idx.entries[i]
		e.code.Quantize(e.block, dim)
	})
	return s, nil
}

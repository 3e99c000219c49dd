package search

import (
	"fmt"
	"io"
	"runtime"

	"dust/internal/codec"
	"dust/internal/embed"
	"dust/internal/lake"
	"dust/internal/par"
)

// StarmieFormatVersion is the Starmie index payload version. Bump it when
// the payload layout changes; the loader reads exactly its current version
// and refuses any other, older or newer, as codec.ErrVersion, so a binary
// never misreads an index.
const StarmieFormatVersion uint16 = 2

// Save writes the Starmie index — encoder identity and the column
// embeddings of every table of its lake — as
// one versioned, checksummed envelope, streamed to w. Every lake table must
// be indexed; if one is not, Save fails before it writes a byte.
func (s *Starmie) Save(w io.Writer) error {
	tables := s.lake.Tables()
	err := codec.WriteEnvelope(w, codec.KindStarmie, StarmieFormatVersion, func(e *codec.Encoder) error {
		e.String(s.enc.Name())
		e.String(s.enc.Model.Fingerprint())
		e.Int(s.enc.Dim())
		e.Float64(s.enc.ContextWeight)
		e.Float64(s.MinSim)

		e.Int(len(tables))
		for _, t := range tables {
			x := s.idx.get(t.Name)
			if x == nil {
				return fmt.Errorf("starmie: save: lake table %q not indexed: %w", t.Name, ErrLakeMismatch)
			}
			e.String(t.Name)
			e.Int(len(x.block) / s.enc.Dim())
			s.blockRows(x.block, e.Float64s)
		}
		return nil
	})
	runtime.KeepAlive(s.region)
	return err
}

// LoadStarmie reads an index written by Starmie.Save and attaches it to l,
// which must hold exactly the saved table set (lake iteration order may
// differ; TopK results do not depend on it). The index must have been built
// with the default NewStarmie encoder — a different encoder name, base
// model, or dimension fails with ErrEncoderMismatch. The envelope must be
// the last bytes of r.
func LoadStarmie(r io.Reader, l *lake.Lake, opts ...Option) (*Starmie, error) {
	s := emptyStarmie(l, embed.NewStarmie(), applyOptions(opts))
	type saved struct {
		name  string
		ncols int
	}
	var tabs []saved
	var encName, modelPrint string
	dim := s.enc.Dim()
	err := codec.ReadEnvelope(r, codec.KindStarmie, StarmieFormatVersion, func(d *codec.Decoder) error {
		encName = d.String()
		modelPrint = d.String()
		savedDim := d.Int()
		s.enc.ContextWeight = d.Float64()
		s.MinSim = d.Float64()
		// Columns of another width cannot be decoded into this index; the
		// rest of the payload is still read through the CRC, so truncation
		// and a checksum mismatch are reported before this.
		if d.Err() == nil && savedDim != dim {
			return fmt.Errorf("starmie: load: index has dimension %d, searcher %d: %w",
				savedDim, dim, ErrEncoderMismatch)
		}

		// Each saved column is decoded straight into the block carved for
		// its table from one allocation sized by the lake the index must
		// match. A saved table the lake does not hold in the same shape is
		// decoded into one scratch column, so corruption in it is reported
		// before the mismatch, which the checks after the load find. The
		// codes are not saved: they are derived from the loaded blocks once
		// the CRC has passed.
		s.idx, s.region = carveIndex(l.Tables(), dim)
		scratch := make([]float64, dim)
		nTables := d.Int()
		tabs = make([]saved, 0, min(nTables, l.Len()))
		for i := 0; i < nTables && d.Err() == nil; i++ {
			name := d.String()
			ncols := d.Int()
			var block []float64
			if x := s.idx.get(name); x != nil && len(x.block) == ncols*dim {
				block = x.block
			}
			for c := 0; c < ncols && d.Err() == nil; c++ {
				if block != nil {
					d.Float64s(block[c*dim : (c+1)*dim])
				} else {
					d.Float64s(scratch)
				}
			}
			tabs = append(tabs, saved{name, ncols})
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("starmie: load: %w", err)
	}
	if n, err := io.Copy(io.Discard, r); err != nil {
		return nil, fmt.Errorf("starmie: load: read: %w", err)
	} else if n > 0 {
		return nil, fmt.Errorf("starmie: load: %d trailing bytes after the index: %w", n, codec.ErrCorrupt)
	}

	if encName != s.enc.Name() || modelPrint != s.enc.Model.Fingerprint() {
		return nil, fmt.Errorf("starmie: load: index built with %s/%s, searcher uses %s/%s: %w",
			encName, modelPrint, s.enc.Name(), s.enc.Model.Fingerprint(), ErrEncoderMismatch)
	}

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
	runtime.KeepAlive(s.region)
	return s, nil
}

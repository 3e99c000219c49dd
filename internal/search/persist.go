package search

import (
	"fmt"
	"io"
	"sort"

	"dust/internal/ann"
	"dust/internal/codec"
	"dust/internal/embed"
	"dust/internal/lake"
	"dust/internal/minhash"
	"dust/internal/table"
	"dust/internal/vector"
)

// Payload format versions. Bump when a payload layout changes; loaders
// refuse files declaring a newer version (codec.ErrVersion), so an old
// binary never misreads a new index.
const (
	StarmieFormatVersion uint16 = 1
	D3LFormatVersion     uint16 = 1
	TuplesFormatVersion  uint16 = 1
	// ANNFormatVersion is the HNSW candidate-graph payload version
	// (codec.KindANN): encoder identity, node-to-table mapping, graph.
	// Version 2 added the storage flag and SQ8 quantized layout; version
	// 1 files (float-only) remain loadable.
	ANNFormatVersion uint16 = 2
)

// Save writes the Starmie index — encoder identity, corpus document
// frequencies, and every table's column embeddings — as one versioned,
// checksummed envelope. The index must cover the lake exactly.
func (s *Starmie) Save(w io.Writer) error {
	tables := s.lake.Tables()
	if len(tables) != len(s.cols) {
		return fmt.Errorf("starmie: save: index holds %d tables, lake holds %d: %w",
			len(s.cols), len(tables), ErrLakeMismatch)
	}
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
		block, ok := s.cols[t.Name]
		if !ok {
			return fmt.Errorf("starmie: save: lake table %q not indexed: %w", t.Name, ErrLakeMismatch)
		}
		b.String(t.Name)
		b.Bool(s.big[t.Name])
		b.Int(len(block) / s.enc.Dim())
		s.blockRows(block, b.Float64s)
	}
	return codec.WriteEnvelope(w, codec.KindStarmie, StarmieFormatVersion, b.Bytes())
}

// LoadStarmie reads an index written by Starmie.Save and attaches it to l,
// which must hold exactly the saved table set (lake iteration order may
// differ; TopK results do not depend on it). The index must have been built
// with the default NewStarmie encoder — a different encoder name, base
// model, or dimension fails with ErrEncoderMismatch.
func LoadStarmie(r io.Reader, l *lake.Lake, opts ...Option) (*Starmie, error) {
	_, payload, err := codec.ReadEnvelope(r, codec.KindStarmie, StarmieFormatVersion)
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

	// The blocks are carved from one allocation sized by the lake the index
	// must match. A saved table the lake does not hold in the same shape
	// gets no block — its columns are still scanned, so corruption is
	// reported before the mismatch, as the checks below order them.
	lakeTables := l.Tables()
	lakeBlocks := carveBlocks(lakeTables, s.enc.Dim())
	blockOf := make(map[string][]float64, len(lakeTables))
	for i, t := range lakeTables {
		blockOf[t.Name] = lakeBlocks[i]
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
		block := blockOf[name]
		if dim != s.enc.Dim() || len(block) != ncols*dim {
			block = nil
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
		if big {
			s.big[name] = true
		}
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
	for _, t := range tabs {
		lt := l.Get(t.name)
		if lt == nil {
			return nil, fmt.Errorf("starmie: load: indexed table %q not in lake: %w", t.name, ErrLakeMismatch)
		}
		if lt.NumCols() != t.ncols {
			return nil, fmt.Errorf("starmie: load: table %q has %d columns, index holds %d: %w",
				t.name, lt.NumCols(), t.ncols, ErrLakeMismatch)
		}
		s.cols[t.name] = blockOf[t.name]
	}
	if len(s.cols) != len(tabs) {
		return nil, fmt.Errorf("starmie: load: a table is indexed twice: %w", codec.ErrCorrupt)
	}
	if o.mode != Exact {
		_ = s.SetMode(o.mode)
	}
	return s, nil
}

// SaveANN writes the Starmie searcher's HNSW candidate graph — encoder
// identity, the node-to-table mapping, and the graph itself — as one
// versioned, checksummed envelope, so a warm start skips the O(n log n)
// graph build the way it skips re-embedding. The graph exists after
// SetMode(ANN); saving a graphless searcher is an error.
func (s *Starmie) SaveANN(w io.Writer) error {
	if s.graph == nil {
		return fmt.Errorf("starmie: save ann: no candidate graph (SetMode(ANN) first)")
	}
	var b codec.Buffer
	b.String(s.enc.Name())
	b.String(s.enc.Model.Fingerprint())
	b.Int(s.enc.Dim())
	b.Strings(s.annTables)
	s.graph.Encode(&b)
	return codec.WriteEnvelope(w, codec.KindANN, ANNFormatVersion, b.Bytes())
}

// LoadANN installs a candidate graph written by SaveANN into this
// searcher, validating encoder identity and that the graph's live nodes
// cover the indexed column embeddings exactly (one live node per indexed
// column, per table). It does not switch retrieval modes — call
// SetMode(ANN), which reuses the installed graph instead of rebuilding.
func (s *Starmie) LoadANN(r io.Reader) error {
	version, payload, err := codec.ReadEnvelope(r, codec.KindANN, ANNFormatVersion)
	if err != nil {
		return fmt.Errorf("starmie: load ann: %w", err)
	}
	sc := codec.NewScanner(payload)
	encName := sc.String()
	modelPrint := sc.String()
	dim := sc.Int()
	if sc.Err() == nil && (encName != s.enc.Name() || modelPrint != s.enc.Model.Fingerprint() || dim != s.enc.Dim()) {
		return fmt.Errorf("starmie: load ann: graph built with %s/%s/d%d, searcher uses %s/%s/d%d: %w",
			encName, modelPrint, dim, s.enc.Name(), s.enc.Model.Fingerprint(), s.enc.Dim(), ErrEncoderMismatch)
	}
	names := sc.Strings()
	// The graph layout is selected by the envelope version: v1 files
	// predate quantization and carry float-only payloads.
	decodeGraph := ann.Decode
	if version == 1 {
		decodeGraph = ann.DecodeV1
	}
	graph, err := decodeGraph(sc)
	if err != nil {
		return fmt.Errorf("starmie: load ann: %w", err)
	}
	if err := sc.Finish(); err != nil {
		return fmt.Errorf("starmie: load ann: %w", err)
	}
	if graph.Dim() != s.enc.Dim() {
		return fmt.Errorf("starmie: load ann: graph dim %d, want %d: %w", graph.Dim(), s.enc.Dim(), codec.ErrCorrupt)
	}
	if graph.Len() != len(names) {
		return fmt.Errorf("starmie: load ann: %d nodes but %d names: %w", graph.Len(), len(names), codec.ErrCorrupt)
	}
	ids := make(map[string][]int, len(s.cols))
	for id, name := range names {
		if graph.Deleted(id) {
			continue
		}
		ids[name] = append(ids[name], id)
	}
	for name := range ids {
		if _, ok := s.cols[name]; !ok {
			return fmt.Errorf("starmie: load ann: graph covers table %q the index does not hold: %w",
				name, ErrLakeMismatch)
		}
	}
	// One live node per indexed column; a zero-column table legitimately
	// has no nodes at all.
	for name, block := range s.cols {
		if ncols := len(block) / s.enc.Dim(); len(ids[name]) != ncols {
			return fmt.Errorf("starmie: load ann: table %q has %d live nodes, index holds %d columns: %w",
				name, len(ids[name]), ncols, ErrLakeMismatch)
		}
	}
	s.graph, s.annTables, s.annIDs = graph, names, ids
	return nil
}

// Save writes the D3L index: encoder and hasher identity plus every
// column's MinHash signature, word embedding, format profile, and numeric
// profile, in lake order (the order the LSH banding index is rebuilt in on
// load).
func (d *D3L) Save(w io.Writer) error {
	tables := d.lake.Tables()
	if len(tables) != len(d.tables) {
		return fmt.Errorf("d3l: save: index holds %d tables, lake holds %d: %w",
			len(d.tables), len(tables), ErrLakeMismatch)
	}
	var b codec.Buffer
	b.String(d.enc.Fingerprint())
	b.Int(d.enc.Dim())
	b.Int(d.hasher.K())
	b.Int(d.lsh.Bands())

	b.Int(len(tables))
	for _, t := range tables {
		idx, ok := d.tables[t.Name]
		if !ok {
			return fmt.Errorf("d3l: save: lake table %q not indexed: %w", t.Name, ErrLakeMismatch)
		}
		b.String(t.Name)
		b.Int(len(idx.sigs))
		fps, nps := idx.fps, idx.nps
		for i := range idx.sigs {
			b.Uint64s(idx.sigs[i])
			b.Float64s(idx.vecs[i])
			b.Float64(fps[i].letters)
			b.Float64(fps[i].digits)
			b.Float64(fps[i].punct)
			b.Float64(fps[i].spaces)
			b.Float64(fps[i].avgLen)
			b.Float64(nps[i].frac)
			b.Float64(nps[i].mean)
			b.Float64(nps[i].std)
		}
	}
	return codec.WriteEnvelope(w, codec.KindD3L, D3LFormatVersion, b.Bytes())
}

// LoadD3L reads an index written by D3L.Save and attaches it to l. The LSH
// banding index is rebuilt from the saved signatures in their saved order,
// reproducing the layout of a from-scratch build.
func LoadD3L(r io.Reader, l *lake.Lake, opts ...Option) (*D3L, error) {
	_, payload, err := codec.ReadEnvelope(r, codec.KindD3L, D3LFormatVersion)
	if err != nil {
		return nil, fmt.Errorf("d3l: load: %w", err)
	}
	o := applyOptions(opts)
	d := &D3L{
		lake:    l,
		enc:     embed.NewFastText(),
		workers: o.workers,
		tables:  map[string]d3lTableIndex{},
	}

	sc := codec.NewScanner(payload)
	encPrint := sc.String()
	dim := sc.Int()
	k := sc.Int()
	bands := sc.Int()
	if sc.Err() == nil {
		if encPrint != d.enc.Fingerprint() || dim != d.enc.Dim() {
			return nil, fmt.Errorf("d3l: load: index built with %s, searcher uses %s: %w",
				encPrint, d.enc.Fingerprint(), ErrEncoderMismatch)
		}
		if k <= 0 || bands <= 0 || k%bands != 0 {
			return nil, fmt.Errorf("d3l: load: %d bands does not divide signature length %d: %w",
				bands, k, codec.ErrCorrupt)
		}
		d.hasher = minhash.NewHasher(k)
		d.lsh, _ = minhash.NewIndex(d.hasher, bands)
	}

	nTables := sc.Int()
	for t := 0; t < nTables && sc.Err() == nil; t++ {
		name := sc.String()
		ncols := sc.Int()
		idx := d3lTableIndex{
			sigs: make([]minhash.Signature, 0, ncols),
			vecs: make([]vector.Vec, 0, ncols),
			fps:  make([]formatProfile, 0, ncols),
			nps:  make([]numericProfile, 0, ncols),
		}
		for c := 0; c < ncols && sc.Err() == nil; c++ {
			sig := minhash.Signature(sc.Uint64s())
			if sc.Err() == nil && len(sig) != k {
				return nil, fmt.Errorf("d3l: load: table %q column %d signature length %d, want %d: %w",
					name, c, len(sig), k, codec.ErrCorrupt)
			}
			vec := sc.Float64s()
			if sc.Err() == nil && len(vec) != dim {
				return nil, fmt.Errorf("d3l: load: table %q column %d has dim %d, want %d: %w",
					name, c, len(vec), dim, codec.ErrCorrupt)
			}
			var fp formatProfile
			fp.letters = sc.Float64()
			fp.digits = sc.Float64()
			fp.punct = sc.Float64()
			fp.spaces = sc.Float64()
			fp.avgLen = sc.Float64()
			var np numericProfile
			np.frac = sc.Float64()
			np.mean = sc.Float64()
			np.std = sc.Float64()
			idx.sigs = append(idx.sigs, sig)
			idx.vecs = append(idx.vecs, vec)
			idx.fps = append(idx.fps, fp)
			idx.nps = append(idx.nps, np)
		}
		if sc.Err() == nil {
			if _, dup := d.tables[name]; dup {
				return nil, fmt.Errorf("d3l: load: table %q indexed twice: %w", name, codec.ErrCorrupt)
			}
			d.install(name, idx)
		}
	}
	if err := sc.Finish(); err != nil {
		return nil, fmt.Errorf("d3l: load: %w", err)
	}

	if len(d.tables) != l.Len() {
		return nil, fmt.Errorf("d3l: load: index holds %d tables, lake holds %d: %w",
			len(d.tables), l.Len(), ErrLakeMismatch)
	}
	for name, idx := range d.tables {
		lt := l.Get(name)
		if lt == nil {
			return nil, fmt.Errorf("d3l: load: indexed table %q not in lake: %w", name, ErrLakeMismatch)
		}
		if lt.NumCols() != len(idx.sigs) {
			return nil, fmt.Errorf("d3l: load: table %q has %d columns, index holds %d: %w",
				name, lt.NumCols(), len(idx.sigs), ErrLakeMismatch)
		}
	}
	if o.mode != Exact {
		_ = d.SetMode(o.mode)
	}
	return d, nil
}

// Save writes the tuple-level index: encoder identity and, for each run of
// tuples from one table, the table name and every tuple's row index and
// embedding, in index order (which the stable TopK sort depends on).
func (ts *TupleSearch) Save(w io.Writer) error {
	var b codec.Buffer
	b.String(ts.enc.Fingerprint())
	b.Int(ts.enc.Dim())

	// Tuples of one table are always contiguous (NewTupleSearch and
	// AddTable append whole tables; RemoveTable drops whole runs), so the
	// index serializes as table-named runs.
	type run struct {
		t        *table.Table
		from, to int // [from, to) in ts.tuples
	}
	var runs []run
	for i := range ts.tuples {
		if len(runs) > 0 && runs[len(runs)-1].t == ts.tuples[i].Table {
			runs[len(runs)-1].to = i + 1
			continue
		}
		runs = append(runs, run{ts.tuples[i].Table, i, i + 1})
	}
	b.Int(len(runs))
	for _, r := range runs {
		b.String(r.t.Name)
		b.Int(r.to - r.from)
		for i := r.from; i < r.to; i++ {
			b.Int(ts.tuples[i].Row)
			b.Float64s(ts.vecs[i])
		}
	}
	return codec.WriteEnvelope(w, codec.KindTuples, TuplesFormatVersion, b.Bytes())
}

// LoadTupleSearch reads an index written by TupleSearch.Save, resolving
// table names against the given tables (every indexed name must appear,
// with at least the indexed row count).
func LoadTupleSearch(r io.Reader, tables []*table.Table, opts ...Option) (*TupleSearch, error) {
	_, payload, err := codec.ReadEnvelope(r, codec.KindTuples, TuplesFormatVersion)
	if err != nil {
		return nil, fmt.Errorf("tuplesearch: load: %w", err)
	}
	o := applyOptions(opts)
	ts := &TupleSearch{
		enc:       embed.NewRoBERTa(),
		workers:   o.workers,
		quantized: o.quantized,
		annTuning: annTuning{DefaultOversample, DefaultEfSearch},
	}

	byName := make(map[string]*table.Table, len(tables))
	for _, t := range tables {
		byName[t.Name] = t
	}

	sc := codec.NewScanner(payload)
	encPrint := sc.String()
	dim := sc.Int()
	if sc.Err() == nil && (encPrint != ts.enc.Fingerprint() || dim != ts.enc.Dim()) {
		return nil, fmt.Errorf("tuplesearch: load: index built with %s, searcher uses %s: %w",
			encPrint, ts.enc.Fingerprint(), ErrEncoderMismatch)
	}
	nRuns := sc.Int()
	seen := make(map[string]bool, nRuns)
	for g := 0; g < nRuns && sc.Err() == nil; g++ {
		name := sc.String()
		count := sc.Int()
		if sc.Err() != nil {
			break
		}
		t := byName[name]
		if t == nil {
			return nil, fmt.Errorf("tuplesearch: load: indexed table %q not provided: %w", name, ErrLakeMismatch)
		}
		if seen[name] {
			return nil, fmt.Errorf("tuplesearch: load: table %q indexed twice: %w", name, codec.ErrCorrupt)
		}
		seen[name] = true
		for i := 0; i < count && sc.Err() == nil; i++ {
			row := sc.Int()
			vec := sc.Float64s()
			if sc.Err() != nil {
				break
			}
			if len(vec) != dim {
				return nil, fmt.Errorf("tuplesearch: load: table %q tuple %d has dim %d, want %d: %w",
					name, i, len(vec), dim, codec.ErrCorrupt)
			}
			if row >= t.NumRows() {
				return nil, fmt.Errorf("tuplesearch: load: table %q row %d out of range [0,%d): %w",
					name, row, t.NumRows(), ErrLakeMismatch)
			}
			ts.tuples = append(ts.tuples, ScoredTuple{Table: t, Row: row})
			ts.vecs = append(ts.vecs, vec)
		}
	}
	if err := sc.Finish(); err != nil {
		return nil, fmt.Errorf("tuplesearch: load: %w", err)
	}
	if o.mode != Exact {
		_ = ts.SetMode(o.mode)
	}
	return ts, nil
}

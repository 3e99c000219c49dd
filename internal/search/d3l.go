package search

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"dust/internal/embed"
	"dust/internal/lake"
	"dust/internal/minhash"
	"dust/internal/par"
	"dust/internal/table"
	"dust/internal/tokenize"
	"dust/internal/vector"
)

// D3L is the D3L-like union searcher: it aggregates five column
// unionability signals — header-name similarity, value overlap (MinHash),
// format (character-class profile), word-embedding similarity, and numeric
// distribution similarity — and scores a table by the mean best aggregate
// over the query's columns (§6.5.1). An LSH banding index shortlists
// value-overlap candidates so the signal does not require scanning the
// whole lake per column.
type D3L struct {
	leaf
	lake    *lake.Lake
	enc     *embed.Encoder
	workers int
	// mode selects the retrieval stage: Exact scans the lake; ANN re-uses
	// the LSH banding index as the candidate generator (D3L's own pruning
	// structure — no separate HNSW graph to maintain) and re-scores the
	// bucketed candidates with the full five-signal aggregate.
	mode Mode

	hasher *minhash.Hasher
	tables map[string]d3lTableIndex // per table: the per-column signals
	lsh    *minhash.Index
}

// d3lBands is the LSH banding width of the value-overlap index; it must
// divide the hasher's signature length (128).
const d3lBands = 32

// d3lTableIndex holds one table's per-column signals — what indexing
// stores for a lake table and Prepare derives for a query. All four are
// corpus-independent.
type d3lTableIndex struct {
	sigs []minhash.Signature // value overlap (and the LSH key)
	vecs []vector.Vec        // word embeddings
	fps  []formatProfile
	nps  []numericProfile
}

// NewD3L indexes the lake. The five per-column signals are computed in
// parallel across tables; only the LSH inserts (which mutate the shared
// banding index) run sequentially, in table order, so the index layout is
// deterministic.
func NewD3L(l *lake.Lake, opts ...Option) *D3L {
	o := applyOptions(opts)
	d := &D3L{
		lake:    l,
		enc:     embed.NewFastText(),
		workers: o.workers,
		hasher:  minhash.NewHasher(128),
		tables:  map[string]d3lTableIndex{},
	}
	d.lsh, _ = minhash.NewIndex(d.hasher, d3lBands)
	tables := l.Tables()
	indexed := par.Map(d.workers, len(tables), func(ti int) d3lTableIndex {
		return d.indexTable(tables[ti])
	})
	for ti, t := range tables {
		d.install(t.Name, indexed[ti])
	}
	if o.mode != Exact {
		_ = d.SetMode(o.mode)
	}
	return d
}

// indexTable computes the five per-column signals for one table.
func (d *D3L) indexTable(t *table.Table) d3lTableIndex {
	n := t.NumCols()
	idx := d3lTableIndex{
		sigs: make([]minhash.Signature, n),
		vecs: make([]vector.Vec, n),
		fps:  make([]formatProfile, n),
		nps:  make([]numericProfile, n),
	}
	for i := range t.Columns {
		col := &t.Columns[i]
		idx.sigs[i] = d.hasher.Sign(col.Values)
		idx.vecs[i] = d.embedColumn(col)
		idx.fps[i] = profileFormat(col.Values)
		idx.nps[i] = profileNumeric(col.Values)
	}
	return idx
}

// install stores one table's signals and inserts its signatures into the
// LSH banding index.
func (d *D3L) install(name string, idx d3lTableIndex) {
	for i := range idx.sigs {
		d.lsh.AddSignature(name, idx.sigs[i])
	}
	d.tables[name] = idx
}

// Name implements Searcher; the suffix keeps config tags distinct
// between the exact and the LSH-pruned query plans.
func (d *D3L) Name() string {
	if d.mode == ANN {
		return "d3l+lsh"
	}
	return "d3l"
}

// Lake implements Searcher.
func (d *D3L) Lake() *lake.Lake { return d.lake }

// Parts implements Searcher: a monolithic index is its own single part.
func (d *D3L) Parts() []Searcher { return []Searcher{d} }

// SetMode implements Searcher. D3L's approximate backend is its LSH banding
// index rather than HNSW, so switching is free: the index already exists
// for the value-overlap signal.
func (d *D3L) SetMode(m Mode) error {
	if m != Exact && m != ANN {
		return fmt.Errorf("d3l: SetMode(%d): %w", int(m), ErrUnknownMode)
	}
	d.mode = m
	return nil
}

// RetrievalMode implements Searcher.
func (d *D3L) RetrievalMode() Mode { return d.mode }

// SetOversample implements Searcher as a no-op: LSH buckets are set-shaped,
// there is no pool to size.
func (d *D3L) SetOversample(float64) {}

// SetEfSearch implements Searcher as a no-op: D3L has no HNSW stage.
func (d *D3L) SetEfSearch(int) {}

// SetQuantized implements Searcher as a no-op: D3L builds no vector graph.
func (d *D3L) SetQuantized(bool) {}

// IndexBytes implements Searcher: D3L's approximate backend is the LSH
// index its exact scorer needs anyway, so there is no ANN-only footprint.
func (d *D3L) IndexBytes() IndexFootprint { return IndexFootprint{Storage: "none"} }

// candidateNamesSigned is the LSH retrieval stage for query-column
// signatures the caller already computed (Prepare signs every column for
// the value-overlap score anyway), name-sorted for determinism.
func (d *D3L) candidateNamesSigned(sigs []minhash.Signature) []string {
	set := map[string]bool{}
	for _, sig := range sigs {
		for _, c := range d.lsh.QuerySig(sig) {
			set[c.Key] = true
		}
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// AddTable implements Searcher: only the new table's signals are
// computed; everything already indexed is untouched, so the update costs
// O(new table). The table must (also) be added to the lake before querying.
func (d *D3L) AddTable(t *table.Table) error {
	if _, ok := d.tables[t.Name]; ok {
		return fmt.Errorf("d3l: AddTable(%q): %w", t.Name, ErrDuplicateTable)
	}
	d.install(t.Name, d.indexTable(t))
	return nil
}

// RemoveTable implements Searcher: the table's signals are dropped and
// its LSH entries tombstoned (the banding index compacts itself once dead
// entries dominate). Remove the table from the lake afterwards.
func (d *D3L) RemoveTable(name string) error {
	if _, ok := d.tables[name]; !ok {
		return fmt.Errorf("d3l: RemoveTable(%q): %w", name, ErrUnknownTable)
	}
	delete(d.tables, name)
	d.lsh.Remove(name)
	return nil
}

// QueryWorkers implements Searcher: the returned searcher shares this
// searcher's index (immutable after construction) and scores queries with
// at most n workers.
func (d *D3L) QueryWorkers(n int) Searcher {
	c := *d
	c.workers = n
	return &c
}

// SetAutoCompact implements Searcher, delegating to the LSH banding
// index (D3L's only tombstoning structure).
func (d *D3L) SetAutoCompact(on bool) { d.lsh.SetAutoCompact(on) }

// Compact implements Searcher: it compacts the LSH banding index,
// reporting whether any tombstones were reclaimed.
func (d *D3L) Compact() bool { return d.lsh.Compact() }

// MaintenanceStats implements Searcher.
func (d *D3L) MaintenanceStats() MaintenanceStats {
	return MaintenanceStats{
		LSHEntries:      d.lsh.Len() + d.lsh.Dead(),
		LSHDead:         d.lsh.Dead(),
		LSHDeadFraction: d.lsh.DeadFraction(),
	}
}

// ModeView implements Searcher. D3L's approximate backend is its LSH
// banding index, which always exists, so a view of either mode is a free
// shallow copy.
func (d *D3L) ModeView(m Mode) (Searcher, bool) {
	if m == d.mode {
		return d, true
	}
	if m != Exact && m != ANN {
		return nil, false
	}
	c := *d
	c.mode = m
	return &c, true
}

// CloneWithLake implements Searcher: the clone is bound to l and owns its own
// signal map and LSH banding index, sharing the per-column signature,
// vector, and profile slices (install replaces whole entries; nothing
// writes into one). Mutations on the clone leave this searcher — and queries in
// flight against it — untouched.
func (d *D3L) CloneWithLake(l *lake.Lake) Searcher {
	c := *d
	c.lake = l
	c.lsh = d.lsh.Clone()
	c.tables = make(map[string]d3lTableIndex, len(d.tables))
	for n, v := range d.tables {
		c.tables[n] = v
	}
	return &c
}

func (d *D3L) embedColumn(col *table.Column) vector.Vec {
	var toks []string
	for _, v := range col.Values {
		toks = append(toks, tokenize.Words(v)...)
	}
	return d.enc.EncodeTokens(toks)
}

// columnScore aggregates the five signals for query column qi of p against
// column ci of the indexed table t (whose signals are idx).
func columnScore(p *d3lPrepared, qi int, t *table.Table, idx *d3lTableIndex, ci int) float64 {
	name := headerSimilarity(p.query.Columns[qi].Name, t.Columns[ci].Name)
	value := minhash.Estimate(p.sigs[qi], idx.sigs[ci])
	format := p.fps[qi].similarity(idx.fps[ci])
	emb := math.Max(0, vector.Cosine(p.vecs[qi], idx.vecs[ci]))
	dist := p.nps[qi].similarity(idx.nps[ci])
	return (name + value + format + emb + dist) / 5
}

// d3lPrepared is D3L's PreparedQuery: the query's per-column signals,
// derived once exactly as indexing derives a lake table's. They are
// corpus-independent, so any D3L index — every shard of a partitioned lake
// — accepts the preparation interchangeably.
type d3lPrepared struct {
	query *table.Table
	d3lTableIndex
}

// Query implements PreparedQuery.
func (p *d3lPrepared) Query() *table.Table { return p.query }

// Prepare implements Searcher: the query's five per-column signals
// are derived exactly once.
func (d *D3L) Prepare(query *table.Table) PreparedQuery {
	return &d3lPrepared{query: query, d3lTableIndex: d.indexTable(query)}
}

// TopKPrepared implements Searcher: the candidate scan (the whole lake, or
// the LSH nominees in ANN mode) stops scoring further tables once ctx is
// cancelled and the call returns ctx.Err().
func (d *D3L) TopKPrepared(ctx context.Context, pq PreparedQuery, k int) ([]Scored, error) {
	p, ok := pq.(*d3lPrepared)
	if !ok {
		return nil, fmt.Errorf("d3l: %w: %T", ErrForeignPrepared, pq)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tr := TraceFrom(ctx)
	t0 := time.Now()
	cands := d.lake.Tables()
	if d.mode == ANN && k > 0 {
		// The prepared signatures serve double duty: the value-overlap
		// score and, here, the LSH candidate lookup.
		// Empty LSH buckets (no value overlap anywhere) fall through to
		// the exact scan: a best-effort ranking, like exact mode, beats
		// turning a valid query into "no results".
		if names := d.candidateNamesSigned(p.sigs); len(names) > 0 {
			cands = tablesNamed(d.lake, names)
		}
	}
	tr.AddRetrieve(t0)
	t0 = time.Now()
	out, err := rankTablesCtx(ctx, cands, k, d.workers, unbounded(func(t *table.Table) float64 {
		return d.scorePrepared(p, t)
	}))
	if err == nil {
		tr.AddScore(t0)
	}
	return out, err
}

// scorePrepared is the exact five-signal table score under a prepared
// query: the mean best aggregate over the query's columns.
func (d *D3L) scorePrepared(p *d3lPrepared, t *table.Table) float64 {
	n := p.query.NumCols()
	if t.NumCols() == 0 || n == 0 {
		return 0
	}
	idx := d.tables[t.Name]
	var sum float64
	for i := range p.query.Columns {
		best := 0.0
		for ci := range t.Columns {
			if s := columnScore(p, i, t, &idx, ci); s > best {
				best = s
			}
		}
		sum += best
	}
	return sum / float64(n)
}

// NominatePrepared implements Searcher: the tables sharing an LSH
// bucket with any query column in ANN mode (depth is advisory — buckets are
// set-shaped), every lake table otherwise. An empty return means no bucket
// matched anywhere; the coordinator picks the fallback, mirroring the
// exact-scan fallback of TopKPrepared.
func (d *D3L) NominatePrepared(ctx context.Context, pq PreparedQuery, depth int) ([]string, error) {
	p, ok := pq.(*d3lPrepared)
	if !ok {
		return nil, fmt.Errorf("d3l: %w: %T", ErrForeignPrepared, pq)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if d.mode != ANN || depth <= 0 {
		return d.lake.Names(), nil
	}
	return d.candidateNamesSigned(p.sigs), nil
}

// ScorePrepared implements Searcher.
func (d *D3L) ScorePrepared(pq PreparedQuery, t *table.Table) float64 {
	return d.scorePrepared(pq.(*d3lPrepared), t)
}

// Encoder exposes the word-embedding model of the value/embedding signal.
// Tests instrument it to count encoding calls — the prepared-query gate
// that proves a sharded query derives its signals exactly once.
func (d *D3L) Encoder() *embed.Encoder { return d.enc }

// headerSimilarity is token Jaccard between headers, with synonym classes
// from the embedding lexicon counted through the token set.
func headerSimilarity(a, b string) float64 {
	ta := tokenize.Words(a)
	tb := tokenize.Words(b)
	return minhash.ExactJaccard(ta, tb)
}

// formatProfile captures the distribution of character classes in a
// column's values (D3L's regex signal).
type formatProfile struct {
	letters, digits, punct, spaces float64
	avgLen                         float64
}

func profileFormat(values []string) formatProfile {
	var p formatProfile
	var total float64
	for _, v := range values {
		for _, r := range v {
			switch {
			case r >= '0' && r <= '9':
				p.digits++
			case r == ' ':
				p.spaces++
			case (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z'):
				p.letters++
			default:
				p.punct++
			}
			total++
		}
		p.avgLen += float64(len(v))
	}
	if total > 0 {
		p.letters /= total
		p.digits /= total
		p.punct /= total
		p.spaces /= total
	}
	if len(values) > 0 {
		p.avgLen /= float64(len(values))
	}
	return p
}

func (p formatProfile) similarity(o formatProfile) float64 {
	d := math.Abs(p.letters-o.letters) + math.Abs(p.digits-o.digits) +
		math.Abs(p.punct-o.punct) + math.Abs(p.spaces-o.spaces)
	lenSim := 1.0
	if p.avgLen+o.avgLen > 0 {
		lenSim = 1 - math.Abs(p.avgLen-o.avgLen)/(p.avgLen+o.avgLen)
	}
	return float64(math.Max(0, 1-float64(d/2))*0.7) + float64(lenSim*0.3)
}

// numericProfile summarises the numeric values of a column.
type numericProfile struct {
	frac, mean, std float64 // fraction numeric, moments of numeric values
}

func profileNumeric(values []string) numericProfile {
	var p numericProfile
	var nums []float64
	for _, v := range values {
		if f, ok := parseNumber(v); ok {
			nums = append(nums, f)
		}
	}
	if len(values) > 0 {
		p.frac = float64(len(nums)) / float64(len(values))
	}
	if len(nums) == 0 {
		return p
	}
	for _, f := range nums {
		p.mean += f
	}
	p.mean /= float64(len(nums))
	for _, f := range nums {
		p.std += float64((f - p.mean) * (f - p.mean)) // persisted: no fusion (docs/ARCHITECTURE.md, "Determinism contract")
	}
	p.std = math.Sqrt(p.std / float64(len(nums)))
	return p
}

func (p numericProfile) similarity(o numericProfile) float64 {
	fracSim := 1 - math.Abs(p.frac-o.frac)
	if p.frac < 0.5 || o.frac < 0.5 {
		// Mostly non-numeric columns: only the numeric-fraction agreement
		// matters.
		return fracSim
	}
	meanSim := 0.0
	if denom := math.Abs(p.mean) + math.Abs(o.mean); denom > 0 {
		meanSim = 1 - math.Abs(p.mean-o.mean)/denom
	}
	stdSim := 0.0
	if denom := p.std + o.std; denom > 0 {
		stdSim = 1 - math.Abs(p.std-o.std)/denom
	}
	return (fracSim + meanSim + stdSim) / 3
}

func parseNumber(v string) (float64, bool) {
	v = strings.TrimSpace(strings.ReplaceAll(strings.TrimPrefix(v, "$"), ",", ""))
	if v == "" {
		return 0, false
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

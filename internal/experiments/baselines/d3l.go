package baselines

import (
	"cmp"
	"math"
	"slices"
	"strconv"
	"strings"

	"dust/internal/embed"
	"dust/internal/lake"
	"dust/internal/minhash"
	"dust/internal/par"
	"dust/internal/search"
	"dust/internal/table"
	"dust/internal/tokenize"
	"dust/internal/vector"
)

// D3L is the D3L-like union baseline: it aggregates five column
// unionability signals — header-name similarity, value overlap (MinHash),
// format (character-class profile), word-embedding similarity, and numeric
// distribution similarity — and scores a table by the mean best aggregate
// over the query's columns (§6.5.1). It is an evaluation object, built once
// over a lake and asked for rankings, not a serving index: it has no
// persistence, mutation, or approximate retrieval of its own.
type D3L struct {
	lake    *lake.Lake
	enc     *embed.Encoder
	workers int
	hasher  *minhash.Hasher
	tables  map[string]d3lTableIndex // per table: the per-column signals
}

// d3lTableIndex holds one table's per-column signals — what indexing
// stores for a lake table and TopK derives for a query.
type d3lTableIndex struct {
	sigs []minhash.Signature // value overlap
	vecs []vector.Vec        // word embeddings
	fps  []formatProfile
	nps  []numericProfile
}

// NewD3L indexes the lake, computing the five per-column signals of every
// table with at most workers goroutines (<= 0: the GOMAXPROCS default).
func NewD3L(l *lake.Lake, workers int) *D3L {
	d := &D3L{
		lake:    l,
		enc:     embed.NewFastText(),
		workers: workers,
		hasher:  minhash.NewHasher(128),
	}
	tables := l.Tables()
	indexed := par.Map(d.workers, len(tables), func(ti int) d3lTableIndex {
		return d.indexTable(tables[ti])
	})
	d.tables = make(map[string]d3lTableIndex, len(tables))
	for ti, t := range tables {
		d.tables[t.Name] = indexed[ti]
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

// Name identifies the baseline in experiment output.
func (d *D3L) Name() string { return "d3l" }

// TopK ranks every lake table by its five-signal score against query and
// returns the top k by (score desc, name asc); k <= 0 returns the full
// ranking. The query's signals are derived once; tables are scored in
// parallel, and the ranking is identical for every worker count.
func (d *D3L) TopK(query *table.Table, k int) []search.Scored {
	q := d.indexTable(query)
	tables := d.lake.Tables()
	out := par.Map(d.workers, len(tables), func(i int) search.Scored {
		return search.Scored{Table: tables[i], Score: d.score(query, &q, tables[i])}
	})
	slices.SortFunc(out, func(a, b search.Scored) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return strings.Compare(a.Table.Name, b.Table.Name)
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// score is the five-signal table score of t under the query table and its
// signals q: the mean best aggregate over the query's columns.
func (d *D3L) score(query *table.Table, q *d3lTableIndex, t *table.Table) float64 {
	n := query.NumCols()
	if t.NumCols() == 0 || n == 0 {
		return 0
	}
	idx := d.tables[t.Name]
	var sum float64
	for i := range query.Columns {
		best := 0.0
		for ci := range t.Columns {
			if s := columnScore(query, q, i, t, &idx, ci); s > best {
				best = s
			}
		}
		sum += best
	}
	return sum / float64(n)
}

func (d *D3L) embedColumn(col *table.Column) vector.Vec {
	var toks []string
	for _, v := range col.Values {
		toks = append(toks, tokenize.Words(v)...)
	}
	return d.enc.EncodeTokens(toks)
}

// columnScore aggregates the five signals for column qi of query (whose
// signals are q) against column ci of the indexed table t (whose signals are
// idx).
func columnScore(query *table.Table, q *d3lTableIndex, qi int, t *table.Table, idx *d3lTableIndex, ci int) float64 {
	name := headerSimilarity(query.Columns[qi].Name, t.Columns[ci].Name)
	value := minhash.Estimate(q.sigs[qi], idx.sigs[ci])
	format := q.fps[qi].similarity(idx.fps[ci])
	emb := math.Max(0, vector.Cosine(q.vecs[qi], idx.vecs[ci]))
	dist := q.nps[qi].similarity(idx.nps[ci])
	return (name + value + format + emb + dist) / 5
}

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
		p.std += float64((f - p.mean) * (f - p.mean)) // architecture-exact: no fusion (docs/ARCHITECTURE.md, "Determinism contract")
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
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		// ParseFloat accepts "nan" and "inf", and "nan" is a null token of
		// the generated lakes: a non-finite cell is not a number here.
		return 0, false
	}
	return f, true
}
